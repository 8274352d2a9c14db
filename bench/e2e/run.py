#!/usr/bin/env python3
"""End-to-end benchmark of the encrypted pipeline (see bench/e2e/README.md).

Builds the driver from this checkout's sources, runs workloads, checks every
answer, and prints each metric as `workload metric value unit`. The last line
of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json, or its per-layer metrics when
tracing.

  python3 bench/e2e/run.py --workload synthetic_scan --seed 1 --seconds 10 --trace 0
  python3 bench/e2e/run.py --workload all              # every workload once
  python3 bench/e2e/run.py --sets 2                    # repeatability check
  python3 bench/e2e/run.py --smoke                     # fast check of the tooling
  python3 bench/e2e/run.py --selftest                  # the answer checks catch errors

Exit status is 0 only when every answer was correct (and, for --sets, every
spread and set-to-set drift stayed within its bound).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WARMUP_SECONDS = 2.0
DRIVER_TIMEOUT_SECONDS = 170
RUNS_PER_SET = 10  # seeds per workload in each --sets set


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {BENCHMARK_JSON}: {e}")


def build_dir():
    """<root>/build-e2e, or $CARGO_TARGET_DIR/e2e when that is set."""
    base = os.environ.get("CARGO_TARGET_DIR")
    if not base:
        return os.path.join(ROOT, "build-e2e")
    return os.path.join(ROOT, base, "e2e")


def build():
    """Configures (once) and builds the driver; returns its path."""
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError(f"seabed sources missing: no {required} at {ROOT}")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # never reuse a half-configured tree
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "e2e_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "e2e_driver")


def run_driver(driver, workload, seed, seconds, trace, warmup=WARMUP_SECONDS, scale=1.0):
    """Runs one workload in its own process; returns the driver's JSON result."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--warmup", str(warmup), "--trace", "1" if trace else "0", "--scale", str(scale)]
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver did not finish in {DRIVER_TIMEOUT_SECONDS} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: driver exited {proc.returncode} without a result")
    result["exit_code"] = proc.returncode
    return result


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def check_metrics(spec, result, trace):
    """Every declared metric must be present with its declared unit."""
    missing = []
    for m in declared(spec, trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
    if missing:
        raise BenchError(f"{result['workload']}: metrics missing or mis-united: {missing}")


def print_result(result):
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w} samples {result['samples']} count")
    for note in result["notes"]:
        log(f"{w}: {note}")


def ok(result):
    return result["correct"] and result["exit_code"] == 0


def contract_line(spec, results, trace):
    """The final JSON line: one workload's declared metrics, or all of them
    prefixed by workload name."""
    metrics = {}
    for r in results:
        for m in declared(spec, trace):
            key = m["name"] if len(results) == 1 else f"{r['workload']}.{m['name']}"
            metrics[key] = {"value": r["metrics"][m["name"]]["value"], "unit": m["unit"]}
    return {
        "correct": all(ok(r) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def write_json(name, payload):
    path = os.path.join(build_dir(), name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    log(f"wrote {path}")


def cmd_run(spec, driver, args):
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            raise BenchError(f"unknown workload {w!r}; choose from {names} or 'all'")
    results = []
    for w in workloads:
        r = run_driver(driver, w, args.seed, args.seconds, args.trace)
        check_metrics(spec, r, args.trace)
        print_result(r)
        results.append(r)
    write_json("result.json", results)
    line = contract_line(spec, results, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def spread_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def cmd_sets(spec, driver, args):
    """Runs `sets` complete sets of RUNS_PER_SET seeds per workload and
    reports each (workload, metric) pair's median, quartiles and spread,
    flagging spreads and set-to-set median drifts beyond the metric's bound."""
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    values = {}  # (set, workload, metric) -> [values]
    samples = {}
    all_ok = True
    for s in range(args.sets):
        for w in workloads:
            for i in range(RUNS_PER_SET):
                seed = args.seed + i
                start = time.time()
                r = run_driver(driver, w, seed, args.seconds, False)
                check_metrics(spec, r, False)
                all_ok = all_ok and ok(r)
                samples.setdefault(w, []).append(r["samples"])
                for m in spec["end_to_end"]:
                    value = r["metrics"][m["name"]]["value"]
                    values.setdefault((s, w, m["name"]), []).append(value)
                log(f"set {s + 1} {w} seed {seed}: {time.time() - start:.1f} s, "
                    f"{r['samples']} samples, correct={ok(r)}")
    flags = 0
    print(f"{'workload':18} {'metric':12} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  flag")
    for w in workloads:
        for m in spec["end_to_end"]:
            first = None
            for s in range(args.sets):
                median, q1, q3, spread = spread_stats(values[(s, w, m["name"])])
                flag = ""
                if spread > m["bound"]:
                    flag = "SPREAD"
                if first is None:
                    first = median
                else:
                    worse = (median - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > m["bound"]:
                        flag = (flag + " DRIFT").strip()
                flags += 1 if flag else 0
                print(f"{w:18} {m['name']:12} {s + 1:>3} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {m['bound']:6.3f}  {flag}")
        print(f"{w:18} {'samples':12} min {min(samples[w])}")
    write_json("sets.json", {f"{s}/{w}/{m}": v for (s, w, m), v in values.items()})
    print(json.dumps({"correct": all_ok, "flags": flags}))
    return 0 if all_ok and flags == 0 else 1


def cmd_smoke(spec, driver, _args):
    """Every workload at 5% of its rows with 2 s windows, untraced and traced;
    every declared metric must be printed with its unit."""
    start = time.time()
    results = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            r = run_driver(driver, w, 1, 2, trace, warmup=0.5, scale=0.05)
            check_metrics(spec, r, trace)
            print_result(r)
            results.append(r)
    elapsed = time.time() - start
    good = all(ok(r) for r in results)
    log(f"smoke: {len(results)} runs in {elapsed:.1f} s, correct={good}")
    print(json.dumps({"correct": good, "seconds": round(elapsed, 1)}))
    return 0 if good else 1


def cmd_selftest(_spec, driver, _args):
    return subprocess.run([driver, "--selftest"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--sets", type=int, default=0,
                        help="repeatability check: this many complete sets")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        driver = build()
        if args.selftest:
            return cmd_selftest(spec, driver, args)
        if args.smoke:
            return cmd_smoke(spec, driver, args)
        if args.sets:
            return cmd_sets(spec, driver, args)
        return cmd_run(spec, driver, args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
