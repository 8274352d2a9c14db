// e2e_driver: runs one end-to-end benchmark workload and prints its metrics as
// one JSON object on the last line of stdout. bench/e2e/run.py builds and
// drives it; see README.md.
//
//   e2e_driver --workload synthetic_scan --seed 1 --seconds 10 [--warmup 2]
//              [--trace 0|1] [--trace-out FILE] [--scale 1.0]
//   e2e_driver --selftest
//
// Exit status: 0 when every answer was correct, 1 otherwise, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench/e2e/e2e.h"

namespace seabed::e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void PrintResult(const RunOptions& options, const RunResult& r, bool correct) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"samples\": %llu, \"notes\": [",
              JsonString(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.samples));
  for (size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", JsonString(r.notes[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const RunResult::Metric& m = r.metrics[i];
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                JsonString(m.name).c_str(), m.value, JsonString(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_driver: %s\nusage: e2e_driver --workload NAME --seed N --seconds S "
               "[--warmup S] [--trace 0|1] [--trace-out FILE] [--scale F] | --selftest\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      return SelfTest() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--warmup") {
      options.warmup = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, &end);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.warmup < 0 || options.scale <= 0) {
    return Usage("--seconds and --scale must be positive, --warmup non-negative");
  }

  const std::map<std::string, RunResult (*)(const RunOptions&)> workloads = {
      {"synthetic_scan", RunSyntheticScan},
      {"adtech_dashboard", RunAdtechDashboard},
      {"bdb_join", RunBdbJoin},
      {"dashboard_ingest", RunDashboardIngest},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const RunResult result = it->second(options);
  const bool correct = result.correct && result.failed == 0 && result.attempted > 0;
  PrintResult(options, result, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace seabed::e2e

int main(int argc, char** argv) { return seabed::e2e::Main(argc, argv); }
