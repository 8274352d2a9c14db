#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <variant>

#include "bench/e2e/e2e.h"
#include "src/engine/serialize.h"

namespace seabed::e2e {

void LogPhase(const RunOptions& options, const char* phase, Clock::time_point since) {
  std::fprintf(stderr, "[%s] %-10s %7.3f s\n", options.workload.c_str(), phase,
               SecondsBetween(since, Clock::now()));
}

void LogClassLatencies(const RunOptions& options, const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& latencies_ms) {
  for (size_t c = 0; c < names.size(); ++c) {
    const std::vector<double>& v = latencies_ms[c];
    std::fprintf(stderr, "[%s] class %-8s n=%-5zu p5 %8.3f  p50 %8.3f  p95 %8.3f ms\n",
                 options.workload.c_str(), names[c].c_str(), v.size(), Percentile(v, 0.05),
                 Percentile(v, 0.5), Percentile(v, 0.95));
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

void AppendCell(std::string& row, const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", *d);
    row += buf;
  } else {
    row += ValueToString(v);
  }
  row += '|';
}

std::string IntRow(std::initializer_list<int64_t> cells) {
  std::string row;
  for (const int64_t c : cells) {
    AppendCell(row, Value(c));
  }
  return row;
}

}  // namespace

std::vector<std::string> CanonicalRows(const ResultSet& rows) {
  std::vector<std::string> out;
  out.reserve(rows.rows.size());
  for (const auto& row : rows.rows) {
    std::string s;
    for (const Value& v : row) {
      AppendCell(s, v);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double SerializedEncryptedBytes(const Table& enc) {
  double bytes = static_cast<double>(SerializedTableSize(enc));
  for (const std::string& name : enc.column_names()) {
    if (enc.GetColumn(name)->type() == ColumnType::kAshe) {
      bytes += 8.0 * static_cast<double>(enc.NumRows());
      break;
    }
  }
  return bytes;
}

// --- EventsOracle ------------------------------------------------------------

EventsOracle::EventsOracle(std::vector<int64_t> seg, std::vector<int64_t> value,
                           size_t initial_rows, size_t batch_rows, int64_t num_segments)
    : seg_(std::move(seg)),
      value_(std::move(value)),
      initial_rows_(initial_rows),
      batch_rows_(batch_rows),
      num_segments_(num_segments) {
  std::vector<std::pair<int64_t, int64_t>> acc(static_cast<size_t>(num_segments_), {0, 0});
  auto add_rows = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      auto& [sum, count] = acc[static_cast<size_t>(seg_[r])];
      sum += value_[r];
      ++count;
    }
  };
  add_rows(0, initial_rows_);
  prefix_.push_back(acc);
  for (size_t k = 1; k <= max_batches(); ++k) {
    add_rows(initial_rows_ + (k - 1) * batch_rows_, initial_rows_ + k * batch_rows_);
    prefix_.push_back(acc);
  }
}

std::vector<std::string> EventsOracle::Window(size_t lo, size_t hi, bool group_by_seg) const {
  std::vector<std::pair<int64_t, int64_t>> acc(static_cast<size_t>(num_segments_), {0, 0});
  int64_t sum = 0;
  int64_t count = 0;
  for (size_t r = lo; r <= hi && r < seg_.size(); ++r) {
    sum += value_[r];
    ++count;
    auto& [s, c] = acc[static_cast<size_t>(seg_[r])];
    s += value_[r];
    ++c;
  }
  std::vector<std::string> rows;
  if (!group_by_seg) {
    rows.push_back(IntRow({sum, count}));
    return rows;
  }
  for (int64_t s = 0; s < num_segments_; ++s) {
    const auto& [gs, gc] = acc[static_cast<size_t>(s)];
    if (gc > 0) {
      rows.push_back(IntRow({s, gs, gc}));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> EventsOracle::Full(size_t k) const {
  std::vector<std::string> rows;
  for (int64_t s = 0; s < num_segments_; ++s) {
    const auto& [gs, gc] = prefix_[k][static_cast<size_t>(s)];
    if (gc > 0) {
      rows.push_back(IntRow({s, gs, gc}));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

int64_t EventsOracle::CheckFull(const ResultSet& rows, size_t min_batches,
                                size_t submitted_batches) const {
  int64_t total = 0;
  for (const auto& row : rows.rows) {
    const int64_t* count = row.size() == 3 ? std::get_if<int64_t>(&row[2]) : nullptr;
    if (count == nullptr) {
      return -1;
    }
    total += *count;
  }
  const int64_t appended = total - static_cast<int64_t>(initial_rows_);
  if (appended < 0 || appended % static_cast<int64_t>(batch_rows_) != 0) {
    return -1;
  }
  const size_t k = static_cast<size_t>(appended) / batch_rows_;
  if (k < min_batches || k > submitted_batches || k > max_batches()) {
    return -1;
  }
  return CanonicalRows(rows) == Full(k) ? static_cast<int64_t>(k) : -1;
}

// --- self-test ---------------------------------------------------------------

namespace {

ResultSet IntResult(const std::vector<std::vector<int64_t>>& rows) {
  ResultSet r;
  for (const auto& row : rows) {
    std::vector<Value> cells(row.begin(), row.end());
    r.rows.push_back(std::move(cells));
  }
  return r;
}

}  // namespace

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("selftest %-58s %s\n", what, ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };

  // Nearest-rank percentiles (the textbook five-sample example, plus 1..20
  // in scrambled order).
  const std::vector<double> five = {35, 20, 50, 15, 40};
  expect(Percentile(five, 0.30) == 20 && Percentile(five, 0.40) == 20 &&
             Percentile(five, 0.50) == 35 && Percentile(five, 1.0) == 50,
         "nearest-rank percentiles of {15,20,35,40,50}");
  std::vector<double> twenty;
  for (int i = 0; i < 20; ++i) {
    twenty.push_back(static_cast<double>((i * 7) % 20 + 1));
  }
  expect(Percentile(twenty, 0.50) == 10 && Percentile(twenty, 0.95) == 19 &&
             Percentile(twenty, 0.05) == 1,
         "nearest-rank p5/p50/p95 of 1..20 = 1/10/19");
  expect(Percentile({}, 0.5) == 0 && Percentile({7}, 0.95) == 7,
         "percentiles of empty and one-sample vectors");

  // Single-server answers: order-insensitive, and one aggregate off by one
  // is a mismatch.
  const ResultSet answer = IntResult({{1, 100, 3}, {2, 250, 5}});
  const ResultSet reordered = IntResult({{2, 250, 5}, {1, 100, 3}});
  const ResultSet corrupted = IntResult({{1, 100, 3}, {2, 251, 5}});
  expect(CanonicalRows(answer) == CanonicalRows(reordered), "row order does not matter");
  expect(CanonicalRows(answer) != CanonicalRows(corrupted),
         "an aggregate off by one is caught");

  // dashboard_ingest: 8 initial rows + 3 batches of 4, 4 segments.
  std::vector<int64_t> seg;
  std::vector<int64_t> value;
  for (int64_t r = 0; r < 20; ++r) {
    seg.push_back(r % 4);
    value.push_back(10 * r + 1);
  }
  const EventsOracle oracle(seg, value, 8, 4, 4);
  auto full_answer = [&](size_t k, int64_t bump) {
    std::vector<std::vector<int64_t>> rows;
    for (int64_t s = 0; s < 4; ++s) {
      int64_t sum = 0;
      int64_t count = 0;
      for (size_t r = 0; r < 8 + 4 * k; ++r) {
        if (seg[r] == s) {
          sum += value[r];
          ++count;
        }
      }
      rows.push_back({s, sum + (s == 2 ? bump : 0), count});
    }
    return IntResult(rows);
  };
  expect(oracle.CheckFull(full_answer(2, 0), 2, 3) == 2,
         "full-table answer after 2 of 3 batches is accepted");
  expect(oracle.CheckFull(full_answer(1, 0), 2, 3) == -1,
         "an answer missing an acknowledged batch is caught");
  expect(oracle.CheckFull(full_answer(2, 1), 2, 3) == -1,
         "a full-table aggregate off by one is caught");
  expect(oracle.CheckFull(full_answer(3, 0), 0, 2) == -1,
         "an answer with a batch not yet submitted is caught");
  const ResultSet window = IntResult({{(9 * 10 + 1) + (10 * 10 + 1) + (11 * 10 + 1), 3}});
  const ResultSet window_bad = IntResult({{(9 * 10 + 1) + (10 * 10 + 1) + (11 * 10 + 1) + 1, 3}});
  expect(oracle.Window(9, 11, false) == CanonicalRows(window) &&
             oracle.Window(9, 11, false) != CanonicalRows(window_bad),
         "window answers match exactly and an off-by-one is caught");
  return failures;
}

// --- Tracer ------------------------------------------------------------------

uint64_t Tracer::Record(const std::string& name, Clock::time_point begin, Clock::time_point end,
                        uint64_t parent, uint64_t request, uint64_t lane) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({name, begin, end, id, parent, request, lane});
  return id;
}

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.begin - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.begin).count();
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}",
                 i == 0 ? "" : ",", s.name.c_str(), static_cast<unsigned long long>(s.lane), ts,
                 dur, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace seabed::e2e
