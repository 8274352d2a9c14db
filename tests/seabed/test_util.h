// Shared helpers for the seabed test suites: canonical row stringification
// (in ResultSet row order, which every backend sorts by group value; doubles
// rounded to 4 places so encrypted pipelines byte-match the plaintext
// reference) and the two-round probe stats
// invariants applied across backends.
#ifndef SEABED_TESTS_SEABED_TEST_UTIL_H_
#define SEABED_TESTS_SEABED_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/seabed/session.h"

namespace seabed {

inline std::vector<std::string> RowsAsStrings(const ResultSet& r) {
  std::vector<std::string> rows;
  for (const auto& row : r.rows) {
    std::string s;
    for (const Value& v : row) {
      if (const auto* d = std::get_if<double>(&v)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", *d);
        s += buf;
      } else {
        s += ValueToString(v);
      }
      s += "|";
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

// Stats-invariant helper for the two-round probe path, applied across the
// backend tests: replaying `q` with probe off and probe forced must (a)
// return `reference` both times, (b) never report probe stats with the probe
// off, and (c) with the probe forced, touch at most as many rows as the full
// scan — pruning only skips row groups that hold no match, so the
// predicate-surviving row count can never grow. On the sharded backend the
// per-shard accounting must also keep the probe round separate from round
// two: a shard pruned in round one runs no round two and bills none.
// Backends that ignore the probe (kPlain, kPaillier) pass trivially with
// probe_used == false.
inline void ExpectProbeStatsInvariants(Session& session, const Query& q,
                                       const std::vector<std::string>& reference) {
  const ProbeOptions saved = session.probe_options();
  ProbeOptions popts = saved;
  popts.mode = ProbeMode::kOff;
  session.set_probe_options(popts);
  QueryStats off;
  EXPECT_EQ(RowsAsStrings(session.Execute(q, &off)), reference);
  if (!q.needs_two_round_trips) {
    EXPECT_FALSE(off.probe_used);
    EXPECT_EQ(off.row_groups_pruned, 0u);
    for (const double s : off.shard_probe_seconds) {
      EXPECT_EQ(s, 0.0);  // no probe round ran, so nothing may bill to one
    }
  }

  popts.mode = ProbeMode::kForced;
  popts.row_group_size = 256;
  session.set_probe_options(popts);
  QueryStats forced;
  EXPECT_EQ(RowsAsStrings(session.Execute(q, &forced)), reference);
  EXPECT_LE(forced.rows_touched, off.rows_touched);
  if (forced.probe_used) {
    EXPECT_LE(forced.row_groups_pruned, forced.row_groups_total);
  } else {
    EXPECT_EQ(forced.row_groups_total, 0u);
  }
  // Two-round accounting stays separated (sharded backends; empty vectors on
  // single-server ones): probe and round-two vectors cover the same fleet,
  // no shard's probe exceeds the reported probe round (shards probe in
  // parallel), and the slowest shard's round two fits inside server_seconds.
  EXPECT_EQ(forced.shard_probe_seconds.size(), forced.shard_server_seconds.size());
  for (const double s : forced.shard_probe_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, forced.probe_seconds + 1e-9);
  }
  for (const double s : forced.shard_server_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, forced.server_seconds + 1e-9);
  }
  if (!forced.probe_used) {
    for (const double s : forced.shard_probe_seconds) {
      EXPECT_EQ(s, 0.0);
    }
  }
  // Round-zero routing accounting (key-range sharded sessions; both fields
  // zero on single-server backends). Routing reads only the query's
  // clustering-key predicates and the pinned version's boundaries, so it is
  // independent of probe mode — both runs must report the same subset; a
  // non-routable query reports the full fleet. Routing happens before the
  // probe round, so when it proves zero owners both rounds are skipped: no
  // probe, no rows touched.
  EXPECT_LE(off.shards_routed, off.shards_total);
  EXPECT_LE(forced.shards_routed, forced.shards_total);
  EXPECT_EQ(off.shards_total, forced.shards_total);
  EXPECT_EQ(off.shards_routed, forced.shards_routed);
  if (forced.shards_total > 0 && forced.shards_routed == 0) {
    EXPECT_FALSE(forced.probe_used);
    EXPECT_EQ(forced.rows_touched, 0u);
    EXPECT_EQ(off.rows_touched, 0u);
  }
  session.set_probe_options(saved);
}

// Stats-invariant helper for the prepared-statement path, applied across the
// backend tests: executing `shape` via Prepare+bind must (a) return
// `reference` (the ad-hoc answer), (b) report prepared=true with a
// non-negative bind time on every backend — including fallback executions of
// non-parameterized handles — while the ad-hoc run of the bound query
// reports prepared=false, and (c) on a parameterized handle, re-executing
// with fresh params must not retranslate (plan_cache_hit on the second run;
// result-cache hits replay client-side and never translate at all).
inline void ExpectPreparedStatsInvariants(Session& session, const Query& shape,
                                          const std::vector<Value>& params,
                                          const std::vector<std::string>& reference) {
  const PreparedQuery prepared = session.Prepare(shape);
  EXPECT_EQ(prepared.num_params(), params.size());

  QueryStats adhoc;
  EXPECT_EQ(RowsAsStrings(session.Execute(prepared.Bind(params), &adhoc)), reference);
  EXPECT_FALSE(adhoc.prepared);
  EXPECT_EQ(adhoc.bind_seconds, 0.0);

  QueryStats first;
  EXPECT_EQ(RowsAsStrings(session.Execute(prepared, params, &first)), reference);
  EXPECT_TRUE(first.prepared);
  EXPECT_GE(first.bind_seconds, 0.0);

  QueryStats second;
  EXPECT_EQ(RowsAsStrings(session.Execute(prepared, params, &second)), reference);
  EXPECT_TRUE(second.prepared);
  if (prepared.parameterized() && !second.cache_hit &&
      session.backend_kind() != BackendKind::kPlain &&
      session.backend_kind() != BackendKind::kPaillier) {
    EXPECT_TRUE(second.plan_cache_hit);
  }
}

}  // namespace seabed

#endif  // SEABED_TESTS_SEABED_TEST_UTIL_H_
