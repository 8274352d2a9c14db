// Quickstart: the full Seabed pipeline on a small retail table, through the
// Session facade.
//
//   1. Describe the plaintext schema (sensitivity + value distributions).
//   2. Attach the table: the planner chooses encryption schemes from sample
//      queries, the encryptor builds the tables the untrusted server stores.
//   3. Issue plaintext queries; the session translates, executes on
//      ciphertexts, and decrypts — one call.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "src/query/parser.h"
#include "src/query/plain_executor.h"
#include "src/seabed/session.h"

int main() {
  using seabed::BackendKind;
  using seabed::CmpOp;
  using seabed::ColumnType;
  using seabed::EncSchemeName;
  using seabed::MustParseSql;
  using seabed::Query;
  using seabed::QueryStats;
  using seabed::ResultSet;
  using seabed::ValueDistribution;

  // --- 1. plaintext data -------------------------------------------------------
  auto table = std::make_shared<seabed::Table>("retail");
  auto country = std::make_shared<seabed::StringColumn>();
  auto store = std::make_shared<seabed::StringColumn>();
  auto revenue = std::make_shared<seabed::Int64Column>();
  seabed::Rng rng(2024);
  const char* countries[] = {"usa", "canada", "india", "chile"};
  const double cdf[] = {0.5, 0.85, 0.95, 1.0};
  const char* stores[] = {"downtown", "airport", "mall"};
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDouble();
    int pick = 0;
    while (u > cdf[pick]) {
      ++pick;
    }
    country->Append(countries[pick]);
    store->Append(stores[rng.Below(3)]);
    revenue->Append(rng.Range(10, 5000));
  }
  table->AddColumn("country", country);
  table->AddColumn("store", store);
  table->AddColumn("revenue", revenue);

  // --- 2. schema + session ----------------------------------------------------
  seabed::PlainSchema schema;
  schema.table_name = "retail";
  ValueDistribution dist;
  dist.values = {"usa", "canada", "india", "chile"};
  dist.frequencies = {0.5, 0.35, 0.10, 0.05};
  schema.columns.push_back({"country", ColumnType::kString, /*sensitive=*/true, dist});
  schema.columns.push_back({"store", ColumnType::kString, /*sensitive=*/true, std::nullopt});
  schema.columns.push_back({"revenue", ColumnType::kInt64, /*sensitive=*/true, std::nullopt});

  std::vector<Query> samples;
  samples.push_back(MustParseSql(
      "SELECT SUM(revenue), COUNT(*) FROM retail WHERE country = 'india'"));
  samples.push_back(MustParseSql("SELECT SUM(revenue) FROM retail GROUP BY store"));

  seabed::SessionOptions options;
  options.backend = BackendKind::kSeabed;
  options.cluster.num_workers = 8;
  options.planner.expected_rows = 20000;
  options.key_seed = 0xC0FFEE;
  seabed::Session session(options);
  session.Attach(table, schema, samples);  // plan + encrypt + upload

  std::printf("--- encryption plan ---\n");
  const seabed::EncryptionPlan& plan = session.plan("retail");
  for (const auto& [name, cp] : plan.columns) {
    std::printf("  %-10s -> %s\n", name.c_str(), EncSchemeName(cp.scheme));
  }
  for (const auto& w : plan.warnings) {
    std::printf("  warning: %s\n", w.c_str());
  }
  const seabed::EncryptedDatabase& db = session.encrypted_database("retail");
  std::printf("\nencrypted table: %zu columns, %.1f MB (plaintext %.1f MB)\n",
              db.table->NumColumns(), db.table->ByteSize() / 1e6, table->ByteSize() / 1e6);

  // --- 3. query ----------------------------------------------------------------
  auto run = [&](const Query& q, const char* what) {
    QueryStats stats;
    const ResultSet enc = session.Execute(q, &stats);
    const ResultSet ref = seabed::ExecutePlain(*table, q, session.cluster(), nullptr, nullptr);
    std::printf("\n--- %s ---\n%s", what, enc.ToString().c_str());
    std::printf("(%.3f s total, %zu bytes shipped, plaintext cross-check: %s)\n",
                stats.TotalSeconds(), stats.result_bytes,
                enc.rows.size() == ref.rows.size() ? "row count matches" : "MISMATCH");
  };

  // Queries can be written in SQL (parsed by src/query/parser.h) or built
  // with the fluent AST API — both produce the same Query object.
  const Query q1 = MustParseSql(
      "SELECT SUM(revenue) AS total, COUNT(*) AS orders "
      "FROM retail WHERE country = 'india'");
  run(q1, "revenue from India (SQL front-end, SPLASHE-rewritten filter)");

  Query q2;
  q2.table = "retail";
  q2.Sum("revenue", "total").Avg("revenue", "avg");
  q2.GroupBy("store");
  q2.expected_groups = 3;
  run(q2, "revenue by store (DET group-by with inflation)");

  Query q3;
  q3.table = "retail";
  q3.Sum("revenue", "total").Where("country", CmpOp::kEq, std::string("usa"));
  run(q3, "revenue from USA (splayed column, zero server-side predicates)");

  // --- 4. scale out ------------------------------------------------------------
  // The same queries on the sharded backend: rows hash-partition across four
  // servers, the query fans out, and the coordinator merges the encrypted
  // partial results before one client decryption. Same answers, and
  // QueryStats now reports the per-shard breakdown.
  seabed::SessionOptions sharded_options = options;
  sharded_options.backend = BackendKind::kShardedSeabed;
  sharded_options.shards = 4;
  seabed::Session sharded(sharded_options);
  sharded.AttachPlanned(table, schema, plan);  // reuse the planner's output

  QueryStats stats;
  const ResultSet fan_out = sharded.Execute(q2, &stats);
  std::printf("\n--- revenue by store, sharded across %zu servers ---\n%s",
              sharded_options.shards, fan_out.ToString().c_str());
  std::printf("(slowest shard + merge: %.3f s server, merge %.6f s, shards:",
              stats.server_seconds, stats.merge_seconds);
  for (const double s : stats.shard_server_seconds) {
    std::printf(" %.3f", s);
  }
  std::printf(")\n");

  // --- 5. cache the dashboard --------------------------------------------------
  // Dashboards re-issue the same aggregates on every refresh. Give the
  // Seabed engine a result-cache budget: the first Execute runs cold and
  // seeds a client-side cache keyed by the query's fingerprint and the table
  // version it read; repeats are answered without the untrusted server
  // seeing a query at all. An append publishes a new version, so the next
  // run misses and reads the new rows.
  seabed::SessionOptions caching_options = options;
  caching_options.result_cache_bytes = 16u << 20;
  seabed::Session caching(caching_options);
  caching.AttachPlanned(table, schema, plan);

  QueryStats cold, warm;
  caching.Execute(q1, &cold);
  caching.Execute(q1, &warm);  // same fingerprint: served from the cache
  std::printf("\n--- revenue from India, cold vs warm (result cache) ---\n");
  std::printf("cold: %.3f s (cache_hit=%d)   warm: %.6f s (cache_hit=%d, lookup %.6f s)\n",
              cold.TotalSeconds(), cold.cache_hit ? 1 : 0, warm.TotalSeconds(),
              warm.cache_hit ? 1 : 0, warm.cache_lookup_seconds);

  return 0;
}
