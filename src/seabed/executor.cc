#include "src/seabed/executor.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/query/plain_executor.h"
#include "src/seabed/sharded_backend.h"

namespace seabed {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kPlain:
      return "plain";
    case BackendKind::kSeabed:
      return "seabed";
    case BackendKind::kPaillier:
      return "paillier";
    case BackendKind::kShardedSeabed:
      return "sharded-seabed";
  }
  return "?";
}

AttachedTable& TableCatalog::Add(AttachedTable table) {
  SEABED_CHECK_MSG(tables_.find(table.name) == tables_.end(),
                   "table " << table.name << " attached twice");
  const std::string name = table.name;
  return tables_.emplace(name, std::move(table)).first->second;
}

const AttachedTable& TableCatalog::Get(const std::string& name) const {
  const auto it = tables_.find(name);
  SEABED_CHECK_MSG(it != tables_.end(), "table " << name << " is not attached to the session");
  return it->second;
}

AttachedTable& TableCatalog::GetMutable(const std::string& name) {
  const auto it = tables_.find(name);
  SEABED_CHECK_MSG(it != tables_.end(), "table " << name << " is not attached to the session");
  return it->second;
}

const AttachedTable* TableCatalog::Find(const std::string& name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Executor::~Executor() = default;

ResultSet Executor::ExecutePrepared(const PreparedQuery& prepared,
                                    std::span<const Value> params, QueryStats* stats) {
  SEABED_CHECK_MSG(prepared.valid(), "ExecutePrepared on an invalid (default) handle");
  Stopwatch bind_sw;
  const Query bound = prepared.Bind(params);
  const double bind_seconds = bind_sw.ElapsedSeconds();
  ResultSet result = Execute(bound, stats);
  if (stats != nullptr) {
    stats->prepared = true;
    stats->bind_seconds = bind_seconds;
  }
  return result;
}

void GrowPlainTable(Table& dst, const Table& src) {
  for (const std::string& name : dst.column_names()) {
    const ColumnPtr& col = dst.GetColumn(name);
    const ColumnPtr& from = src.GetColumn(name);
    SEABED_CHECK_MSG(from->type() == col->type(), "append schema mismatch on " << name);
    if (col->type() == ColumnType::kInt64) {
      auto* d = static_cast<Int64Column*>(col.get());
      const auto* s = static_cast<const Int64Column*>(from.get());
      for (size_t row = 0; row < src.NumRows(); ++row) {
        d->Append(s->Get(row));
      }
    } else {
      SEABED_CHECK_MSG(col->type() == ColumnType::kString,
                       "append supports plaintext int/string columns only");
      auto* d = static_cast<StringColumn*>(col.get());
      const auto* s = static_cast<const StringColumn*>(from.get());
      for (size_t row = 0; row < src.NumRows(); ++row) {
        d->Append(s->Get(row));
      }
    }
  }
}

std::shared_ptr<Table> CloneTable(const Table& src) { return DeepCopyTable(src); }

// One real-measured unit of ingest work, priced on the synthetic fabric: the
// batch splits into row-range tasks round-robined over the modeled workers,
// exactly Cluster::RunJob's accounting. The work itself ran sequentially on
// the host (encryption streams append to one destination column), so the
// measured compute is divided rather than re-run.
JobStats ModelIngestJob(const Cluster& cluster, double compute_seconds, size_t num_tasks) {
  const ClusterConfig& cfg = cluster.config();
  const size_t workers = std::max<size_t>(1, cfg.num_workers);
  JobStats stats;
  stats.num_tasks = std::max<size_t>(1, num_tasks);
  stats.total_compute_seconds = compute_seconds;
  const size_t tasks_per_worker = (stats.num_tasks + workers - 1) / workers;
  const double compute_per_worker = compute_seconds / static_cast<double>(workers);
  stats.server_seconds = cfg.job_overhead_seconds +
                         static_cast<double>(tasks_per_worker) * cfg.task_overhead_seconds +
                         compute_per_worker;
  stats.worker_seconds.assign(workers, compute_per_worker);
  return stats;
}

// Task granularity for modeled ingest jobs: the row-range a fabric worker
// would encrypt as one task.
constexpr size_t kIngestTaskRows = 8192;

static size_t IngestTasks(const Table& new_rows) {
  return (new_rows.NumRows() + kIngestTaskRows - 1) / kIngestTaskRows;
}

// --- NoEnc -------------------------------------------------------------------

void PlainExecutorBackend::Prepare(AttachedTable& table) {
  (void)table;  // plaintext execution needs no preparation
}

void PlainExecutorBackend::Append(AttachedTable& table, const Table& new_rows,
                                  JobStats* stats) {
  Stopwatch sw;
  GrowPlainTable(*table.plain, new_rows);
  if (stats != nullptr) {
    *stats = ModelIngestJob(*context_->cluster, sw.ElapsedSeconds(), IngestTasks(new_rows));
  }
}

ResultSet PlainExecutorBackend::Execute(const Query& query, QueryStats* stats) {
  const AttachedTable& fact = context_->catalog->Get(query.table);
  const Table* right = nullptr;
  if (query.join.has_value()) {
    right = context_->catalog->Get(query.join->right_table).plain.get();
  }
  return ExecutePlain(*fact.plain, query, *context_->cluster, right, stats);
}

// --- Paillier baseline -------------------------------------------------------

PaillierBackend::PaillierBackend(const ExecutionContext* context,
                                 const PaillierBackendOptions& options)
    : context_(context),
      rng_(options.seed),
      paillier_(Paillier::GenerateKey(rng_, options.modulus_bits)),
      randomness_pool_size_(options.randomness_pool_size) {}

void PaillierBackend::Prepare(AttachedTable& table) {
  const Encryptor encryptor(*context_->keys);
  table.enc = encryptor.EncryptPaillierBaseline(*table.plain, table.schema, table.plan,
                                                paillier_, rng_, randomness_pool_size_);
}

void PaillierBackend::Append(AttachedTable& table, const Table& new_rows,
                             JobStats* stats) {
  // The baseline has no incremental path (Paillier construction dominates
  // anyway — Table 1); grow the plaintext table and re-encrypt it. The
  // modeled ingest job prices that full rebuild, so the whole table counts
  // as the task set.
  Stopwatch sw;
  GrowPlainTable(*table.plain, new_rows);
  Prepare(table);
  if (stats != nullptr) {
    *stats = ModelIngestJob(*context_->cluster, sw.ElapsedSeconds(), IngestTasks(*table.plain));
  }
}

ResultSet PaillierBackend::Execute(const Query& query, QueryStats* stats) {
  const AttachedTable& fact = context_->catalog->Get(query.table);
  SEABED_CHECK_MSG(fact.enc.has_value(), "table " << fact.name << " was not prepared");

  Stopwatch translate_sw;
  TranslatorOptions topts = context_->translator;
  topts.cluster_workers = context_->cluster->num_workers();
  topts.enable_group_inflation = false;  // a Seabed-only optimization
  const Translator translator(*fact.enc, *context_->keys);
  const TranslatedQuery tq = translator.Translate(query, topts);

  const EncryptedDatabase* right_db = nullptr;
  const Table* right_table = nullptr;
  if (tq.server.join.has_value()) {
    const AttachedTable& right = context_->catalog->Get(query.join->right_table);
    SEABED_CHECK_MSG(right.enc.has_value(), "joined table " << right.name << " not prepared");
    right_db = &*right.enc;
    right_table = right.enc->table.get();
  }
  const double translate_seconds = translate_sw.ElapsedSeconds();

  const PaillierBaseline baseline(paillier_, context_->keys);
  ResultSet result =
      baseline.Execute(*fact.enc, tq, *context_->cluster, right_db, right_table, stats);
  if (stats != nullptr) {
    stats->translate_seconds = translate_seconds;
  }
  return result;
}

std::unique_ptr<Executor> MakeExecutor(BackendKind kind, const ExecutionContext* context,
                                       const PaillierBackendOptions& paillier_options,
                                       size_t shards, size_t result_cache_bytes) {
  switch (kind) {
    case BackendKind::kPlain:
      return std::make_unique<PlainExecutorBackend>(context);
    case BackendKind::kSeabed:
      // The paper's single server: the sharded engine at one shard.
      return std::make_unique<ShardedSeabedBackend>(context, 1, BackendKindName(kind),
                                                    result_cache_bytes);
    case BackendKind::kPaillier:
      return std::make_unique<PaillierBackend>(context, paillier_options);
    case BackendKind::kShardedSeabed:
      return std::make_unique<ShardedSeabedBackend>(context, shards, BackendKindName(kind),
                                                    result_cache_bytes);
  }
  SEABED_CHECK_MSG(false, "unknown backend kind");
  return nullptr;
}

}  // namespace seabed
