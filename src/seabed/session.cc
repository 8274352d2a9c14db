#include "src/seabed/session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace seabed {

namespace {

// The batch fan-out behind ExecuteBatch and ExecutePreparedBatch: runs
// `run_one(i, stats_i)` for every i < n on its own pool, sized to the batch
// and the host. Results are identical to serial calls, but concurrent
// queries share the host's cores, so the measured per-task compute feeding
// QueryStats includes cross-query interference — batch stats trade latency
// fidelity for throughput.
template <typename RunOne>
std::vector<ResultSet> RunBatch(size_t n, std::vector<QueryStats>* stats, RunOne run_one) {
  std::vector<ResultSet> results(n);
  if (stats != nullptr) {
    stats->assign(n, QueryStats{});
  }
  if (n == 0) {
    return results;
  }
  ThreadPool pool(
      std::min(n, static_cast<size_t>(std::max(1u, std::thread::hardware_concurrency()))));
  pool.ParallelFor(n, [&](size_t i) {
    results[i] = run_one(i, stats != nullptr ? &(*stats)[i] : nullptr);
  });
  return results;
}

}  // namespace

Session::Session(SessionOptions options)
    : options_(std::move(options)), keys_(ClientKeys::FromSeed(options_.key_seed)) {
  if (options_.external_cluster == nullptr) {
    own_cluster_ = std::make_unique<Cluster>(options_.cluster);
  }
  context_.catalog = &catalog_;
  context_.keys = &keys_;
  context_.cluster =
      options_.external_cluster != nullptr ? options_.external_cluster : own_cluster_.get();
  context_.translator = options_.translator;
  context_.probe = options_.probe;
  context_.rebalance = options_.shards_rebalance;
  context_.placement = options_.shards_placement;
  executor_ = MakeExecutor(options_.backend, &context_, options_.paillier, options_.shards,
                           options_.result_cache_bytes);
}

Session::~Session() = default;

void Session::Attach(std::shared_ptr<Table> table, const PlainSchema& schema,
                     const std::vector<Query>& sample_queries) {
  AttachPlanned(std::move(table), schema,
                PlanEncryption(schema, sample_queries, options_.planner));
}

void Session::AttachPlanned(std::shared_ptr<Table> table, const PlainSchema& schema,
                            EncryptionPlan plan) {
  SEABED_CHECK_MSG(table != nullptr, "Attach requires a table");
  AttachedTable attached;
  attached.name = schema.table_name;
  attached.plain = std::move(table);
  attached.schema = schema;
  attached.plan = std::move(plan);
  executor_->Prepare(catalog_.Add(std::move(attached)));
}

void Session::Append(const std::string& table, const Table& new_rows, JobStats* stats) {
  // Backends own the growth policy: encrypted tables share the non-sensitive
  // plaintext columns with the attached table, so who appends what depends
  // on the backend (see Executor::Append).
  executor_->Append(catalog_.GetMutable(table), new_rows, stats);
}

ResultSet Session::Execute(const Query& query, QueryStats* stats) {
  return executor_->Execute(query, stats);
}

PreparedQuery Session::Prepare(const Query& shape) const {
  const AttachedTable& fact = catalog_.Get(shape.table);  // aborts when unattached
  const size_t num_params = shape.num_params();

  // Slots must be contiguous and unique: BindParams positions values by
  // slot, so a gap or duplicate is a client bug worth failing loudly at
  // Prepare time rather than silently mis-binding at execution time.
  std::vector<char> seen(num_params, 0);
  bool parameterized = true;
  for (const Predicate& p : shape.filters) {
    if (p.param < 0) {
      continue;
    }
    SEABED_CHECK_MSG(!seen[static_cast<size_t>(p.param)],
                     "Prepare: placeholder slot " << p.param << " used twice");
    seen[static_cast<size_t>(p.param)] = 1;
    // SPLASHE rewrites depend on the literal value (splayed vs. "others"
    // columns), so such a shape cannot be translated once; mark the handle
    // for the bind-then-ad-hoc fallback.
    if (p.column.rfind("right:", 0) != 0 && fact.plan.FindSplashe(p.column) != nullptr) {
      parameterized = false;
    }
  }
  for (size_t slot = 0; slot < num_params; ++slot) {
    SEABED_CHECK_MSG(seen[slot], "Prepare: placeholder slots are not contiguous (slot "
                                     << slot << " of " << num_params << " is unused)");
  }

  auto state = std::make_shared<PreparedQuery::State>();
  state->shape = shape;
  state->shape_key = shape.Fingerprint(Query::FingerprintMode::kShape);
  state->plan_key_base = shape.Fingerprint(Query::FingerprintMode::kExact);
  state->num_params = num_params;
  state->parameterized = parameterized;
  return PreparedQuery(std::move(state));
}

ResultSet Session::Execute(const PreparedQuery& prepared, std::span<const Value> params,
                           QueryStats* stats) {
  return executor_->ExecutePrepared(prepared, params, stats);
}

std::vector<ResultSet> Session::ExecutePreparedBatch(
    const PreparedQuery& prepared, std::span<const std::vector<Value>> param_sets,
    std::vector<QueryStats>* stats) {
  return RunBatch(param_sets.size(), stats, [&](size_t i, QueryStats* query_stats) {
    return executor_->ExecutePrepared(prepared, param_sets[i], query_stats);
  });
}

std::vector<ResultSet> Session::ExecuteBatch(std::span<const Query> queries,
                                             std::vector<QueryStats>* stats) {
  return RunBatch(queries.size(), stats, [&](size_t i, QueryStats* query_stats) {
    return executor_->Execute(queries[i], query_stats);
  });
}

void Session::UseCluster(const Cluster* cluster) {
  if (cluster != nullptr) {
    context_.cluster = cluster;
    return;
  }
  if (own_cluster_ == nullptr) {
    own_cluster_ = std::make_unique<Cluster>(options_.cluster);
  }
  context_.cluster = own_cluster_.get();
}

void Session::set_translator_options(const TranslatorOptions& options) {
  context_.translator = options;
}

void Session::set_probe_options(const ProbeOptions& options) { context_.probe = options; }

const EncryptionPlan& Session::plan(const std::string& table) const {
  return catalog_.Get(table).plan;
}

const EncryptedDatabase& Session::encrypted_database(const std::string& table) const {
  const AttachedTable& attached = catalog_.Get(table);
  SEABED_CHECK_MSG(attached.enc.has_value(),
                   "backend " << BackendKindName(options_.backend)
                              << " keeps no encrypted database for " << table);
  return *attached.enc;
}

}  // namespace seabed
