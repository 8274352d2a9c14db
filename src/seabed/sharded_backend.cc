#include "src/seabed/sharded_backend.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/seabed/client.h"
#include "src/seabed/placement.h"
#include "src/seabed/planner.h"
#include "src/seabed/probe.h"

namespace seabed {
namespace {

// Shards encrypt into disjoint ASHE identifier spaces: shard s starts at
// 1 + s * kShardIdStride. The stride leaves each shard ~10^12 identifiers of
// headroom, so appends keep growing a shard's contiguous run without ever
// reaching the next shard's space.
constexpr uint64_t kShardIdStride = uint64_t{1} << 40;

uint64_t ShardBaseId(size_t shard) { return 1 + shard * kShardIdStride; }

// Entry budget of the translated-plan cache.
constexpr size_t kPlanCacheEntries = 4096;

// Rough client-memory footprint of a cached ResultSet, the result cache's
// cost unit (value payloads plus per-row and per-string overheads).
size_t EstimateResultBytes(const ResultSet& result) {
  size_t bytes = sizeof(ResultSet);
  for (const std::string& name : result.column_names) {
    bytes += sizeof(std::string) + name.size();
  }
  for (const auto& row : result.rows) {
    bytes += sizeof(row) + row.size() * sizeof(Value);
    for (const Value& v : row) {
      if (const auto* s = std::get_if<std::string>(&v)) {
        bytes += s->size();
      }
    }
  }
  return bytes;
}

// Result-cache key: the ids of the pinned fact and right-side versions (0
// without a join) as a fixed-width prefix, then the bound query's exact
// fingerprint.
std::string ResultCacheKey(const Query& query, uint64_t fact_version, uint64_t right_version) {
  std::string key(2 * sizeof(uint64_t), '\0');
  std::memcpy(key.data(), &fact_version, sizeof(uint64_t));
  std::memcpy(key.data() + sizeof(uint64_t), &right_version, sizeof(uint64_t));
  key += query.Fingerprint(Query::FingerprintMode::kExact);
  return key;
}

// Copies the selected rows of a plaintext table into a fresh table (fresh
// columns — sub-tables must not alias the attached table, whose columns the
// full replica shares).
std::shared_ptr<Table> SubsetRows(const Table& src, const std::string& name,
                                  const std::vector<size_t>& rows) {
  auto out = std::make_shared<Table>(name);
  for (const std::string& col_name : src.column_names()) {
    const ColumnPtr& col = src.GetColumn(col_name);
    if (col->type() == ColumnType::kInt64) {
      const auto* s = static_cast<const Int64Column*>(col.get());
      auto c = std::make_shared<Int64Column>();
      for (const size_t row : rows) {
        c->Append(s->Get(row));
      }
      out->AddColumn(col_name, std::move(c));
    } else {
      SEABED_CHECK_MSG(col->type() == ColumnType::kString,
                       "sharding supports plaintext int/string columns only (" << col_name << ")");
      const auto* s = static_cast<const StringColumn*>(col.get());
      auto c = std::make_shared<StringColumn>();
      for (const size_t row : rows) {
        c->Append(s->Get(row));
      }
      out->AddColumn(col_name, std::move(c));
    }
  }
  return out;
}

void MergeDictionaries(const EncryptedDatabase& from, EncryptedDatabase& into) {
  for (const auto& [col, dict] : from.det_dictionaries) {
    into.det_dictionaries[col].insert(dict.begin(), dict.end());
  }
  into.det_value_types.insert(from.det_value_types.begin(), from.det_value_types.end());
}

// Makes rebalance successor `next` own shard `s`'s part objects (plaintext,
// encrypted, probe index seeded from the shared one) before they grow;
// `rebuilt[s]` marks shards it already owns.
void OwnShard(ShardedTableVersion& next, size_t s, std::vector<char>& rebuilt) {
  if (rebuilt[s]) {
    return;
  }
  next.plain_parts[s] = DeepCopyTable(*next.plain_parts[s]);
  next.parts[s].table = DeepCopyTable(*next.parts[s].table);  // dictionaries are by value
  auto probe = std::make_shared<VersionProbeIndex>();
  probe->SeedFrom(*next.probes[s], *next.parts[s].table);
  next.probes[s] = std::move(probe);
  rebuilt[s] = 1;
}

// The coordinator merge: combines per-shard encrypted responses without any
// key material. Groups union-merge by serialized key, in first-seen order;
// within a group, ASHE sums add ciphertext-side, counts add, and ORE min/max
// reduce. Every shard's ID-list sections pass through with their bytes
// intact, their group ordinals remapped to the merged groups (identifier
// spaces are disjoint, and the client adds a group's pads across sections).
// Timing fields model the shards running in parallel (max), byte counts add.
// The caller adds the measured merge wall-clock to `driver_seconds`.
EncryptedResponse MergeShardResponses(const ServerPlan& plan,
                                      std::vector<EncryptedResponse>& parts) {
  EncryptedResponse out;
  std::vector<JobStats> jobs;
  jobs.reserve(parts.size());
  std::unordered_map<std::string, uint32_t> ordinal_of_key;
  std::vector<uint32_t> remap;
  for (EncryptedResponse& part : parts) {
    jobs.push_back(part.job);
    out.driver_seconds = std::max(out.driver_seconds, part.driver_seconds);
    out.shuffle_seconds = std::max(out.shuffle_seconds, part.shuffle_seconds);
    out.shuffle_bytes += part.shuffle_bytes;
    out.rows_touched += part.rows_touched;
    remap.resize(part.groups.size());
    for (size_t j = 0; j < part.groups.size(); ++j) {
      ServerGroup& group = part.groups[j];
      const auto [it, inserted] =
          ordinal_of_key.try_emplace(group.key, static_cast<uint32_t>(out.groups.size()));
      remap[j] = it->second;
      if (inserted) {
        out.groups.push_back(std::move(group));
        continue;
      }
      ServerGroup& dst = out.groups[it->second];
      for (size_t a = 0; a < plan.aggregates.size(); ++a) {
        dst.aggs[a].MergeFrom(plan.aggregates[a].kind, group.aggs[a]);
      }
    }
    for (IdListSection& section : part.id_sections) {
      for (uint32_t& g : section.groups) {
        g = remap[g];
      }
      if (section.groups.empty()) {
        section.groups = remap;  // the part's identity mapping
      }
      out.id_sections.push_back(std::move(section));
    }
  }
  for (IdListSection& section : out.id_sections) {
    section.CompactGroups(out.groups.size());
  }
  out.job = MergeParallelJobs(jobs);
  out.response_bytes = out.PayloadBytes();
  return out;
}

}  // namespace

ShardedSeabedBackend::ShardedSeabedBackend(const ExecutionContext* context, size_t shards,
                                           const char* name, size_t result_cache_bytes)
    : context_(context),
      shards_(shards),
      name_(name),
      can_rebalance_(context->rebalance.enabled && shards >= 2),
      plan_cache_(kPlanCacheEntries),
      result_cache_(result_cache_bytes > 0 ? std::make_unique<ResultCache>(result_cache_bytes)
                                           : nullptr),
      servers_(shards),
      pool_(std::min<size_t>(std::max<size_t>(shards, 1),
                             std::max<unsigned>(1, std::thread::hardware_concurrency()))) {
  SEABED_CHECK_MSG(shards_ >= 1, "a sharded backend needs at least one shard");
}

size_t ShardedSeabedBackend::ShardOfRow(size_t row) const {
  // Multiplicative hash so placement cannot correlate with data order.
  return Placement::HashShardOfRow(row, shards_);
}

ShardedSeabedBackend::TableState& ShardedSeabedBackend::StateFor(const std::string& table) {
  std::lock_guard<std::mutex> lock(states_mu_);
  std::unique_ptr<TableState>& slot = states_[table];
  if (slot == nullptr) {
    slot = std::make_unique<TableState>();
  }
  return *slot;
}

const ShardedTableVersion* ShardedSeabedBackend::CurrentVersion(const std::string& table) const {
  std::lock_guard<std::mutex> lock(states_mu_);
  const auto it = states_.find(table);
  if (it == states_.end()) {
    return nullptr;
  }
  return it->second->current.load(std::memory_order_seq_cst);
}

void ShardedSeabedBackend::Publish(TableState& state,
                                   std::shared_ptr<ShardedTableVersion> next) {
  next->version_id = ++last_version_id_;
  std::shared_ptr<const ShardedTableVersion> old = std::move(state.owner);
  state.owner = std::move(next);
  state.current.store(state.owner.get(), std::memory_order_seq_cst);
  if (old != nullptr) {
    epochs_.Retire(std::move(old));
  }
}

std::optional<RebalanceStats> ShardedSeabedBackend::rebalance_stats() const {
  // Append mutates the counters under the writer mutex; snapshot under the
  // same one so monitors can poll between appends.
  std::lock_guard<std::mutex> lock(writer_mu_);
  return rebalance_stats_;
}

const Server& ShardedSeabedBackend::shard_server(size_t shard) const {
  SEABED_CHECK(shard < shards_);
  return servers_[shard];
}

const EncryptedDatabase& ShardedSeabedBackend::shard_database(const std::string& table,
                                                              size_t shard) const {
  SEABED_CHECK(shard < shards_);
  EpochDomain::Guard guard(epochs_);
  const ShardedTableVersion* version = CurrentVersion(table);
  SEABED_CHECK_MSG(version != nullptr, "table " << table << " was not prepared for sharding");
  return version->parts[shard];
}

const EncryptedDatabase* ShardedSeabedBackend::replica_database(const std::string& table) const {
  EpochDomain::Guard guard(epochs_);
  const ShardedTableVersion* version = CurrentVersion(table);
  SEABED_CHECK_MSG(version != nullptr, "table " << table << " was not prepared for sharding");
  return version->replica.get();
}

std::vector<size_t> ShardedSeabedBackend::ShardRowCounts(const std::string& table) const {
  EpochDomain::Guard guard(epochs_);
  const ShardedTableVersion* version = CurrentVersion(table);
  SEABED_CHECK_MSG(version != nullptr, "table " << table << " was not prepared for sharding");
  std::vector<size_t> counts(shards_);
  for (size_t s = 0; s < shards_; ++s) {
    counts[s] = version->parts[s].table->NumRows();
  }
  return counts;
}

void ShardedSeabedBackend::EnsureReplica(const AttachedTable& right) {
  {
    EpochDomain::Guard guard(epochs_);
    const ShardedTableVersion* version = CurrentVersion(right.name);
    SEABED_CHECK_MSG(version != nullptr, "joined table " << right.name << " not prepared");
    if (version->replica != nullptr) {
      return;
    }
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  TableState& state = StateFor(right.name);
  if (state.owner->replica != nullptr) {
    return;  // a racing query built it while we waited for the writer mutex
  }
  // The replica shares column keys with the shard partitions, so it must
  // occupy its own identifier space — it lives just above the last shard's.
  // Reusing a shard's base would repeat ASHE pads across two ciphertexts of
  // different plaintexts, leaking their difference. Built from the attached
  // plaintext table, which the writer mutex keeps in sync with the published
  // version, and published as a successor version that shares every part.
  const Encryptor encryptor(*context_->keys);
  auto next = std::make_shared<ShardedTableVersion>(*state.owner);
  next->replica = std::make_shared<const EncryptedDatabase>(encryptor.EncryptWithBaseId(
      *right.plain, right.schema, right.plan, ShardBaseId(shards_)));
  Publish(state, std::move(next));
}

void ShardedSeabedBackend::Prepare(AttachedTable& table) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const Encryptor encryptor(*context_->keys);
  auto version = std::make_shared<ShardedTableVersion>();
  // Slots 0..shards-1 belong to the shard partitions, slot `shards_` to the
  // lazily built join replica; rebalancing allocates fresh slots from here.
  version->next_id_slot = shards_ + 1;

  // Partition the rows under the session's placement policy (hash by
  // default; contiguous clustering-key quantiles for tables configured
  // kKeyRange). The policy and its boundary metadata become part of the
  // published version, so routing and later appends read placement state
  // consistent with the parts they touch. One shard holds every row: there
  // is nothing to partition or route, so it places by hash.
  const Placement placement =
      shards_ == 1 ? Placement(PlacementPolicy::kHash, "", 1)
                   : Placement::Resolve(context_->placement, table.name, *table.plain, shards_);
  std::vector<std::vector<size_t>> assignment;
  if (shards_ > 1) {
    assignment = placement.PartitionRows(*table.plain);
  }
  version->placement = placement.policy();
  version->clustering_column = placement.clustering_column();
  version->boundaries = placement.InitialBoundaries(*table.plain, assignment);

  if (can_rebalance_) {
    version->plain_parts.resize(shards_);
  }
  version->parts.resize(shards_);
  version->probes.resize(shards_);
  // Shard encryptions are independent (shared inputs are const) — build
  // them concurrently on the fan-out pool so attach cost does not grow
  // linearly with the shard count. A lone shard encrypts the attached table
  // itself; otherwise each shard's rows are copied out first, and that copy
  // is kept only when rebalancing may re-encrypt from it.
  pool_.ParallelFor(shards_, [&](size_t s) {
    if (shards_ == 1) {
      version->parts[s] = encryptor.EncryptWithBaseId(*table.plain, table.schema, table.plan,
                                                      ShardBaseId(s));
      return;
    }
    std::shared_ptr<Table> rows =
        SubsetRows(*table.plain, table.name + "#shard" + std::to_string(s), assignment[s]);
    version->parts[s] =
        encryptor.EncryptWithBaseId(*rows, table.schema, table.plan, ShardBaseId(s));
    if (can_rebalance_) {
      version->plain_parts[s] = std::move(rows);
    }
  });
  for (size_t s = 0; s < shards_; ++s) {
    version->probes[s] = std::make_shared<VersionProbeIndex>();
  }

  // The client-side view of a multi-shard table: one plan (identical across
  // shards) plus the union of the shards' DET dictionaries, so group keys
  // produced by any shard render back to plaintext.
  if (shards_ > 1) {
    version->view.plan = version->parts.front().plan;
    version->view.table = version->parts.front().table;
    for (const EncryptedDatabase& part : version->parts) {
      MergeDictionaries(part, version->view);
    }
  }
  table.enc = version->ClientView();

  Publish(StateFor(table.name), std::move(version));
}

void ShardedSeabedBackend::Append(AttachedTable& table, const Table& new_rows,
                                  JobStats* stats) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  Stopwatch append_sw;
  TableState& state = StateFor(table.name);
  const std::shared_ptr<const ShardedTableVersion> old = state.owner;
  SEABED_CHECK_MSG(old != nullptr, "append to unprepared table " << table.name);
  const Encryptor encryptor(*context_->keys);
  const size_t prior_rows = table.plain->NumRows();

  // Successor version: structural sharing for everything, then replace just
  // the pieces this append touches. Readers pinned on `old` see none of it.
  auto next = std::make_shared<ShardedTableVersion>(*old);

  // A replica, once built, stays consistent with its version: copy and grow.
  if (old->replica != nullptr) {
    auto replica = std::make_shared<EncryptedDatabase>(CopyEncryptedDatabase(*old->replica));
    encryptor.AppendRows(*replica, new_rows, table.schema);
    next->replica = std::move(replica);
  }

  // The attached plaintext table has no snapshot readers (encrypted Execute
  // never touches it); grow it in place for the session's own accessors.
  GrowPlainTable(*table.plain, new_rows);

  // Row→shard assignment is the placement policy's call. Hash placement
  // keeps append locality: the whole batch lands on the shard that owns its
  // first global row — one encryption stream per batch, the way
  // log-structured ingest appends land in one partition (a skewed stream of
  // batches can therefore concentrate rows on few shards; MaybeRebalance
  // repairs that when SessionOptions::shards_rebalance says to). Key-range
  // placement splits the batch by owning range against the parent version's
  // boundaries, widening the destination shards' boundaries to cover their
  // new keys. Only destination shards are copied; everything else stays
  // structurally shared with `old`.
  const Placement placement(old->placement, old->clustering_column, shards_);
  const std::vector<std::vector<size_t>> assignment =
      placement.AssignAppend(new_rows, prior_rows, old->boundaries);
  std::vector<char> rebuilt(shards_, 0);
  for (size_t dest = 0; dest < shards_; ++dest) {
    if (assignment[dest].empty()) {
      continue;
    }
    // The whole-batch case (always under hash) appends `new_rows` directly —
    // the same encryption stream as before placement was pluggable.
    std::shared_ptr<Table> owned;
    const Table* segment = &new_rows;
    if (assignment[dest].size() != new_rows.NumRows()) {
      owned = SubsetRows(new_rows, table.name + "#append", assignment[dest]);
      segment = owned.get();
    }
    if (can_rebalance_) {
      next->plain_parts[dest] = DeepCopyTable(*old->plain_parts[dest]);
      GrowPlainTable(*next->plain_parts[dest], *segment);
    }
    // `next` already holds the part's plan and dictionaries by value; only
    // its table is still shared with `old`.
    next->parts[dest].table = DeepCopyTable(*old->parts[dest].table);
    encryptor.AppendRows(next->parts[dest], *segment, table.schema);
    auto dest_probe = std::make_shared<VersionProbeIndex>();
    dest_probe->SeedFrom(*old->probes[dest], *next->parts[dest].table);
    next->probes[dest] = std::move(dest_probe);
    if (old->placement == PlacementPolicy::kKeyRange) {
      placement.WidenBoundary(new_rows, assignment[dest], next->boundaries[dest]);
    }
    rebuilt[dest] = 1;
  }

  // Appends may mint new DET tokens (dictionary growth); refresh the merged
  // view of a multi-shard table.
  if (shards_ > 1) {
    for (size_t dest = 0; dest < shards_; ++dest) {
      if (rebuilt[dest]) {
        MergeDictionaries(next->parts[dest], next->view);
      }
    }
  }
  const double encrypt_seconds = append_sw.ElapsedSeconds();
  const uint64_t moved_before = rebalance_stats_.rows_moved;
  MaybeRebalance(table, *next, encryptor, rebuilt);
  if (shards_ > 1) {
    next->view.table = next->parts.front().table;  // append or rebalance may replace part 0
  }

  SEABED_CHECK(table.enc.has_value());
  table.enc = next->ClientView();  // session-visible client view
  if (stats != nullptr) {
    // The ingest prices as two fabric stages, mirroring how the real system
    // would run it: an encrypt-and-append job over the batch's row ranges,
    // then — when the skew trigger fired — a migration stage whose moved
    // row-groups additionally shuffle to their recipient shards.
    const Cluster& cluster = *context_->cluster;
    *stats = ModelIngestJob(cluster, encrypt_seconds,
                            (new_rows.NumRows() + 8191) / 8192);
    const uint64_t moved = rebalance_stats_.rows_moved - moved_before;
    if (moved > 0) {
      const double migrate_seconds = append_sw.ElapsedSeconds() - encrypt_seconds;
      JobStats migrate = ModelIngestJob(cluster, migrate_seconds, (moved + 8191) / 8192);
      const size_t moved_bytes = moved * new_rows.column_names().size() * sizeof(int64_t);
      migrate.server_seconds += cluster.ShuffleSeconds(moved_bytes, /*num_reducers=*/1);
      stats->server_seconds += migrate.server_seconds;
      stats->total_compute_seconds += migrate.total_compute_seconds;
      stats->num_tasks += migrate.num_tasks;
    }
  }
  Publish(state, std::move(next));
}

void ShardedSeabedBackend::MaybeRebalance(const AttachedTable& table, ShardedTableVersion& next,
                                          const Encryptor& encryptor,
                                          std::vector<char>& rebuilt) {
  if (!can_rebalance_) {
    return;
  }
  const ShardRebalanceOptions& opts = context_->rebalance;
  const size_t group = std::max<size_t>(1, opts.row_group_size);

  std::vector<size_t> counts(shards_);
  size_t total = 0;
  for (size_t s = 0; s < shards_; ++s) {
    counts[s] = next.plain_parts[s]->NumRows();
    total += counts[s];
  }
  if (total == 0) {
    return;
  }
  const double ideal = static_cast<double>(total) / static_cast<double>(shards_);
  // Below one whole row-group of surplus there is nothing movable, whatever
  // the ratio says.
  const double trigger = std::max(ideal * opts.max_skew_ratio, ideal + static_cast<double>(group));
  if (next.placement == PlacementPolicy::kKeyRange) {
    // Key-range tables rebalance by boundary moves between key-space
    // neighbors — migrating arbitrary row-groups anywhere would shred the
    // contiguous owning ranges routing depends on.
    MaybeRebalanceKeyRange(table, next, encryptor, rebuilt, std::move(counts), ideal, trigger);
    return;
  }

  // Plan the moves on row counts first (cheap), then execute with a single
  // donor re-encryption per donor. Every move carves whole row-groups off
  // the donor's current tail — the cut lands on a boundary of the donor's
  // local group grid, so moved units are exactly the groups a probe index
  // summarizes. A shard never plays both roles: a donor turned recipient
  // would invalidate the tail arithmetic below.
  struct Move {
    size_t donor = 0;
    size_t recipient = 0;
    size_t rows = 0;
  };
  std::vector<Move> moves;
  std::vector<char> was_donor(shards_, 0), was_recipient(shards_, 0);
  for (size_t iter = 0; iter < shards_ * 8; ++iter) {
    const size_t donor =
        std::max_element(counts.begin(), counts.end()) - counts.begin();
    const size_t recipient =
        std::min_element(counts.begin(), counts.end()) - counts.begin();
    if (donor == recipient || static_cast<double>(counts[donor]) <= trigger ||
        was_recipient[donor] || was_donor[recipient]) {
      break;
    }
    const size_t surplus = counts[donor] - static_cast<size_t>(ideal);
    const size_t deficit = static_cast<size_t>(ideal) > counts[recipient]
                               ? static_cast<size_t>(ideal) - counts[recipient]
                               : 0;
    const size_t want = std::min(surplus, std::max(deficit, group));
    // The donor's tail partial group moves first, then whole groups.
    size_t rows = counts[donor] % group;
    while (rows + group <= want) {
      rows += group;
    }
    if (rows == 0) {
      rows = std::min(counts[donor], group);
    }
    if (rows >= counts[donor] || counts[recipient] + rows >= counts[donor] - rows + group) {
      break;  // never empty a shard or mint a new hotspot
    }
    moves.push_back({donor, recipient, rows});
    was_donor[donor] = 1;
    was_recipient[recipient] = 1;
    counts[donor] -= rows;
    counts[recipient] += rows;
  }
  if (moves.empty()) {
    return;
  }

  Stopwatch sw;
  rebalance_stats_.rebalances += 1;
  std::vector<size_t> tail(shards_);  // donor cut position, walks toward 0
  for (size_t s = 0; s < shards_; ++s) {
    tail[s] = next.plain_parts[s]->NumRows();
  }
  for (const Move& move : moves) {
    // Recipients grow, so `next` must own their part objects before the
    // first row lands (donors are only read here — replaced wholesale
    // below — and need no copy).
    OwnShard(next, move.recipient, rebuilt);
    // Re-encrypting into the recipient's identifier space is the canonical
    // append path: AppendRows continues the recipient's contiguous ASHE run,
    // so identifier spaces stay disjoint and merge semantics are untouched.
    // The recipient's seeded probe summaries lag the migrated tail; the
    // version's first probe re-syncs them (VersionProbeIndex::Probe).
    std::vector<size_t> rows(move.rows);
    std::iota(rows.begin(), rows.end(), tail[move.donor] - move.rows);
    const auto segment =
        SubsetRows(*next.plain_parts[move.donor], table.name + "#migrate", rows);
    GrowPlainTable(*next.plain_parts[move.recipient], *segment);
    encryptor.AppendRows(next.parts[move.recipient], *segment, table.schema);
    tail[move.donor] -= move.rows;
    rebalance_stats_.rows_moved += move.rows;
    rebalance_stats_.row_groups_moved += (move.rows + group - 1) / group;
  }
  for (size_t s = 0; s < shards_; ++s) {
    if (!was_donor[s]) {
      continue;
    }
    // The donor's remainder re-encrypts into a fresh identifier-space slot.
    // This costs O(remaining rows) per donor, but the cheap alternative —
    // truncating the donor in place, which would keep the prefix
    // ciphertexts unchanged — is unsafe: later appends would re-mint the
    // truncated tail's identifiers (ids are base + row) for different
    // plaintexts, repeating ASHE pads an adversary who recorded the old
    // upload could subtract to learn plaintext differences.
    std::vector<size_t> kept(tail[s]);
    std::iota(kept.begin(), kept.end(), size_t{0});
    auto remainder = SubsetRows(*next.plain_parts[s],
                                table.name + "#shard" + std::to_string(s), kept);
    next.parts[s] = encryptor.EncryptWithBaseId(*remainder, table.schema, table.plan,
                                                ShardBaseId(next.next_id_slot++));
    next.plain_parts[s] = std::move(remainder);
    // A fresh table object gets a fresh (empty) probe index: summaries of
    // the old object can never leak onto the re-encrypted one, the stale-
    // summary class of bug PR 5 fixed by registry resets.
    next.probes[s] = std::make_shared<VersionProbeIndex>();
    rebuilt[s] = 1;
    rebalance_stats_.rows_reencrypted += tail[s];
  }
  rebalance_stats_.seconds += sw.ElapsedSeconds();
}

void ShardedSeabedBackend::MaybeRebalanceKeyRange(const AttachedTable& table,
                                                  ShardedTableVersion& next,
                                                  const Encryptor& encryptor,
                                                  std::vector<char>& rebuilt,
                                                  std::vector<size_t> counts, double ideal,
                                                  double trigger) {
  const size_t group = std::max<size_t>(1, context_->rebalance.row_group_size);
  const Placement placement(PlacementPolicy::kKeyRange, next.clustering_column, shards_);

  // Plan boundary moves on row counts (deterministic — same trigger
  // arithmetic as the hash arm). The recipient is constrained to a key-space
  // neighbor of the donor: shard index order IS key order under key-range
  // placement (attach assigns quantiles in index order and appends preserve
  // range disjointness), so donor s sheds its lowest keys to s-1 or its
  // highest to s+1 and every owning range stays contiguous.
  //
  // Unlike the hash arm, moves CASCADE: a hot-tail append stream piles
  // everything onto one edge shard, and a single neighbor hop per pass can
  // never carry the surplus past that neighbor — the fleet diverges. So a
  // recipient may itself donate onward (3→2 then 2→1 in one pass), the only
  // exclusion being the reversal of an earlier move's pair, which would
  // ping-pong the same segment. Segments are always drawn from a shard's
  // PRE-PASS rows: cascaded donations at a shard's far end never contain
  // keys it received this pass (neighbor ranges are disjoint and ordered),
  // so the planned `taken` budget below keeps every slice valid.
  struct Move {
    size_t donor = 0;
    size_t recipient = 0;
    size_t rows = 0;
    bool low_end = false;  // true: donor's smallest keys move (left neighbor)
  };
  std::vector<Move> moves;
  const std::vector<size_t> orig_counts = counts;
  std::vector<size_t> taken(shards_, 0);  // pre-pass rows already promised away
  std::vector<char> was_donor(shards_, 0), was_recipient(shards_, 0);
  std::vector<char> paired(shards_ * shards_, 0);  // donor*shards_+recipient
  for (size_t iter = 0; iter < shards_ * 8; ++iter) {
    const size_t donor =
        std::max_element(counts.begin(), counts.end()) - counts.begin();
    if (static_cast<double>(counts[donor]) <= trigger) {
      break;
    }
    // The lighter of the donor's eligible neighbors takes the segment
    // (left on a tie — deterministic). A neighbor is eligible when it is
    // lighter than the donor and the reverse pair hasn't moved this pass.
    size_t recipient = shards_;
    bool low_end = false;
    if (donor > 0 && counts[donor - 1] < counts[donor] &&
        !paired[(donor - 1) * shards_ + donor]) {
      recipient = donor - 1;
      low_end = true;
    }
    if (donor + 1 < shards_ && counts[donor + 1] < counts[donor] &&
        !paired[(donor + 1) * shards_ + donor] &&
        (recipient == shards_ || counts[donor + 1] < counts[recipient])) {
      recipient = donor + 1;
      low_end = false;
    }
    if (recipient == shards_) {
      break;
    }
    const size_t surplus = counts[donor] - static_cast<size_t>(ideal);
    const size_t deficit = static_cast<size_t>(ideal) > counts[recipient]
                               ? static_cast<size_t>(ideal) - counts[recipient]
                               : 0;
    size_t rows = std::min(surplus, std::max(deficit, group));
    if (rows == 0) {
      rows = std::min(counts[donor], group);
    }
    if (rows + taken[donor] >= orig_counts[donor] || rows >= counts[donor] ||
        counts[recipient] + rows >= counts[donor] - rows + group) {
      break;  // never drain a shard's pre-pass rows or mint a new hotspot
    }
    moves.push_back({donor, recipient, rows, low_end});
    was_donor[donor] = 1;
    was_recipient[recipient] = 1;
    paired[donor * shards_ + recipient] = 1;
    taken[donor] += rows;
    counts[donor] -= rows;
    counts[recipient] += rows;
  }
  if (moves.empty()) {
    return;
  }

  Stopwatch sw;
  rebalance_stats_.rebalances += 1;
  // Per-donor key order over the shard's PRE-PASS rows (ties broken by row
  // index — deterministic) with two cursors: a donor may shed its low end to
  // the left neighbor and its high end to the right in the same pass. Rows a
  // cascading shard receives this pass land past orig_counts (GrowPlainTable
  // appends) and so never enter its order — matching the planner's `taken`
  // budget, which only promised away pre-pass rows.
  std::vector<std::vector<size_t>> key_order(shards_);
  std::vector<size_t> low_taken(shards_, 0), high_taken(shards_, 0);
  for (const Move& move : moves) {
    std::vector<size_t>& order = key_order[move.donor];
    if (order.empty()) {
      const Table& part = *next.plain_parts[move.donor];
      order.resize(orig_counts[move.donor]);
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const int64_t ka = placement.KeyAt(part, a), kb = placement.KeyAt(part, b);
        return ka != kb ? ka < kb : a < b;
      });
    }
    OwnShard(next, move.recipient, rebuilt);
    // The boundary segment: the donor's `rows` smallest (or largest) not-yet-
    // taken keys, restored to row order so the moved slice keeps its relative
    // time order inside the recipient. Re-encrypting into the recipient's
    // identifier space is the canonical append path, as in the hash arm — but
    // a recipient that donates onward re-encrypts wholesale below, so feeding
    // its encrypted side here would be wasted work (the plain part must still
    // grow either way; it is the source of truth for the re-encryption).
    std::vector<size_t> segment_rows(
        move.low_end ? order.begin() + low_taken[move.donor]
                     : order.end() - high_taken[move.donor] - move.rows,
        move.low_end ? order.begin() + low_taken[move.donor] + move.rows
                     : order.end() - high_taken[move.donor]);
    (move.low_end ? low_taken : high_taken)[move.donor] += move.rows;
    std::sort(segment_rows.begin(), segment_rows.end());
    const auto segment =
        SubsetRows(*next.plain_parts[move.donor], table.name + "#migrate", segment_rows);
    GrowPlainTable(*next.plain_parts[move.recipient], *segment);
    if (!was_donor[move.recipient]) {
      encryptor.AppendRows(next.parts[move.recipient], *segment, table.schema);
    }
    placement.WidenBoundary(*next.plain_parts[move.donor], segment_rows,
                            next.boundaries[move.recipient]);
    rebalance_stats_.rows_moved += move.rows;
    rebalance_stats_.row_groups_moved += (move.rows + group - 1) / group;
  }
  for (size_t s = 0; s < shards_; ++s) {
    if (!was_donor[s]) {
      continue;
    }
    // The donor's remainder — everything between the two cursors, plus any
    // rows received this pass (appended past its pre-pass count) — re-
    // encrypts into a fresh identifier-space slot, with a fresh probe index
    // and a recomputed boundary, for exactly the reasons the hash arm
    // documents: truncation in place would re-mint retired identifiers.
    const std::vector<size_t>& order = key_order[s];
    std::vector<size_t> kept(order.begin() + low_taken[s], order.end() - high_taken[s]);
    std::sort(kept.begin(), kept.end());
    for (size_t r = orig_counts[s]; r < next.plain_parts[s]->NumRows(); ++r) {
      kept.push_back(r);
    }
    auto remainder = SubsetRows(*next.plain_parts[s],
                                table.name + "#shard" + std::to_string(s), kept);
    next.parts[s] = encryptor.EncryptWithBaseId(*remainder, table.schema, table.plan,
                                                ShardBaseId(next.next_id_slot++));
    next.boundaries[s] = placement.BoundaryOfRows(*next.plain_parts[s], kept);
    next.plain_parts[s] = std::move(remainder);
    next.probes[s] = std::make_shared<VersionProbeIndex>();
    rebuilt[s] = 1;
    rebalance_stats_.rows_reencrypted += kept.size();
  }
  rebalance_stats_.seconds += sw.ElapsedSeconds();
}

std::vector<EncryptedResponse> ShardedSeabedBackend::FanOut(const ShardedTableVersion& version,
                                                            const ServerPlan& plan,
                                                            const std::vector<bool>& active,
                                                            const Table* right) const {
  std::vector<EncryptedResponse> responses(shards_);
  pool_.ParallelFor(shards_, [&](size_t s) {
    if (active[s]) {
      responses[s] =
          servers_[s].Execute(plan, *context_->cluster, version.parts[s].table.get(), right);
    }
  });
  return responses;
}

ResultSet ShardedSeabedBackend::Execute(const Query& query, QueryStats* stats) {
  return Run(query, nullptr, {}, stats);
}

ResultSet ShardedSeabedBackend::ExecutePrepared(const PreparedQuery& prepared,
                                                std::span<const Value> params,
                                                QueryStats* stats) {
  SEABED_CHECK_MSG(prepared.valid(), "ExecutePrepared on an invalid (default) handle");
  if (!prepared.parameterized()) {
    // A placeholder rides on a SPLASHE column: its rewrite depends on the
    // literal value, so the shape cannot be translated once. Bind, then run
    // the ad-hoc path (the base implementation reports prepared/bind stats).
    return Executor::ExecutePrepared(prepared, params, stats);
  }
  return Run(prepared.shape(), &prepared, params, stats);
}

ResultSet ShardedSeabedBackend::Run(const Query& shape, const PreparedQuery* prepared,
                                    std::span<const Value> params, QueryStats* stats) {
  const AttachedTable& fact = context_->catalog->Get(shape.table);

  // A prepared call still materializes the bound Query — the probe gates
  // estimate selectivity from the literals — but it is a plain struct copy,
  // not a parse or a translation.
  double bind_seconds = 0;
  std::optional<Query> bound;
  if (prepared != nullptr) {
    Stopwatch bind_sw;
    bound = prepared->Bind(params);
    bind_seconds = bind_sw.ElapsedSeconds();
  }
  const Query& query = bound.has_value() ? *bound : shape;

  // A multi-shard join needs the right table's broadcast replica. Guarantee
  // it exists BEFORE pinning: replica presence is monotone across versions,
  // so any version pinned after EnsureReplica returns carries one consistent
  // with its own rows.
  if (shape.join.has_value() && shards_ > 1) {
    EnsureReplica(context_->catalog->Get(shape.join->right_table));
  }

  // Pin this query's snapshot: every part table, probe index and replica
  // resolved below belongs to versions published before this point and
  // stays alive until the guard drops — an overlapping append is invisible.
  EpochDomain::Guard guard(epochs_);
  const ShardedTableVersion* ver = CurrentVersion(shape.table);
  SEABED_CHECK_MSG(ver != nullptr, "table " << fact.name << " was not prepared");

  // The join's right side comes from the right table's own pinned version:
  // its lone part at one shard, else the replica every shard joins against.
  // Resolved before the cache probes because decryption needs it on plan
  // hits too, and its version id keys result hits.
  Stopwatch translate_sw;
  const ShardedTableVersion* rver = nullptr;
  const EncryptedDatabase* right_db = nullptr;
  if (shape.join.has_value()) {
    rver = CurrentVersion(shape.join->right_table);
    SEABED_CHECK_MSG(rver != nullptr,
                     "joined table " << shape.join->right_table << " not prepared");
    right_db = shards_ == 1 ? &rver->parts.front() : rver->replica.get();
    SEABED_CHECK(right_db != nullptr);
  }

  // The result cache, probed before the plan cache so a hit counts no plan
  // lookup. Its key names the pinned versions, so an entry computed before
  // an append can never answer a query pinned after it.
  std::string result_key;
  double lookup_seconds = 0;
  std::optional<QueryStats> local_stats;
  if (result_cache_ != nullptr) {
    Stopwatch lookup_sw;
    result_key = ResultCacheKey(query, ver->version_id, rver == nullptr ? 0 : rver->version_id);
    const std::shared_ptr<const CachedResult> hit = result_cache_->Find(result_key);
    if (hit != nullptr) {
      if (stats != nullptr) {
        *stats = QueryStats{};
        stats->backend = name();
        stats->cache_hit = true;
        stats->result_rows = hit->rows.rows.size();
        stats->result_bytes = hit->result_bytes;
        stats->rows_touched = hit->rows_touched;
        stats->prepared = prepared != nullptr;
        stats->bind_seconds = bind_seconds;
        stats->cache_lookup_seconds = lookup_sw.ElapsedSeconds();
      }
      return hit->rows;  // copied outside the cache lock
    }
    lookup_seconds = lookup_sw.ElapsedSeconds();
    if (stats == nullptr) {
      stats = &local_stats.emplace();  // the entry records the cold run's shape
    }
  }

  // One translation serves every shard: the shards share the encryption
  // plan, keys and table name, so the server plan is identical across the
  // fleet. Both paths memoize it in the engine's plan cache: an ad-hoc query
  // under its exact fingerprint, a prepared shape under the handle's, so a
  // warm call is one map lookup away from its plan.
  TranslatorOptions topts = context_->translator;
  topts.cluster_workers = context_->cluster->num_workers();
  const std::string plan_key =
      prepared != nullptr
          ? prepared->plan_key_base() + PlanCacheKeySuffix(shape.expected_groups, topts)
          : PlanCacheKey(shape, topts);
  std::shared_ptr<const TranslatedQuery> tq = plan_cache_.Find(plan_key);
  const bool plan_cache_hit = tq != nullptr;
  if (tq == nullptr) {
    const Translator translator(ver->ClientView(), *context_->keys);
    tq = std::make_shared<TranslatedQuery>(translator.Translate(shape, topts));
    plan_cache_.Insert(plan_key, tq);
  }
  const double translate_seconds = translate_sw.ElapsedSeconds() - lookup_seconds;

  ResultSet result;
  if (prepared != nullptr) {
    Stopwatch plan_bind_sw;
    const TranslatedQuery bound_tq = BindTranslatedQuery(*tq, params);
    bind_seconds += plan_bind_sw.ElapsedSeconds();
    result = RunTranslated(query, fact, ver, right_db, bound_tq, stats);
  } else {
    result = RunTranslated(query, fact, ver, right_db, *tq, stats);
  }
  if (result_cache_ != nullptr) {
    Stopwatch insert_sw;
    auto entry = std::make_shared<CachedResult>(
        CachedResult{result, stats->result_bytes, stats->rows_touched});
    const size_t cost = result_key.size() + EstimateResultBytes(entry->rows);
    result_cache_->Insert(std::move(result_key), std::move(entry), cost);
    stats->cache_hit = false;
    stats->cache_lookup_seconds = lookup_seconds + insert_sw.ElapsedSeconds();
  }
  if (stats != nullptr) {
    stats->translate_seconds = translate_seconds;
    stats->plan_cache_hit = plan_cache_hit;
    if (prepared != nullptr) {
      stats->prepared = true;
      stats->bind_seconds = bind_seconds;
    }
  }
  return result;
}

ResultSet ShardedSeabedBackend::RunTranslated(const Query& query, const AttachedTable& fact,
                                              const ShardedTableVersion* ver,
                                              const EncryptedDatabase* right_db,
                                              const TranslatedQuery& tq, QueryStats* stats) {
  // Round one: probe the routed shards with a cheap row count (the shared
  // CountProbePlan, src/seabed/probe.h); round two then skips shards with no
  // matching rows. Two-round-trip queries always probe; ProbeMode::kForced
  // extends the probe to every query.
  const Table* right_table = right_db == nullptr ? nullptr : right_db->table.get();
  const ProbeOptions& popts = context_->probe;
  std::vector<bool> active(shards_, true);
  std::vector<double> shard_probe_seconds(shards_, 0.0);
  bool shard_probe_used = false;
  size_t shards_skipped = 0;

  // Round zero — coordinator-side shard routing, before any fan-out. Under
  // key-range placement, a clustering-key range predicate can only match
  // rows on shards whose owning [lo, hi] intersects it; every other shard is
  // excluded without ever being contacted. Routing reads the SAME pinned
  // version's boundaries the scan below runs on, so a rebalance publishing
  // moved boundaries concurrently can't make this query miss rows — it
  // either pinned the old version (old boundaries, old parts) or the new one
  // (both updated together). Non-routable queries (hash placement, no
  // clustering-key filter) keep the full fleet active.
  size_t shards_routed = shards_;
  if (ver->placement == PlacementPolicy::kKeyRange) {
    const std::optional<ClusteringKeyRange> range =
        ExtractClusteringKeyRange(query, ver->clustering_column);
    if (range.has_value()) {
      active = Placement::RouteShards(ver->boundaries, *range);
      shards_routed = static_cast<size_t>(std::count(active.begin(), active.end(), true));
    }
  }

  // kForced is still gated on the plan being prunable at the shard level —
  // without a predicate or join every non-empty shard reports matches and
  // the probe round is a second full fan-out for nothing. Either way the
  // round needs two or more routed shards: with none, round two is already
  // decided, and a lone shard's round two is decided by its row-group probe
  // below, exactly as on a single server.
  const bool shard_prunable = !tq.server.predicates.empty() || tq.server.join.has_value();
  if (shards_routed > 1 &&
      (query.needs_two_round_trips ||
       (popts.mode == ProbeMode::kForced && shard_prunable))) {
    shard_probe_used = true;
    std::vector<EncryptedResponse> probes =
        FanOut(*ver, CountProbePlan(tq.server), active, right_table);
    for (size_t s = 0; s < shards_; ++s) {
      if (!active[s]) {
        continue;  // routed out in round zero, not pruned by the probe
      }
      active[s] = probes[s].rows_touched > 0;
      shards_skipped += active[s] ? 0 : 1;
      shard_probe_seconds[s] = probes[s].ServerSeconds();
    }
  }

  // Intra-shard pruning gate: the plan must be prunable at row-group
  // granularity, and either the mode forces it, the client flagged the
  // two-round path, or the planner's selectivity estimate predicts a win.
  bool intra_prune = false;
  if (popts.mode != ProbeMode::kOff && tq.probe.prunable) {
    intra_prune = popts.mode == ProbeMode::kForced || query.needs_two_round_trips ||
                  EstimateFilterSelectivity(query, fact.schema) <= popts.auto_selectivity_threshold;
  }

  // Round two, pruned inside each routed, surviving shard: the shard's
  // Server evaluates the plan's ProbeSection against its row-group summary
  // index and scans only the surviving ranges (Execute(scan_ranges)). Shards
  // whose index rules out every group skip the scan.
  std::vector<EncryptedResponse> responses(shards_);
  std::vector<ServerProbeResult> probes(shards_);
  std::vector<char> probed(shards_, 0);
  std::vector<char> answered(shards_, 0);
  pool_.ParallelFor(shards_, [&](size_t s) {
    if (!active[s]) {
      return;
    }
    const std::vector<RowRange>* scan_ranges = nullptr;
    if (intra_prune) {
      probes[s] = ver->probes[s]->Probe(*ver->parts[s].table, tq.probe, popts.row_group_size);
      probed[s] = 1;
      if (probes[s].surviving.empty()) {
        return;  // shard-local zero match: no round-two scan here
      }
      scan_ranges = &probes[s].surviving;
    }
    responses[s] = servers_[s].Execute(tq.server, *context_->cluster,
                                       ver->parts[s].table.get(), right_table, scan_ranges);
    answered[s] = 1;
  });
  std::vector<double> shard_round_two_seconds(shards_, 0.0);
  bool intra_probed = false;
  uint64_t row_groups_total = 0;
  uint64_t row_groups_pruned = 0;
  std::vector<EncryptedResponse> answers;
  for (size_t s = 0; s < shards_; ++s) {
    if (probed[s]) {
      intra_probed = true;
      row_groups_total += probes[s].total_groups;
      row_groups_pruned += probes[s].pruned_groups;
      shard_probe_seconds[s] += probes[s].seconds;
    }
    if (answered[s]) {
      shard_round_two_seconds[s] = responses[s].ServerSeconds();
      answers.push_back(std::move(responses[s]));
    }
  }

  // Coordinator merge. With no answer at all (zero-match short-circuit),
  // the empty response decrypts to the same rows a zero-match scan produces
  // (global aggregates still yield the SQL zero row); a lone answer is
  // already the merged response.
  EncryptedResponse merged;
  double merge_seconds = 0;
  if (answers.size() == 1) {
    merged = std::move(answers.front());
  } else if (answers.size() > 1) {
    Stopwatch merge_sw;
    merged = MergeShardResponses(tq.server, answers);
    merge_seconds = merge_sw.ElapsedSeconds();
    merged.driver_seconds += merge_seconds;
  }

  // Shards probe in parallel, so the probe round costs the slowest shard.
  double probe_seconds = 0;
  for (const double s : shard_probe_seconds) {
    probe_seconds = std::max(probe_seconds, s);
  }
  const bool probe_used = shard_probe_used || intra_probed;

  const Client client(ver->ClientView(), *context_->keys);
  ResultSet result = client.Decrypt(merged, tq, *context_->cluster, right_db, stats);
  if (stats != nullptr) {
    stats->backend = name();
    // Shards are independent clusters running in parallel: total simulated
    // server latency is the probe round (if any) plus the slowest shard of
    // round two plus the coordinator merge (already inside driver_seconds).
    stats->server_seconds += probe_seconds;
    // The two rounds report separately: a shard pruned in round one (or by
    // its own index) did no round-two work and must not bill any.
    stats->shard_server_seconds = std::move(shard_round_two_seconds);
    stats->shard_probe_seconds = std::move(shard_probe_seconds);
    stats->merge_seconds = merge_seconds;
    stats->shards_routed = shards_routed;
    stats->shards_total = shards_;
    stats->probe_used = probe_used;
    stats->probe_seconds = probe_seconds;
    if (intra_probed) {
      // Row groups of the shards' summary indexes, aggregated across the
      // fleet (shards skipped by round one were never probed at row-group
      // granularity and contribute nothing).
      stats->row_groups_total = row_groups_total;
      stats->row_groups_pruned = row_groups_pruned;
    } else {
      // Only the shard-level count probe ran: a "row group" is a shard.
      stats->row_groups_total = shard_probe_used ? shards_ : 0;
      stats->row_groups_pruned = shards_skipped;
    }
  }
  return result;
}

}  // namespace seabed
