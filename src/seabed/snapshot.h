// Immutable published table versions for the snapshot-isolated read path.
//
// An append (or rebalance migration) never mutates a table a query might be
// scanning. Instead the writer builds a new version off to the side — deep
// copies of exactly the parts it touches, structural sharing for the rest —
// and publishes it with one atomic pointer swap. In-flight queries pin the
// version they started on through an `EpochDomain` guard (src/common/
// epoch.h); the swapped-out version is retired into the domain and freed once
// the last reader drains. The result: Execute takes no lock of any kind on
// tables or row-group indexes, and appends never block queries. Both Seabed
// backend kinds publish the same version type, ShardedTableVersion: kSeabed
// is the sharded engine at one shard (src/seabed/sharded_backend.h).
//
// The row-group probe index is part of the version rather than a
// mutex-guarded side map keyed by table name. Because a version is immutable,
// its summaries are built at most once per (version, group size) — the
// double-build race two first-touch probes used to hit behind
// `Server::probe_mu_` is structurally gone — and an append seeds the new
// version's index from its parent so only the appended tail is summarized.
#ifndef SEABED_SRC_SEABED_SNAPSHOT_H_
#define SEABED_SRC_SEABED_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/engine/table.h"
#include "src/seabed/encryptor.h"
#include "src/seabed/placement.h"
#include "src/seabed/probe.h"
#include "src/seabed/server.h"

namespace seabed {

// Independent copy of `src` for the append path: fresh table with copied
// columns (safe to grow), copied dictionaries (safe to extend). Requires the
// source table to own all its columns — Encryptor::Encrypt copies
// plain-scheme columns instead of sharing them for exactly this reason.
EncryptedDatabase CopyEncryptedDatabase(const EncryptedDatabase& src);

// Row-group summary indexes of one immutable table version, keyed by group
// size. Built lazily on first probe, exactly once per (version, group size):
// racing first-touch probes serialize on the internal mutex and the second
// one finds the summaries already current (the version's table never grows).
class VersionProbeIndex {
 public:
  VersionProbeIndex() = default;
  VersionProbeIndex(const VersionProbeIndex&) = delete;
  VersionProbeIndex& operator=(const VersionProbeIndex&) = delete;

  // Round one of two-round execution over `fact`, which must be the version's
  // own fact table (immutable while published).
  ServerProbeResult Probe(const Table& fact, const ProbeSection& probe,
                          size_t row_group_size) const;

  // Writer-side, pre-publish: copies the parent version's summaries and
  // extends them to `fact`'s row count, so the published version's first
  // probe pays only for rows the parent had not summarized. Not counted as a
  // build.
  void SeedFrom(const VersionProbeIndex& parent, const Table& fact);

  // Number of from-scratch or tail summary builds probes have triggered on
  // this version (regression hook: racing first-touch probes must cost one).
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  mutable std::map<size_t, RowGroupIndex> by_group_size_;
  mutable std::atomic<uint64_t> builds_{0};
};

// One published version of a table (src/seabed/sharded_backend.h; the
// single-server backend is the one-shard case). Untouched shards share their
// part tables and probe indexes with the parent version (shared_ptr); an
// append deep-copies only the destination shard, a rebalance only the
// donors/recipients it moves rows between.
struct ShardedTableVersion {
  // Plaintext of each shard's partition, the source rebalancing re-encrypts
  // from. Kept only by backends that can rebalance; empty otherwise.
  std::vector<std::shared_ptr<Table>> plain_parts;
  std::vector<EncryptedDatabase> parts;
  std::vector<std::shared_ptr<VersionProbeIndex>> probes;  // parallel to parts

  // Merged client-side view of a multi-shard table (dictionaries across all
  // shards; table points at a representative part). Unused at one shard,
  // where the part itself is the view — read it through ClientView().
  EncryptedDatabase view;

  // Broadcast replica for joins: the whole table re-encrypted in the replica
  // id space. Null until the first join on a multi-shard backend (and always
  // at one shard, where a join reads parts[0]); once a version carries a
  // replica, every later version does (appends grow a copy), so join
  // consistency is monotone.
  std::shared_ptr<const EncryptedDatabase> replica;

  // Next fresh ASHE id-space slot for rebalance re-encryption.
  uint64_t next_id_slot = 0;

  // Placement of this table's rows, fixed at attach (src/seabed/placement.h).
  // Under kKeyRange, `boundaries[s]` is the closed clustering-key interval
  // shard s's partition holds IN THIS VERSION — routing consults the pinned
  // version's boundaries, never live state, so a query overlapping a
  // rebalance sees boundaries consistent with the exact parts it scans.
  PlacementPolicy placement = PlacementPolicy::kHash;
  std::string clustering_column;                // empty under kHash
  std::vector<ShardKeyBoundary> boundaries;     // parallel to parts

  // What Translator and Client read: the merged view, or the lone part.
  const EncryptedDatabase& ClientView() const { return parts.size() == 1 ? parts.front() : view; }
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SNAPSHOT_H_
