// The untrusted Seabed server (paper Sections 4.5, 6).
//
// Executes a ServerPlan over encrypted tables on the cluster model:
// evaluates DET/ORE predicates with the columnar scan kernels
// (src/seabed/scan_kernels.h), performs ASHE aggregation (group-element sums
// plus ID-list maintenance), applies the group-by inflation the translator
// requested, and compresses ID lists either at the workers (parallel,
// Seabed's default) or at the driver (the rejected alternative of Section
// 4.5). A join is a broadcast hash join on DET tokens: the build side
// filters the right table with its own predicates and indexes only the
// surviving rows, then the fact scan probes that index with each row that
// passes the fact-side predicates.
//
// Aggregation is columnar: an ungrouped, unjoined scan folds each selection
// bitmap into one group (popcount, masked sum, set-bit runs); otherwise each
// task maps its passing rows (or row pairs) to dense group ordinals through
// a flat table of fixed-width keys, and the driver merges the tasks' groups
// in one pass by that key. Nothing allocates per row.
//
// The server never sees a key: everything here operates on ciphertexts,
// tokens and public row identifiers.
#ifndef SEABED_SRC_SEABED_SERVER_H_
#define SEABED_SRC_SEABED_SERVER_H_

#include <string>
#include <vector>

#include "src/engine/cluster.h"
#include "src/engine/table.h"
#include "src/engine/value.h"
#include "src/seabed/probe.h"
#include "src/seabed/translator.h"

namespace seabed {

// Per-aggregate server result within one group.
struct ServerAggResult {
  // kAsheSum: running group element + compressed ID list blobs (one per
  // partition under worker-side compression, a single blob otherwise).
  uint64_t ashe_value = 0;
  std::vector<Bytes> id_blobs;

  // kRowCount.
  uint64_t row_count = 0;

  // kOreMin / kOreMax: ORE winner with its companion ASHE cell + identifier.
  bool minmax_valid = false;
  OreCiphertext minmax_ore;
  uint64_t minmax_cipher = 0;
  uint64_t minmax_id = 0;
};

struct ServerGroup {
  // Serialized group key (includes the inflation suffix).
  std::string key;
  // Raw key parts: DET tokens (as int64), plain ints, or plain strings.
  std::vector<Value> key_parts;
  // Inflation suffix carried separately so the client can deflate.
  uint64_t inflation_suffix = 0;
  std::vector<ServerAggResult> aggs;
};

struct EncryptedResponse {
  // One entry per distinct key, in no particular order (a single server
  // emits first-seen order; the coordinator merges shards by key). Clients
  // sort their decrypted rows by plaintext group value (ResultSet::rows).
  std::vector<ServerGroup> groups;

  JobStats job;                 // scan + worker-side encode
  double driver_seconds = 0;    // merge + driver-side encode
  double shuffle_seconds = 0;   // modeled reduce-phase transfer
  size_t shuffle_bytes = 0;
  size_t response_bytes = 0;    // payload shipped to the client
  uint64_t rows_touched = 0;    // rows that survived the predicates

  double ServerSeconds() const {
    return job.server_seconds + driver_seconds + shuffle_seconds;
  }
};

// Round-one result of the server-side row-group probe.
struct ServerProbeResult {
  // Surviving row ranges of the fact table, in row order. Empty = no row
  // group can match (round two may be skipped entirely).
  std::vector<RowRange> surviving;
  size_t total_groups = 0;
  size_t pruned_groups = 0;
  double seconds = 0;  // measured round-one cost
};

// The server is stateless: it holds no table registry and no mutable probe
// state. The Seabed engine owns immutable `ShardedTableVersion` snapshots
// (src/seabed/snapshot.h; one part per shard, a single part on kSeabed) and
// hands each shard's Execute the exact table objects to scan, so any number
// of queries run concurrently with zero server-side synchronization — the
// snapshot publish/reclaim protocol (src/common/epoch.h) is the only
// concurrency mechanism on the read path. Row-group probing lives with the
// snapshot too (`VersionProbeIndex`): summaries are built at most once per
// published version instead of being re-synced behind a mutex.
class Server {
 public:
  // Executes `plan` over `fact` (the fact table of the caller's pinned
  // snapshot; aborts when null — the caller resolved an unknown name). When
  // the plan joins, `right_override` must carry the joined table (its own
  // part at one shard, or the broadcast replica). `scan_ranges`, when
  // non-null, restricts the fact-table scan to those row ranges (the pruned
  // round two; a probe's `surviving` goes here).
  EncryptedResponse Execute(const ServerPlan& plan, const Cluster& cluster,
                            const Table* fact, const Table* right_override,
                            const std::vector<RowRange>* scan_ranges = nullptr) const;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SERVER_H_
