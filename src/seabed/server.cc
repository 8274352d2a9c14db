#include "src/seabed/server.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/encoding/bitmap.h"
#include "src/encoding/id_list_codec.h"
#include "src/seabed/scan_kernels.h"

namespace seabed {
namespace {

// Resolved reference to a column in either the fact or the joined table.
struct ColRef {
  const Column* col = nullptr;
  const AsheColumn* ashe = nullptr;
  const DetColumn* det = nullptr;
  const OreColumn* ore = nullptr;
  const Int64Column* i64 = nullptr;
  const StringColumn* str = nullptr;
  bool on_right = false;
};

ColRef Resolve(const Table& fact, const Table* right, const std::string& name, bool on_right) {
  SEABED_CHECK_MSG(!on_right || right != nullptr, "joined column " << name << " without a right table");
  const Table& t = on_right ? *right : fact;
  ColRef ref;
  ref.on_right = on_right;
  ref.col = t.GetColumn(name).get();
  switch (ref.col->type()) {
    case ColumnType::kAshe:
      ref.ashe = static_cast<const AsheColumn*>(ref.col);
      break;
    case ColumnType::kDet:
      ref.det = static_cast<const DetColumn*>(ref.col);
      break;
    case ColumnType::kOre:
      ref.ore = static_cast<const OreColumn*>(ref.col);
      break;
    case ColumnType::kInt64:
      ref.i64 = static_cast<const Int64Column*>(ref.col);
      break;
    case ColumnType::kString:
      ref.str = static_cast<const StringColumn*>(ref.col);
      break;
    default:
      SEABED_CHECK_MSG(false, "unsupported server column type for " << name);
  }
  return ref;
}

// Running aggregate state for one group within one partition.
struct PartialAgg {
  uint64_t value = 0;
  IdSet ids;
  uint64_t count = 0;
  bool minmax_valid = false;
  OreCiphertext minmax_ore;
  uint64_t minmax_cipher = 0;
  uint64_t minmax_id = 0;

  // kOreMin / kOreMax: keeps the candidate when the slot is empty or the
  // candidate orders strictly before (MIN) or after (MAX) the current winner.
  void OfferMinMax(ServerAggregate::Kind kind, const OreCiphertext& ore, uint64_t cipher,
                   uint64_t id) {
    if (minmax_valid) {
      const int order = Ore::Compare(ore, minmax_ore).order;
      if (kind == ServerAggregate::Kind::kOreMin ? order >= 0 : order <= 0) {
        return;
      }
    }
    minmax_valid = true;
    minmax_ore = ore;
    minmax_cipher = cipher;
    minmax_id = id;
  }
};

struct PartialGroup {
  std::vector<Value> key_parts;
  uint64_t suffix = 0;
  std::vector<PartialAgg> aggs;
  std::vector<Bytes> blobs;  // one per ASHE aggregate after worker encode
};

// Rows per kernel row group: the unit the vectorized scan fills one
// selection bitmap for. 4096 rows = 64 bitmap words; even the widest
// per-group column slice (ORE, 16 B/row = 64 KiB) stays cache-resident.
constexpr size_t kKernelRowGroup = 4096;

// Kernel evaluation order: DET and plain-int predicates first (whole 64-row
// words per compare), then ORE (per-row SIMD that skips dead words), then
// plain strings, scalar over the surviving bits only. Reordering is safe —
// the predicates AND.
int ScanStage(ServerPredicate::Kind kind) {
  switch (kind) {
    case ServerPredicate::Kind::kDetEq:
    case ServerPredicate::Kind::kPlainInt:
      return 0;
    case ServerPredicate::Kind::kOreCmp:
      return 1;
    case ServerPredicate::Kind::kPlainString:
      break;
  }
  return 2;
}

// The conjunction of one join side's predicates (the fact table's, or the
// right table's on the build side), evaluated a kernel row group at a time
// into a selection bitmap.
class ScanFilter {
 public:
  ScanFilter(const ServerPlan& plan, const std::vector<ColRef>& cols, bool on_right)
      : plan_(plan), cols_(cols) {
    for (size_t i = 0; i < plan.predicates.size(); ++i) {
      if (plan.predicates[i].on_right != on_right) {
        continue;
      }
      // Dictionary codes compare like the strings they encode; an absent
      // operand (UINT32_MAX, never a valid code) matches no row.
      const uint32_t code = plan.predicates[i].kind == ServerPredicate::Kind::kPlainString
                                ? cols[i].str->Lookup(plan.predicates[i].str_operand)
                                : UINT32_MAX;
      steps_.push_back({i, code});
    }
    std::stable_sort(steps_.begin(), steps_.end(), [&](const Step& a, const Step& b) {
      return ScanStage(plan.predicates[a.pred].kind) < ScanStage(plan.predicates[b.pred].kind);
    });
  }

  // Calls visit(row) for every row of `range` that passes, in row order.
  // `sel` is scratch space, reused across calls.
  template <typename Visit>
  void ForEachPassing(const RowRange& range, SelectionBitmap& sel, Visit&& visit) const {
    for (size_t begin = range.begin; begin < range.end; begin += kKernelRowGroup) {
      if (Select(begin, std::min(kKernelRowGroup, range.end - begin), sel)) {
        sel.ForEachSet([&](size_t bit) { visit(begin + bit); });
      }
    }
  }

 private:
  struct Step {
    size_t pred;    // index into plan.predicates (and cols)
    uint32_t code;  // kPlainString: the operand's dictionary code
  };

  // Leaves set in `sel` exactly the rows of [begin, begin + n) that pass;
  // false once none does.
  bool Select(size_t begin, size_t n, SelectionBitmap& sel) const {
    sel.Reset(n, /*all_set=*/true);
    for (const Step& step : steps_) {
      const ServerPredicate& sp = plan_.predicates[step.pred];
      const ColRef& ref = cols_[step.pred];
      switch (sp.kind) {
        case ServerPredicate::Kind::kDetEq:
          FilterDetEq(ref.det->tokens().data() + begin, n, sp.op != CmpOp::kEq, sp.det_token,
                      sel);
          break;
        case ServerPredicate::Kind::kPlainInt:
          FilterInt64Cmp(ref.i64->values().data() + begin, n, sp.op, sp.int_operand, sel);
          break;
        case ServerPredicate::Kind::kOreCmp:
          FilterOreCmp(ref.ore->cells().data() + begin, n, sp.op, sp.ore_operand, sel);
          break;
        case ServerPredicate::Kind::kPlainString: {
          const bool want_eq = sp.op == CmpOp::kEq;
          sel.Retain([&](size_t bit) {
            return (ref.str->GetCode(begin + bit) == step.code) == want_eq;
          });
          break;
        }
      }
      if (!sel.Any()) {
        return false;
      }
    }
    return true;
  }

  const ServerPlan& plan_;
  const std::vector<ColRef>& cols_;
  std::vector<Step> steps_;
};

}  // namespace

EncryptedResponse Server::Execute(const ServerPlan& plan, const Cluster& cluster,
                                  const Table* fact_table, const Table* right_override,
                                  const std::vector<RowRange>* scan_ranges) const {
  SEABED_CHECK_MSG(fact_table != nullptr, "server has no table named " << plan.table);
  const Table& fact = *fact_table;
  const Table* right = nullptr;
  if (plan.join.has_value()) {
    SEABED_CHECK_MSG(right_override != nullptr,
                     "join plan requires the caller's snapshot to supply " << plan.join->right_table);
    right = right_override;
  }

  // Resolve predicate / aggregate / group columns once.
  std::vector<ColRef> pred_cols;
  pred_cols.reserve(plan.predicates.size());
  for (const auto& p : plan.predicates) {
    pred_cols.push_back(Resolve(fact, right, p.column, p.on_right));
  }
  struct AggCols {
    ColRef main;
    ColRef companion;  // ASHE value column for min/max
  };
  std::vector<AggCols> agg_cols;
  agg_cols.reserve(plan.aggregates.size());
  for (const auto& a : plan.aggregates) {
    AggCols ac;
    if (a.kind != ServerAggregate::Kind::kRowCount) {
      ac.main = Resolve(fact, right, a.column, a.on_right);
    }
    if (a.kind == ServerAggregate::Kind::kOreMin || a.kind == ServerAggregate::Kind::kOreMax) {
      ac.companion = Resolve(fact, right, a.value_column, a.on_right);
    }
    agg_cols.push_back(ac);
  }
  std::vector<ColRef> group_cols;
  group_cols.reserve(plan.group_by.size());
  for (const auto& g : plan.group_by) {
    group_cols.push_back(Resolve(fact, right, g.column, g.on_right));
  }

  // Broadcast hash join on DET tokens (built once at the driver, like a Spark
  // broadcast join). The build side runs the right table's predicates
  // through the same kernels as the fact scan, so only surviving right rows
  // enter the index. Multi-map: join keys need not be unique.
  std::unordered_multimap<uint64_t, size_t> join_index;
  const DetColumn* join_left = nullptr;
  Stopwatch driver_sw;
  if (right != nullptr) {
    const ColRef right_key = Resolve(fact, right, plan.join->right_column, true);
    SEABED_CHECK_MSG(right_key.det != nullptr, "join keys must be DET encrypted");
    const ColRef left_key = Resolve(fact, right, plan.join->left_column, false);
    SEABED_CHECK_MSG(left_key.det != nullptr, "join keys must be DET encrypted");
    join_left = left_key.det;
    SelectionBitmap sel;
    ScanFilter(plan, pred_cols, /*on_right=*/true)
        .ForEachPassing(RowRange{0, right->NumRows()}, sel,
                        [&](size_t row) { join_index.emplace(right_key.det->Get(row), row); });
  }
  double driver_seconds = driver_sw.ElapsedSeconds();

  // The scan's unit of parallel work: one task per partition for a full
  // scan, or the probe's surviving row groups re-balanced across the workers
  // for a pruned round two.
  std::vector<std::vector<RowRange>> tasks;
  if (scan_ranges == nullptr) {
    for (const RowRange& part : fact.Partitions(cluster.num_workers())) {
      tasks.push_back({part});
    }
  } else {
    tasks = PartitionRanges(*scan_ranges, cluster.num_workers());
  }
  std::vector<std::unordered_map<std::string, PartialGroup>> partials(tasks.size());

  // Probe side: the fact-side predicates fill one selection bitmap per
  // kernel row group, and each surviving row is aggregated directly or, on a
  // join, once per matching build-side row.
  const ScanFilter fact_filter(plan, pred_cols, /*on_right=*/false);
  std::vector<uint64_t> touched(tasks.size());  // passing rows (join: pairs)
  const JobStats job = cluster.RunJob(tasks.size(), [&](size_t p) {
    auto& local = partials[p];

    // Aggregation for one surviving row (or row pair): group-key building
    // + accumulation.
    auto accumulate = [&](size_t row, size_t right_row) {
      // Group key. Every part is length-prefixed (AppendGroupKeyPart): raw
      // '\x1f'-separated concatenation let distinct keys like ("a\x1f", "b")
      // and ("a", "\x1fb") collide and silently merge their aggregates.
      std::string key;
      std::vector<Value> key_parts;
      key_parts.reserve(group_cols.size());
      for (const ColRef& ref : group_cols) {
        const size_t r = ref.on_right ? right_row : row;
        if (ref.det != nullptr) {
          const uint64_t token = ref.det->Get(r);
          AppendGroupKeyPart(key, token);
          key_parts.emplace_back(static_cast<int64_t>(token));
        } else if (ref.i64 != nullptr) {
          const int64_t v = ref.i64->Get(r);
          AppendGroupKeyPart(key, static_cast<uint64_t>(v));
          key_parts.emplace_back(v);
        } else if (ref.str != nullptr) {
          AppendGroupKeyPart(key, ref.str->Get(r));
          key_parts.emplace_back(ref.str->Get(r));
        } else {
          SEABED_CHECK_MSG(false, "group-by on an unsupported encrypted column");
        }
      }
      uint64_t suffix = 0;
      if (plan.inflation > 1) {
        // The artificial group id of Section 4.5. Hashed rather than
        // row % inflation so it cannot correlate with data-derived groups.
        suffix = (row * 0x9e3779b97f4a7c15ULL >> 33) % plan.inflation;
        AppendGroupKeyPart(key, suffix);
      }

      PartialGroup& group = local[key];
      if (group.aggs.empty()) {
        group.aggs.resize(plan.aggregates.size());
        group.key_parts = std::move(key_parts);
        group.suffix = suffix;
      }
      for (size_t a = 0; a < plan.aggregates.size(); ++a) {
        const ServerAggregate& sa = plan.aggregates[a];
        const AggCols& ac = agg_cols[a];
        PartialAgg& pa = group.aggs[a];
        const size_t r = sa.on_right ? right_row : row;
        switch (sa.kind) {
          case ServerAggregate::Kind::kAsheSum: {
            pa.value += ac.main.ashe->Get(r);
            pa.ids.Add(ac.main.ashe->IdOfRow(r));
            break;
          }
          case ServerAggregate::Kind::kRowCount:
            ++pa.count;
            break;
          case ServerAggregate::Kind::kOreMin:
          case ServerAggregate::Kind::kOreMax:
            pa.OfferMinMax(sa.kind, ac.main.ore->Get(r), ac.companion.ashe->Get(r),
                           ac.companion.ashe->IdOfRow(r));
            break;
        }
      }
    };

    uint64_t task_touched = 0;
    SelectionBitmap sel;
    for (const RowRange& range : tasks[p]) {
      fact_filter.ForEachPassing(range, sel, [&](size_t row) {
        if (join_left == nullptr) {
          ++task_touched;
          accumulate(row, 0);
          return;
        }
        const auto [lo, hi] = join_index.equal_range(join_left->Get(row));
        for (auto it = lo; it != hi; ++it) {
          ++task_touched;
          accumulate(row, it->second);
        }
      });
    }
    touched[p] = task_touched;

    // Worker-side ID-list compression (Section 4.5's winning configuration):
    // encode inside the task so the cost lands on the worker's clock.
    if (plan.worker_side_compression) {
      for (auto& [key, group] : local) {
        group.blobs.resize(plan.aggregates.size());
        for (size_t a = 0; a < plan.aggregates.size(); ++a) {
          if (plan.aggregates[a].kind == ServerAggregate::Kind::kAsheSum) {
            group.blobs[a] = IdListEncode(group.aggs[a].ids, plan.idlist);
            group.aggs[a].ids = IdSet();  // shipped as a blob from here on
          }
        }
      }
    }
  });

  // Shuffle accounting (group-by jobs only): every partition ships its partial
  // groups to reduce tasks; with fewer groups than workers, few reducers
  // drain all the data (the bottleneck group inflation removes).
  EncryptedResponse response;
  size_t distinct_groups = 0;
  if (!plan.group_by.empty() || plan.inflation > 1) {
    std::unordered_map<std::string, bool> seen;
    size_t bytes = 0;
    for (const auto& local : partials) {
      for (const auto& [key, group] : local) {
        seen.emplace(key, true);
        bytes += key.size();
        for (size_t a = 0; a < plan.aggregates.size(); ++a) {
          bytes += 8;
          if (plan.worker_side_compression) {
            bytes += group.blobs[a].size();
          } else {
            bytes += group.aggs[a].ids.NumRuns() * 10;  // raw run estimate
          }
        }
      }
    }
    distinct_groups = seen.size();
    response.shuffle_bytes = bytes;
    response.shuffle_seconds = cluster.ShuffleSeconds(bytes, distinct_groups);
  }

  // Driver-side merge (and compression, when configured).
  driver_sw.Restart();

  // Collect per-partition blob lists before the merge moves groups away: when
  // worker-compressed, every partition contributes one blob per ASHE
  // aggregate per group.
  std::map<std::string, std::vector<std::vector<Bytes>>> blob_lists;
  if (plan.worker_side_compression) {
    for (const auto& local : partials) {
      for (const auto& [key, group] : local) {
        auto& lists = blob_lists[key];
        if (lists.empty()) {
          lists.resize(plan.aggregates.size());
        }
        for (size_t a = 0; a < plan.aggregates.size(); ++a) {
          if (!group.blobs.empty() && !group.blobs[a].empty()) {
            lists[a].push_back(group.blobs[a]);
          }
        }
      }
    }
  }

  std::map<std::string, PartialGroup> merged;
  for (auto& local : partials) {
    for (auto& [key, group] : local) {
      auto [it, inserted] = merged.try_emplace(key, std::move(group));
      if (inserted) {
        continue;
      }
      PartialGroup& dst = it->second;
      for (size_t a = 0; a < plan.aggregates.size(); ++a) {
        PartialAgg& pa = dst.aggs[a];
        PartialAgg& src = group.aggs[a];
        const ServerAggregate& sa = plan.aggregates[a];
        switch (sa.kind) {
          case ServerAggregate::Kind::kAsheSum:
            pa.value += src.value;
            if (!plan.worker_side_compression) {
              pa.ids.UnionWith(src.ids);
            }
            break;
          case ServerAggregate::Kind::kRowCount:
            pa.count += src.count;
            break;
          case ServerAggregate::Kind::kOreMin:
          case ServerAggregate::Kind::kOreMax:
            if (src.minmax_valid) {
              pa.OfferMinMax(sa.kind, src.minmax_ore, src.minmax_cipher, src.minmax_id);
            }
            break;
        }
      }
    }
  }

  for (auto& [key, group] : merged) {
    ServerGroup out;
    out.key = key;
    out.key_parts = group.key_parts;
    out.inflation_suffix = group.suffix;
    out.aggs.resize(plan.aggregates.size());
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      ServerAggResult& res = out.aggs[a];
      const PartialAgg& pa = group.aggs[a];
      const ServerAggregate& sa = plan.aggregates[a];
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum:
          res.ashe_value = pa.value;
          if (plan.worker_side_compression) {
            res.id_blobs = std::move(blob_lists[key][a]);
          } else {
            res.id_blobs.push_back(IdListEncode(pa.ids, plan.idlist));
          }
          break;
        case ServerAggregate::Kind::kRowCount:
          res.row_count = pa.count;
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          res.minmax_valid = pa.minmax_valid;
          res.minmax_ore = pa.minmax_ore;
          res.minmax_cipher = pa.minmax_cipher;
          res.minmax_id = pa.minmax_id;
          break;
      }
    }
    response.groups.push_back(std::move(out));
  }
  driver_seconds += driver_sw.ElapsedSeconds();

  // Response size accounting.
  size_t bytes = 0;
  for (const ServerGroup& g : response.groups) {
    bytes += g.key.size();
    for (const ServerAggResult& agg : g.aggs) {
      bytes += 8;
      for (const Bytes& blob : agg.id_blobs) {
        bytes += blob.size();
      }
      if (agg.minmax_valid) {
        bytes += 16;  // cipher + id
      }
    }
  }
  response.response_bytes = bytes;
  response.job = job;
  response.driver_seconds = driver_seconds;
  for (const uint64_t t : touched) {
    response.rows_touched += t;
  }
  return response;
}

}  // namespace seabed
