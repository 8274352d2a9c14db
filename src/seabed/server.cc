#include "src/seabed/server.h"

#include <algorithm>
#include <iterator>
#include <optional>

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

  // Calls visit(begin) for every kernel row group of `range` with a passing
  // row, in row order; `sel` then holds the group's passing rows (bit i =
  // row begin + i). `sel` is scratch space, reused across calls.
  template <typename Visit>
  void ForEachSelection(const RowRange& range, SelectionBitmap& sel, Visit&& visit) const {
    for (size_t begin = range.begin; begin < range.end; begin += kKernelRowGroup) {
      if (Select(begin, std::min(kKernelRowGroup, range.end - begin), sel)) {
        visit(begin);
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

// Running state of one aggregate within one group.
struct AggSlot {
  uint64_t value = 0;        // kAsheSum: group-element sum; kRowCount: rows
  IdSet ids;                 // kAsheSum, until encoded
  std::vector<Bytes> blobs;  // kAsheSum, worker-side compression: one per task
  bool minmax_valid = false;  // kOreMin / kOreMax: winner + companion cell
  OreCiphertext minmax_ore;
  uint64_t minmax_cipher = 0;
  uint64_t minmax_id = 0;

  // Keeps the candidate when the slot is empty or the candidate orders
  // strictly before (MIN) or after (MAX) the current winner.
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

// The groups of one task, or of the merged response: fixed-width keys mapped
// to dense ordinals, and num_aggs slots per ordinal (slot(ord, a)).
struct Groups {
  // `expected`: groups to size for up front (a hint).
  Groups(size_t width, size_t num_aggs, size_t expected = 0)
      : table(width, expected), num_aggs(num_aggs) {
    slots.reserve(expected * num_aggs);
  }

  size_t size() const { return table.size(); }
  AggSlot& slot(size_t ord, size_t a) { return slots[ord * num_aggs + a]; }

  // Ordinal of the key tuple `parts`, with fresh slots for a new group.
  uint32_t Ordinal(const uint64_t* parts) {
    const uint32_t ord = table.FindOrInsert(parts);
    if (ord + 1 == table.size()) {
      slots.resize(table.size() * num_aggs);
    }
    return ord;
  }

  OrdinalTable table;
  size_t num_aggs;
  std::vector<AggSlot> slots;
};

// A GROUP BY column's fixed-width key part: a DET token, a plain int64's
// bits, or a plain string's dictionary code. Codes are only meaningful within
// one table (shards keep their own dictionaries and the coordinator merges
// by key bytes), so the output key renders a code back to its string.
uint64_t KeyPart(const ColRef& ref, size_t row) {
  if (ref.det != nullptr) {
    return ref.det->Get(row);
  }
  return ref.i64 != nullptr ? static_cast<uint64_t>(ref.i64->Get(row)) : ref.str->GetCode(row);
}

struct AggCols {
  ColRef main;
  ColRef companion;  // ASHE value column for min/max
};

// The resolved inputs of the aggregation half, shared by every task.
struct AggInputs {
  const ServerPlan& plan;
  std::vector<AggCols> aggs;
  std::vector<ColRef> keys;  // one per GROUP BY column
  size_t width = 0;          // key parts: keys, plus the inflation suffix
  const JoinIndex* join = nullptr;
  const DetColumn* join_left = nullptr;
};

// Aggregates one task's row ranges into `out`, one kernel row group at a
// time, and returns the rows (join: row pairs) that passed. Ungrouped,
// unjoined scans fold the selection bitmap into group 0 word by word: a
// popcount for COUNT, a masked sum plus the bitmap's set-bit runs (the ID
// list, offset by the column's base id) for an ASHE SUM. Otherwise the
// passing rows (pairs) are gathered, mapped to group ordinals through the
// task's key table, and each aggregate runs over them as one loop.
uint64_t AggregateTask(const AggInputs& in, const ScanFilter& filter,
                       const std::vector<RowRange>& ranges, Groups& out) {
  const ServerPlan& plan = in.plan;
  const size_t num_aggs = plan.aggregates.size();
  SelectionBitmap sel;
  std::vector<size_t> rows;    // passing fact rows, one per pair
  std::vector<size_t> rights;  // join: the matching right row of each pair
  std::vector<uint32_t> ords;  // group ordinal of each pair
  std::vector<uint64_t> parts(std::max<size_t>(in.width, 1));
  // Right-side ASHE ids of a join arrive in probe order: collected as
  // (ordinal, id) and normalized once, at the end of the task.
  std::vector<std::vector<std::pair<uint32_t, uint64_t>>> right_ids(num_aggs);
  uint64_t touched = 0;
  // Ungrouped, unjoined: the whole selection folds into group 0.
  auto fold = [&](size_t begin) {
    const uint32_t ord = out.Ordinal(parts.data());
    const uint64_t passing = sel.Count();
    touched += passing;
    for (size_t a = 0; a < num_aggs; ++a) {
      const ServerAggregate& sa = plan.aggregates[a];
      const AggCols& ac = in.aggs[a];
      AggSlot& slot = out.slot(ord, a);
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum: {
          slot.value += SumSelected(ac.main.ashe->cells().data() + begin, sel);
          const uint64_t first = ac.main.ashe->IdOfRow(begin);
          sel.ForEachRun(
              [&](size_t lo, size_t hi) { slot.ids.AddRange(first + lo, first + hi - 1); });
          break;
        }
        case ServerAggregate::Kind::kRowCount:
          slot.value += passing;
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          sel.ForEachSet([&](size_t bit) {
            const size_t r = begin + bit;
            slot.OfferMinMax(sa.kind, ac.main.ore->Get(r), ac.companion.ashe->Get(r),
                             ac.companion.ashe->IdOfRow(r));
          });
          break;
      }
    }
  };
  auto gather = [&](size_t begin) {
    rows.clear();
    rights.clear();
    sel.ForEachSet([&](size_t bit) {
      const size_t row = begin + bit;
      if (in.join == nullptr) {
        rows.push_back(row);
        return;
      }
      for (const size_t right_row : in.join->Matches(in.join_left->Get(row))) {
        rows.push_back(row);
        rights.push_back(right_row);
      }
    });
    touched += rows.size();
    ords.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t k = 0; k < in.keys.size(); ++k) {
        parts[k] = KeyPart(in.keys[k], in.keys[k].on_right ? rights[i] : rows[i]);
      }
      if (plan.inflation > 1) {
        // The artificial group id of Section 4.5. Hashed rather than
        // row % inflation so it cannot correlate with data-derived groups.
        parts[in.keys.size()] = (rows[i] * 0x9e3779b97f4a7c15ULL >> 33) % plan.inflation;
      }
      ords[i] = out.Ordinal(parts.data());
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const ServerAggregate& sa = plan.aggregates[a];
      const AggCols& ac = in.aggs[a];
      const std::vector<size_t>& src = sa.on_right ? rights : rows;
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum: {
          const uint64_t* cells = ac.main.ashe->cells().data();
          const uint64_t base = ac.main.ashe->base_id();
          for (size_t i = 0; i < src.size(); ++i) {
            AggSlot& slot = out.slot(ords[i], a);
            slot.value += cells[src[i]];
            if (sa.on_right) {
              right_ids[a].emplace_back(ords[i], base + src[i]);
            } else {
              // Fact rows ascend: this appends, or raises the trailing run's
              // multiplicity for a fact row joined to several right rows.
              slot.ids.Add(base + src[i]);
            }
          }
          break;
        }
        case ServerAggregate::Kind::kRowCount:
          for (const uint32_t ord : ords) {
            ++out.slot(ord, a).value;
          }
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          for (size_t i = 0; i < src.size(); ++i) {
            out.slot(ords[i], a).OfferMinMax(sa.kind, ac.main.ore->Get(src[i]),
                                             ac.companion.ashe->Get(src[i]),
                                             ac.companion.ashe->IdOfRow(src[i]));
          }
          break;
      }
    }
  };
  const bool folds = in.width == 0 && in.join == nullptr;
  for (const RowRange& range : ranges) {
    filter.ForEachSelection(range, sel, [&](size_t begin) { folds ? fold(begin) : gather(begin); });
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    std::sort(right_ids[a].begin(), right_ids[a].end());
    for (const auto& [ord, id] : right_ids[a]) {
      out.slot(ord, a).ids.Add(id);
    }
  }
  return touched;
}

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
  AggInputs in{plan, {}, {}, 0, nullptr, nullptr};
  for (const auto& a : plan.aggregates) {
    AggCols ac;
    if (a.kind != ServerAggregate::Kind::kRowCount) {
      ac.main = Resolve(fact, right, a.column, a.on_right);
    }
    if (a.kind == ServerAggregate::Kind::kOreMin || a.kind == ServerAggregate::Kind::kOreMax) {
      ac.companion = Resolve(fact, right, a.value_column, a.on_right);
    }
    in.aggs.push_back(ac);
  }
  for (const auto& g : plan.group_by) {
    in.keys.push_back(Resolve(fact, right, g.column, g.on_right));
    SEABED_CHECK_MSG(in.keys.back().det || in.keys.back().i64 || in.keys.back().str,
                     "group-by on an unsupported encrypted column");
  }
  in.width = in.keys.size() + (plan.inflation > 1 ? 1 : 0);

  // The join's build side runs the right table's predicates through the same
  // kernels as the fact scan, so only surviving right rows enter the index.
  std::optional<JoinIndex> join;
  Stopwatch driver_sw;
  if (right != nullptr) {
    const ColRef right_key = Resolve(fact, right, plan.join->right_column, true);
    SEABED_CHECK_MSG(right_key.det != nullptr, "join keys must be DET encrypted");
    const ColRef left_key = Resolve(fact, right, plan.join->left_column, false);
    SEABED_CHECK_MSG(left_key.det != nullptr, "join keys must be DET encrypted");
    std::vector<size_t> survivors;
    SelectionBitmap sel;
    ScanFilter(plan, pred_cols, /*on_right=*/true)
        .ForEachSelection(RowRange{0, right->NumRows()}, sel, [&](size_t begin) {
          sel.ForEachSet([&](size_t bit) { survivors.push_back(begin + bit); });
        });
    join.emplace(right_key.det->tokens().data(), survivors);
    in.join = &*join;
    in.join_left = left_key.det;
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
  const size_t num_aggs = plan.aggregates.size();
  std::vector<Groups> partials(tasks.size(), Groups(in.width, num_aggs));
  std::vector<uint64_t> touched(tasks.size());
  const ScanFilter fact_filter(plan, pred_cols, /*on_right=*/false);
  const JobStats job = cluster.RunJob(tasks.size(), [&](size_t p) {
    touched[p] = AggregateTask(in, fact_filter, tasks[p], partials[p]);
    // Worker-side ID-list compression (Section 4.5's winning configuration):
    // encode inside the task so the cost lands on the worker's clock.
    if (plan.worker_side_compression) {
      for (size_t o = 0; o < partials[p].size(); ++o) {
        for (size_t a = 0; a < num_aggs; ++a) {
          if (plan.aggregates[a].kind == ServerAggregate::Kind::kAsheSum) {
            AggSlot& slot = partials[p].slot(o, a);
            slot.blobs.push_back(IdListEncode(slot.ids, plan.idlist));
            slot.ids = IdSet();  // shipped as a blob from here on
          }
        }
      }
    }
  });

  // Driver merge: one pass over every task's groups, by fixed-width key. It
  // also does the shuffle accounting of group-by jobs: every task ships its
  // partial groups to reduce tasks, and with fewer groups than workers few
  // reducers drain all the data (the bottleneck group inflation removes).
  driver_sw.Restart();
  size_t partial_groups = 0;
  for (const Groups& local : partials) {
    partial_groups += local.size();
  }
  Groups merged(in.width, num_aggs, partial_groups);
  std::vector<size_t> shipped;  // per merged group: the tasks that had it
  size_t shuffle_bytes = 0;
  for (Groups& local : partials) {
    for (size_t o = 0; o < local.size(); ++o) {
      const uint32_t g = merged.Ordinal(local.table.key(o));
      const bool fresh = g == shipped.size();
      if (fresh) {
        shipped.push_back(0);
      }
      ++shipped[g];
      for (size_t a = 0; a < num_aggs; ++a) {
        AggSlot& src = local.slot(o, a);
        AggSlot& dst = merged.slot(g, a);
        // 8 bytes per aggregate, plus its encoded blob or, compressed at
        // the driver, a raw estimate of its runs.
        shuffle_bytes += 8 + src.ids.NumRuns() * 10;
        for (const Bytes& blob : src.blobs) {
          shuffle_bytes += blob.size();
        }
        if (fresh) {
          dst = std::move(src);
          continue;
        }
        dst.value += src.value;  // kAsheSum, kRowCount
        dst.ids.UnionWith(src.ids);
        std::move(src.blobs.begin(), src.blobs.end(), std::back_inserter(dst.blobs));
        if (src.minmax_valid) {
          dst.OfferMinMax(plan.aggregates[a].kind, src.minmax_ore, src.minmax_cipher,
                          src.minmax_id);
        }
      }
    }
  }

  // Groups leave in ordinal order, each key serialized once, here; the
  // client orders its rows by plaintext group value.
  EncryptedResponse response;
  response.groups.reserve(merged.size());
  for (size_t g = 0; g < merged.size(); ++g) {
    ServerGroup out;
    const uint64_t* parts = merged.table.key(g);
    for (size_t k = 0; k < in.keys.size(); ++k) {
      if (in.keys[k].str != nullptr) {
        const std::string& value = in.keys[k].str->Decode(static_cast<uint32_t>(parts[k]));
        AppendGroupKeyPart(out.key, value);
        out.key_parts.emplace_back(value);
      } else {
        AppendGroupKeyPart(out.key, parts[k]);
        out.key_parts.emplace_back(static_cast<int64_t>(parts[k]));
      }
    }
    if (plan.inflation > 1) {
      out.inflation_suffix = parts[in.keys.size()];
      AppendGroupKeyPart(out.key, out.inflation_suffix);
    }
    shuffle_bytes += shipped[g] * out.key.size();
    out.aggs.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      ServerAggResult& res = out.aggs[a];
      AggSlot& slot = merged.slot(g, a);
      switch (plan.aggregates[a].kind) {
        case ServerAggregate::Kind::kAsheSum:
          res.ashe_value = slot.value;
          res.id_blobs = std::move(slot.blobs);
          if (!plan.worker_side_compression) {
            res.id_blobs.push_back(IdListEncode(slot.ids, plan.idlist));
          }
          break;
        case ServerAggregate::Kind::kRowCount:
          res.row_count = slot.value;
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          res.minmax_valid = slot.minmax_valid;
          res.minmax_ore = slot.minmax_ore;
          res.minmax_cipher = slot.minmax_cipher;
          res.minmax_id = slot.minmax_id;
          break;
      }
    }
    response.groups.push_back(std::move(out));
  }
  if (in.width > 0) {
    response.shuffle_bytes = shuffle_bytes;
    response.shuffle_seconds = cluster.ShuffleSeconds(shuffle_bytes, merged.size());
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
