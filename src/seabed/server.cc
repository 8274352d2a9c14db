#include "src/seabed/server.h"

#include <algorithm>
#include <optional>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/encoding/bitmap.h"
#include "src/encoding/id_list_codec.h"
#include "src/encoding/varint.h"
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

// The groups of one task, or of the merged response: fixed-width keys mapped
// to dense ordinals, num_aggs slots per ordinal (slot(ord, a)) and num_lists
// ID lists per ordinal (list(ord, l)), laid out as a section encodes them.
struct Groups {
  // `expected`: groups to size for up front (a hint).
  Groups(size_t width, size_t num_aggs, size_t num_lists, size_t expected = 0)
      : table(width, expected), num_aggs(num_aggs), num_lists(num_lists) {
    slots.reserve(expected * num_aggs);
    lists.reserve(expected * num_lists);
  }

  size_t size() const { return table.size(); }
  ServerAggResult& slot(size_t ord, size_t a) { return slots[ord * num_aggs + a]; }
  IdSet& list(size_t ord, size_t l) { return lists[ord * num_lists + l]; }

  // Ordinal of the key tuple `parts`, with fresh slots for a new group.
  uint32_t Ordinal(const uint64_t* parts) {
    const uint32_t ord = table.FindOrInsert(parts);
    if (ord + 1 == table.size()) {
      slots.resize(table.size() * num_aggs);
      lists.resize(table.size() * num_lists);
    }
    return ord;
  }

  OrdinalTable table;
  size_t num_aggs;
  size_t num_lists;
  std::vector<ServerAggResult> slots;
  std::vector<IdSet> lists;
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
  // Per join side (fact, right): the ASHE base id of the side's ID list,
  // 0 when the side has no ASHE SUM.
  uint64_t list_base[2] = {0, 0};
};

// Aggregates one task's row ranges into `out`, one kernel row group at a
// time, and returns the rows (join: row pairs) that passed. Ungrouped,
// unjoined scans fold the selection bitmap into group 0 word by word: a
// popcount for COUNT, a masked sum for an ASHE SUM, and the bitmap's set-bit
// runs (offset by the table's base id) for the group's one ID list.
// Otherwise the passing rows (pairs) are gathered, mapped to group ordinals
// through the task's key table, each aggregate runs over them as one loop,
// and each join side with an ASHE SUM adds its ids to its list once.
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
  std::vector<std::pair<uint32_t, uint64_t>> right_ids;
  uint64_t touched = 0;
  // Ungrouped, unjoined: the whole selection folds into group 0.
  auto fold = [&](size_t begin) {
    const uint32_t ord = out.Ordinal(parts.data());
    const uint64_t passing = sel.Count();
    touched += passing;
    for (size_t a = 0; a < num_aggs; ++a) {
      const ServerAggregate& sa = plan.aggregates[a];
      const AggCols& ac = in.aggs[a];
      ServerAggResult& slot = out.slot(ord, a);
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum:
          slot.ashe_value += SumSelected(ac.main.ashe->cells().data() + begin, sel);
          break;
        case ServerAggregate::Kind::kRowCount:
          slot.row_count += passing;
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          sel.ForEachSet([&](size_t bit) {
            const size_t r = begin + bit;
            slot.MergeFrom(sa.kind, {0, 0, true, ac.main.ore->Get(r), ac.companion.ashe->Get(r),
                                     ac.companion.ashe->IdOfRow(r)});
          });
          break;
      }
    }
    if (in.list_base[0] != 0) {
      IdSet& ids = out.list(ord, 0);
      const uint64_t first = in.list_base[0] + begin;
      sel.ForEachRun([&](size_t lo, size_t hi) { ids.AddRange(first + lo, first + hi - 1); });
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
          for (size_t i = 0; i < src.size(); ++i) {
            out.slot(ords[i], a).ashe_value += cells[src[i]];
          }
          break;
        }
        case ServerAggregate::Kind::kRowCount:
          for (const uint32_t ord : ords) {
            ++out.slot(ord, a).row_count;
          }
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          for (size_t i = 0; i < src.size(); ++i) {
            out.slot(ords[i], a).MergeFrom(
                sa.kind, {0, 0, true, ac.main.ore->Get(src[i]), ac.companion.ashe->Get(src[i]),
                          ac.companion.ashe->IdOfRow(src[i])});
          }
          break;
      }
    }
    // Fact rows ascend: this appends, or raises the trailing run's
    // multiplicity for a fact row joined to several right rows.
    for (size_t i = 0; in.list_base[0] != 0 && i < rows.size(); ++i) {
      out.list(ords[i], 0).Add(in.list_base[0] + rows[i]);
    }
    for (size_t i = 0; in.list_base[1] != 0 && i < rights.size(); ++i) {
      right_ids.emplace_back(ords[i], in.list_base[1] + rights[i]);
    }
  };
  const bool folds = in.width == 0 && in.join == nullptr;
  for (const RowRange& range : ranges) {
    filter.ForEachSelection(range, sel, [&](size_t begin) { folds ? fold(begin) : gather(begin); });
  }
  std::sort(right_ids.begin(), right_ids.end());
  for (const auto& [ord, id] : right_ids) {
    out.list(ord, out.num_lists - 1).Add(id);
  }
  return touched;
}

}  // namespace

size_t NumIdLists(const ServerPlan& plan) {
  bool side[2] = {false, false};
  for (const ServerAggregate& sa : plan.aggregates) {
    side[sa.on_right ? 1 : 0] |= sa.kind == ServerAggregate::Kind::kAsheSum;
  }
  return size_t{side[0]} + size_t{side[1]};
}

void ServerAggResult::MergeFrom(ServerAggregate::Kind kind, const ServerAggResult& src) {
  ashe_value += src.ashe_value;
  row_count += src.row_count;
  if (!src.minmax_valid) {
    return;
  }
  if (minmax_valid) {
    const int order = Ore::Compare(src.minmax_ore, minmax_ore).order;
    if (kind == ServerAggregate::Kind::kOreMin ? order >= 0 : order <= 0) {
      return;
    }
  }
  minmax_valid = true;
  minmax_ore = src.minmax_ore;
  minmax_cipher = src.minmax_cipher;
  minmax_id = src.minmax_id;
}

void IdListSection::CompactGroups(size_t response_groups) {
  bool identity = groups.size() == response_groups;
  for (size_t j = 0; identity && j < groups.size(); ++j) {
    identity = groups[j] == j;
  }
  if (identity) {
    groups.clear();
  }
}

size_t EncryptedResponse::PayloadBytes() const {
  size_t bytes = 0;
  for (const ServerGroup& g : groups) {
    bytes += g.key.size() + 8 * g.aggs.size();
    for (const ServerAggResult& agg : g.aggs) {
      bytes += agg.minmax_valid ? 16 : 0;  // cipher + id
    }
  }
  for (const IdListSection& section : id_sections) {
    bytes += section.bytes.size();
    for (const uint32_t g : section.groups) {
      bytes += VarintSize(g);
    }
  }
  return bytes;
}

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
  const size_t num_lists = NumIdLists(plan);
  for (size_t a = 0; a < plan.aggregates.size(); ++a) {
    if (plan.aggregates[a].kind == ServerAggregate::Kind::kAsheSum) {
      const uint64_t base = in.aggs[a].main.ashe->base_id();
      uint64_t& side_base = in.list_base[plan.aggregates[a].on_right ? 1 : 0];
      SEABED_CHECK_MSG(side_base == 0 || side_base == base,
                       "the ASHE columns of one table must share its base id");
      side_base = base;
    }
  }

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
  std::vector<Groups> partials(tasks.size(), Groups(in.width, num_aggs, num_lists));
  std::vector<IdListSection> sections(tasks.size());
  std::vector<uint64_t> touched(tasks.size());
  const ScanFilter fact_filter(plan, pred_cols, /*on_right=*/false);
  const bool encode_at_workers = plan.worker_side_compression && num_lists > 0;
  const JobStats job = cluster.RunJob(tasks.size(), [&](size_t p) {
    touched[p] = AggregateTask(in, fact_filter, tasks[p], partials[p]);
    // Worker-side ID-list compression (Section 4.5's winning configuration):
    // encode the task's section inside the task so the cost lands on the
    // worker's clock.
    if (encode_at_workers && partials[p].size() > 0) {
      sections[p].bytes = IdListSectionEncode(partials[p].lists, num_lists, plan.idlist);
      partials[p].lists = {};  // shipped as the section from here on
    }
  });

  // Driver merge: one pass over every task's groups, by fixed-width key. It
  // also does the shuffle accounting of group-by jobs: every task ships its
  // partial groups to reduce tasks, and with fewer groups than workers few
  // reducers drain all the data (the bottleneck group inflation removes).
  // A task's section keeps its bytes; only its group ordinals are remapped.
  driver_sw.Restart();
  size_t partial_groups = 0;
  for (const Groups& local : partials) {
    partial_groups += local.size();
  }
  Groups merged(in.width, num_aggs, encode_at_workers ? 0 : num_lists, partial_groups);
  std::vector<size_t> shipped;  // per merged group: the tasks that had it
  size_t shuffle_bytes = 0;
  EncryptedResponse response;
  for (size_t p = 0; p < partials.size(); ++p) {
    Groups& local = partials[p];
    shuffle_bytes += sections[p].bytes.size();
    sections[p].groups.resize(local.size());
    for (size_t o = 0; o < local.size(); ++o) {
      const uint32_t g = merged.Ordinal(local.table.key(o));
      if (g == shipped.size()) {
        shipped.push_back(0);
      }
      ++shipped[g];
      // 8 bytes per aggregate; lists compressed at the driver ship a raw
      // estimate of their runs.
      shuffle_bytes += 8 * num_aggs;
      if (encode_at_workers) {
        sections[p].groups[o] = g;
      } else {
        for (size_t l = 0; l < num_lists; ++l) {
          shuffle_bytes += local.list(o, l).NumRuns() * 10;
          merged.list(g, l).UnionWith(local.list(o, l));
        }
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        merged.slot(g, a).MergeFrom(plan.aggregates[a].kind, local.slot(o, a));
      }
    }
  }
  for (IdListSection& section : sections) {
    if (!section.bytes.empty()) {
      section.CompactGroups(merged.size());
      response.id_sections.push_back(std::move(section));
    }
  }
  // Driver-side compression: one section for every group of the response.
  if (!encode_at_workers && num_lists > 0 && merged.size() > 0) {
    response.id_sections.push_back(
        {{}, IdListSectionEncode(merged.lists, num_lists, plan.idlist)});
  }

  // Groups leave in ordinal order, each key serialized once, here; the
  // client orders its rows by plaintext group value.
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
      AppendGroupKeyPart(out.key, parts[in.keys.size()]);
    }
    shuffle_bytes += shipped[g] * out.key.size();
    out.aggs.assign(merged.slots.begin() + g * num_aggs,
                    merged.slots.begin() + (g + 1) * num_aggs);
    response.groups.push_back(std::move(out));
  }
  if (in.width > 0) {
    response.shuffle_bytes = shuffle_bytes;
    response.shuffle_seconds = cluster.ShuffleSeconds(shuffle_bytes, merged.size());
  }
  driver_seconds += driver_sw.ElapsedSeconds();

  response.response_bytes = response.PayloadBytes();
  response.job = job;
  response.driver_seconds = driver_seconds;
  for (const uint64_t t : touched) {
    response.rows_touched += t;
  }
  return response;
}

}  // namespace seabed
