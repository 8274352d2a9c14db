#include "src/query/plain_executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/stopwatch.h"

namespace seabed {
namespace {

int CompareInt(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

// Running state for one aggregate within one group.
struct AggState {
  int64_t sum = 0;
  double sum_squares = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  int64_t count = 0;

  void Observe(int64_t v) {
    sum += v;
    sum_squares += static_cast<double>(v) * static_cast<double>(v);
    min = std::min(min, v);
    max = std::max(max, v);
    ++count;
  }

  void Merge(const AggState& o) {
    sum += o.sum;
    sum_squares += o.sum_squares;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    count += o.count;
  }
};

struct GroupState {
  std::vector<Value> group_values;
  std::vector<AggState> aggs;
};

Value Finalize(const Aggregate& agg, const AggState& s) {
  switch (agg.func) {
    case AggFunc::kSum:
      return s.sum;
    case AggFunc::kCount:
      return s.count;
    case AggFunc::kAvg:
      return s.count == 0 ? 0.0 : static_cast<double>(s.sum) / static_cast<double>(s.count);
    case AggFunc::kMin:
      return s.count == 0 ? int64_t{0} : s.min;
    case AggFunc::kMax:
      return s.count == 0 ? int64_t{0} : s.max;
    case AggFunc::kVariance: {
      if (s.count == 0) {
        return 0.0;
      }
      const double mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
      return s.sum_squares / static_cast<double>(s.count) - mean * mean;
    }
    case AggFunc::kStddev: {
      if (s.count == 0) {
        return 0.0;
      }
      const double mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
      const double var = s.sum_squares / static_cast<double>(s.count) - mean * mean;
      return std::sqrt(std::max(0.0, var));
    }
  }
  return int64_t{0};
}

}  // namespace

namespace {

// A column reference resolved against the fact table or the joined table.
struct ResolvedColumn {
  const Table* table = nullptr;
  bool on_right = false;
  std::string name;  // without the "right:" prefix
};

constexpr const char kRightPrefix[] = "right:";

ResolvedColumn ResolveColumn(const std::string& name, const Table& fact, const Table* right) {
  ResolvedColumn rc;
  if (name.rfind(kRightPrefix, 0) == 0) {
    SEABED_CHECK_MSG(right != nullptr, "joined column " << name << " without a right table");
    rc.table = right;
    rc.on_right = true;
    rc.name = name.substr(sizeof(kRightPrefix) - 1);
  } else {
    rc.table = &fact;
    rc.name = name;
  }
  return rc;
}

int64_t IntCell(const Table& t, const std::string& column, size_t row) {
  const ColumnPtr& col = t.GetColumn(column);
  SEABED_CHECK(col->type() == ColumnType::kInt64);
  return static_cast<const Int64Column*>(col.get())->Get(row);
}

Value CellValue(const Table& t, const std::string& column, size_t row) {
  const ColumnPtr& col = t.GetColumn(column);
  if (col->type() == ColumnType::kInt64) {
    return static_cast<const Int64Column*>(col.get())->Get(row);
  }
  SEABED_CHECK_MSG(col->type() == ColumnType::kString,
                   "unsupported plaintext column type for " << column);
  return static_cast<const StringColumn*>(col.get())->Get(row);
}

bool PredicateHolds(const Predicate& pred, const ResolvedColumn& rc, size_t row) {
  const ColumnPtr& col = rc.table->GetColumn(rc.name);
  if (col->type() == ColumnType::kInt64) {
    const int64_t v = static_cast<const Int64Column*>(col.get())->Get(row);
    const int64_t operand = std::get<int64_t>(pred.operand);
    return CmpOpMatchesOrder(pred.op, CompareInt(v, operand));
  }
  SEABED_CHECK_MSG(col->type() == ColumnType::kString,
                   "plaintext predicate on encrypted column " << rc.name);
  SEABED_CHECK_MSG(pred.op == CmpOp::kEq || pred.op == CmpOp::kNe,
                   "string predicates support equality only");
  const bool eq = static_cast<const StringColumn*>(col.get())->Get(row) ==
                  std::get<std::string>(pred.operand);
  return (pred.op == CmpOp::kEq) == eq;
}

}  // namespace

ResultSet ExecutePlain(const Table& table, const Query& query, const Cluster& cluster,
                       const Table* right, QueryStats* stats) {
  const size_t num_aggs = query.aggregates.size();

  // Resolve every column reference once, up front.
  std::vector<ResolvedColumn> filter_cols;
  filter_cols.reserve(query.filters.size());
  for (const Predicate& p : query.filters) {
    filter_cols.push_back(ResolveColumn(p.column, table, right));
  }
  std::vector<ResolvedColumn> group_cols;
  group_cols.reserve(query.group_by.size());
  for (const std::string& g : query.group_by) {
    group_cols.push_back(ResolveColumn(g, table, right));
  }
  std::vector<ResolvedColumn> agg_cols(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!query.aggregates[a].column.empty()) {
      agg_cols[a] = ResolveColumn(query.aggregates[a].column, table, right);
    }
  }

  // Broadcast hash join: right join column value -> right row numbers.
  std::unordered_multimap<std::string, size_t> join_index;
  const bool has_join = query.join.has_value();
  if (has_join) {
    SEABED_CHECK_MSG(right != nullptr,
                     "join against " << query.join->right_table << " without a right table");
    const ResolvedColumn right_key{right, true,
                                   query.join->right_column.rfind(kRightPrefix, 0) == 0
                                       ? query.join->right_column.substr(sizeof(kRightPrefix) - 1)
                                       : query.join->right_column};
    for (size_t r = 0; r < right->NumRows(); ++r) {
      join_index.emplace(ValueToString(CellValue(*right_key.table, right_key.name, r)), r);
    }
  }

  const auto partitions = table.Partitions(cluster.num_workers());
  std::vector<std::unordered_map<std::string, GroupState>> partials(partitions.size());
  std::vector<uint64_t> touched(partitions.size(), 0);

  const JobStats job = cluster.RunJob(partitions.size(), [&](size_t p) {
    auto& local = partials[p];
    auto process = [&](size_t row, size_t right_row) {
      for (size_t f = 0; f < query.filters.size(); ++f) {
        const ResolvedColumn& rc = filter_cols[f];
        if (!PredicateHolds(query.filters[f], rc, rc.on_right ? right_row : row)) {
          return;
        }
      }
      ++touched[p];
      std::string key;
      for (const ResolvedColumn& rc : group_cols) {
        // Length-prefixed so adjacent parts can never alias (see
        // AppendGroupKeyPart in src/engine/value.h).
        AppendGroupKeyPart(key,
                           ValueToString(CellValue(*rc.table, rc.name, rc.on_right ? right_row : row)));
      }
      GroupState& group = local[key];
      if (group.aggs.empty()) {
        group.aggs.resize(num_aggs);
        for (const ResolvedColumn& rc : group_cols) {
          group.group_values.push_back(
              CellValue(*rc.table, rc.name, rc.on_right ? right_row : row));
        }
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        int64_t v = 0;
        if (!query.aggregates[a].column.empty()) {
          const ResolvedColumn& rc = agg_cols[a];
          v = IntCell(*rc.table, rc.name, rc.on_right ? right_row : row);
        }
        group.aggs[a].Observe(v);
      }
    };
    for (size_t row = partitions[p].begin; row < partitions[p].end; ++row) {
      if (has_join) {
        const std::string left_key = ValueToString(CellValue(table, query.join->left_column, row));
        const auto [lo, hi] = join_index.equal_range(left_key);
        for (auto it = lo; it != hi; ++it) {
          process(row, it->second);
        }
      } else {
        process(row, 0);
      }
    }
  });

  // Driver-side merge (ordered map for deterministic output).
  Stopwatch client_sw;
  std::map<std::string, GroupState> merged;
  for (auto& partial : partials) {
    for (auto& [key, group] : partial) {
      auto [it, inserted] = merged.try_emplace(key, std::move(group));
      if (!inserted) {
        for (size_t a = 0; a < num_aggs; ++a) {
          it->second.aggs[a].Merge(group.aggs[a]);
        }
      }
    }
  }

  // SQL semantics: a global aggregate (no GROUP BY) over zero rows still
  // yields one result row.
  if (merged.empty() && query.group_by.empty()) {
    merged.emplace("", GroupState{{}, std::vector<AggState>(num_aggs)});
  }

  ResultSet result;
  size_t result_bytes = 0;
  for (const std::string& g : query.group_by) {
    result.column_names.push_back(g);
  }
  for (const Aggregate& agg : query.aggregates) {
    result.column_names.push_back(agg.alias);
  }
  for (auto& [key, group] : merged) {
    std::vector<Value> row = group.group_values;
    for (size_t a = 0; a < num_aggs; ++a) {
      row.push_back(Finalize(query.aggregates[a], group.aggs[a]));
    }
    result_bytes += row.size() * 8;
    result.rows.push_back(std::move(row));
  }
  SortRowsByGroupValues(result.rows, query.group_by.size());
  if (stats != nullptr) {
    stats->backend = "plain";
    stats->job = job;
    stats->server_seconds = job.server_seconds;
    stats->result_bytes = result_bytes;
    stats->result_rows = result.rows.size();
    stats->network_seconds = cluster.config().client_link.TransferSeconds(result_bytes);
    stats->client_seconds = client_sw.ElapsedSeconds();
    stats->rows_touched = 0;
    for (const uint64_t t : touched) {
      stats->rows_touched += t;
    }
  }
  return result;
}

}  // namespace seabed
