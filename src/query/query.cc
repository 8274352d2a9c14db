#include "src/query/query.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"

namespace seabed {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kVariance:
      return "variance";
    case AggFunc::kStddev:
      return "stddev";
  }
  return "?";
}

namespace {

const char* CmpOpToken(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

// Typed literal rendering so `x = 1` and `x = '1'` fingerprint apart.
std::string TypedLiteral(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    return "i" + std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "d%.17g", *d);
    return buf;
  }
  return "s" + std::get<std::string>(v);
}

// Length-prefixes every variable-length component (column names, aliases,
// literals): user-controlled strings may contain the fingerprint's own
// separator characters, and an unescaped `dim = "x&grp=sy"` must not
// collide with the two-predicate `dim="x" AND grp="y"`.
void AppendToken(std::string& out, const std::string& token) {
  out += std::to_string(token.size());
  out += ':';
  out += token;
}

std::string DefaultAlias(AggFunc func, const std::string& column) {
  std::string name = AggFuncName(func);
  if (!column.empty()) {
    name += "_" + column;
  }
  return name;
}
}  // namespace

std::string Query::Fingerprint(FingerprintMode mode) const {
  std::string key = "t=";
  AppendToken(key, table);

  key += ";a=";
  for (const Aggregate& agg : aggregates) {
    key += AggFuncName(agg.func);
    AppendToken(key, agg.column);
    AppendToken(key, agg.alias);
  }

  // A WHERE clause is a conjunction: serialize each predicate, then sort, so
  // reordered dashboards share a cache line.
  std::vector<std::string> preds;
  preds.reserve(filters.size());
  for (const Predicate& p : filters) {
    std::string s;
    AppendToken(s, p.column);
    s += CmpOpToken(p.op);
    std::string literal;
    if (mode == FingerprintMode::kShape) {
      literal = "?";
    } else if (p.param >= 0) {
      // Unbound placeholder: the slot is the literal's identity. `?N` cannot
      // collide with TypedLiteral output, which always starts with i/d/s.
      literal = "?" + std::to_string(p.param);
    } else {
      literal = TypedLiteral(p.operand);
    }
    AppendToken(s, literal);
    preds.push_back(std::move(s));
  }
  std::sort(preds.begin(), preds.end());
  key += ";f=";
  for (const std::string& pred : preds) {
    key += pred;
  }

  key += ";g=";
  for (const std::string& column : group_by) {
    AppendToken(key, column);
  }

  if (join.has_value()) {
    key += ";j=";
    AppendToken(key, join->right_table);
    AppendToken(key, join->left_column);
    AppendToken(key, join->right_column);
  }
  if (has_udf) {
    key += ";udf";
  }
  return key;
}

Query& Query::Sum(const std::string& column, const std::string& alias) {
  aggregates.push_back({AggFunc::kSum, column,
                        alias.empty() ? DefaultAlias(AggFunc::kSum, column) : alias});
  return *this;
}

Query& Query::Count(const std::string& alias) {
  aggregates.push_back({AggFunc::kCount, "", alias.empty() ? "count" : alias});
  return *this;
}

Query& Query::Avg(const std::string& column, const std::string& alias) {
  aggregates.push_back({AggFunc::kAvg, column,
                        alias.empty() ? DefaultAlias(AggFunc::kAvg, column) : alias});
  return *this;
}

Query& Query::Min(const std::string& column, const std::string& alias) {
  aggregates.push_back({AggFunc::kMin, column,
                        alias.empty() ? DefaultAlias(AggFunc::kMin, column) : alias});
  return *this;
}

Query& Query::Max(const std::string& column, const std::string& alias) {
  aggregates.push_back({AggFunc::kMax, column,
                        alias.empty() ? DefaultAlias(AggFunc::kMax, column) : alias});
  return *this;
}

Query& Query::Variance(const std::string& column, const std::string& alias) {
  aggregates.push_back({AggFunc::kVariance, column,
                        alias.empty() ? DefaultAlias(AggFunc::kVariance, column) : alias});
  return *this;
}

size_t Query::num_params() const {
  int max_slot = -1;
  for (const Predicate& p : filters) {
    max_slot = std::max(max_slot, p.param);
  }
  return static_cast<size_t>(max_slot + 1);
}

Query Query::BindParams(std::span<const Value> params) const {
  SEABED_CHECK_MSG(params.size() == num_params(),
                   "BindParams: query has " << num_params() << " placeholder slot(s), got "
                                            << params.size() << " value(s)");
  Query bound = *this;
  for (Predicate& p : bound.filters) {
    if (p.param < 0) {
      continue;
    }
    p.operand = params[static_cast<size_t>(p.param)];
    p.param = -1;
  }
  return bound;
}

Query& Query::Where(const std::string& column, CmpOp op, Value operand) {
  filters.push_back({column, op, std::move(operand)});
  return *this;
}

Query& Query::WhereParam(const std::string& column, CmpOp op) {
  Predicate p;
  p.column = column;
  p.op = op;
  p.param = static_cast<int>(num_params());
  filters.push_back(std::move(p));
  return *this;
}

Query& Query::GroupBy(const std::string& column) {
  group_by.push_back(column);
  return *this;
}

void SortRowsByGroupValues(std::vector<std::vector<Value>>& rows, size_t num_group_cols) {
  std::sort(rows.begin(), rows.end(),
            [num_group_cols](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t g = 0; g < num_group_cols; ++g) {
                if (a[g] != b[g]) {
                  return a[g] < b[g];
                }
              }
              return false;
            });
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::ostringstream oss;
  for (size_t i = 0; i < column_names.size(); ++i) {
    oss << (i ? " | " : "") << column_names[i];
  }
  oss << "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ == max_rows) {
      oss << "... (" << rows.size() - max_rows << " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      oss << (i ? " | " : "") << ValueToString(row[i]);
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace seabed
