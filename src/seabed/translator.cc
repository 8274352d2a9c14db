#include "src/seabed/translator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/crypto/det.h"
#include "src/seabed/probe.h"

namespace seabed {
namespace {

bool IsRightRef(const std::string& name) { return name.rfind("right:", 0) == 0; }

std::string StripRight(const std::string& name) {
  return IsRightRef(name) ? name.substr(6) : name;
}

std::string OperandAsString(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    return std::to_string(*i);
  }
  return std::get<std::string>(v);
}

}  // namespace

TranslatedQuery Translator::Translate(const Query& query,
                                      const TranslatorOptions& options) const {
  TranslatedQuery out;
  ServerPlan& server = out.server;
  ClientPlan& client = out.client;
  const EncryptionPlan& plan = db_->plan;

  server.table = db_->table->name();
  SEABED_CHECK_MSG(!query.join.has_value() || !IsRightRef(query.join->left_column),
                   "join left column must belong to the fact table");
  const auto check_joined = [&](const std::string& column) {
    SEABED_CHECK_MSG(query.join.has_value() || !IsRightRef(column),
                     "joined column " << column << " without a join");
  };
  for (const Predicate& pred : query.filters) {
    check_joined(pred.column);
  }
  for (const Aggregate& agg : query.aggregates) {
    check_joined(agg.column);
  }
  for (const std::string& g : query.group_by) {
    check_joined(g);
  }

  // --- SPLASHE filter rewriting ---------------------------------------------
  // At most one SPLASHE-protected dimension may be filtered per query; the
  // rewrite redirects measure/count columns to the splayed variants.
  std::map<std::string, std::string> measure_map;  // plain measure -> enc col
  std::string splashe_count_column;                // enc indicator column
  bool have_splashe_filter = false;

  std::vector<Predicate> remaining_filters;
  for (const Predicate& pred : query.filters) {
    if (IsRightRef(pred.column)) {
      remaining_filters.push_back(pred);
      continue;
    }
    const SplasheLayout* layout = plan.FindSplashe(pred.column);
    if (layout == nullptr) {
      remaining_filters.push_back(pred);
      continue;
    }
    SEABED_CHECK_MSG(pred.op == CmpOp::kEq,
                     "SPLASHE dimensions support equality predicates only");
    SEABED_CHECK_MSG(pred.param < 0,
                     "placeholder on SPLASHE-protected column '"
                         << pred.column
                         << "': the rewrite depends on the literal value; bind before "
                            "translating (Session::Prepare falls back automatically)");
    SEABED_CHECK_MSG(!have_splashe_filter,
                     "at most one SPLASHE-protected dimension per query");
    have_splashe_filter = true;
    const std::string value = OperandAsString(pred.operand);

    if (layout->IsSplayedValue(value)) {
      // Frequent (or basic-mode) value: no server predicate at all; the
      // splayed columns already encode the filter.
      splashe_count_column = layout->CountColumn(value);
      for (const std::string& m : layout->splayed_measures) {
        measure_map[m] = SplasheLayout::MeasureColumn(m, value);
      }
    } else {
      SEABED_CHECK_MSG(layout->enhanced,
                       "value '" << value << "' missing from basic SPLASHE domain of "
                                 << pred.column);
      // Infrequent value: DET equality on the equalized column, aggregates
      // over the "others" columns.
      ServerPredicate sp;
      sp.kind = ServerPredicate::Kind::kDetEq;
      sp.column = layout->DetColumn();
      sp.op = CmpOp::kEq;
      const DetToken det(
          keys_->DeriveColumnKey(ColumnKeyLabel(plan.table_name, layout->DetColumn())));
      sp.det_token = det.Tag(value);
      server.predicates.push_back(sp);
      splashe_count_column = layout->OthersCountColumn();
      for (const std::string& m : layout->splayed_measures) {
        measure_map[m] = SplasheLayout::OthersMeasureColumn(m);
      }
    }
  }

  // --- remaining predicates ---------------------------------------------------
  auto plan_for = [&](const std::string& plain_col, bool on_right) -> const ColumnPlan& {
    SEABED_CHECK_MSG(!on_right, "right-table predicates need the right plan; rewrite "
                                "the query against that table instead");
    return plan.Plan(plain_col);
  };

  for (const Predicate& pred : remaining_filters) {
    const bool on_right = IsRightRef(pred.column);
    const std::string col = StripRight(pred.column);
    ServerPredicate sp;
    sp.on_right = on_right;
    sp.op = pred.op;
    sp.param = pred.param;
    if (on_right) {
      // Right-table columns are assumed plaintext or pre-translated by the
      // caller; only plain predicates are supported through this path.
      sp.column = col;
      if (pred.param >= 0) {
        sp.kind = ServerPredicate::Kind::kPlainInt;  // refined by the bound value's type
      } else if (const auto* i = std::get_if<int64_t>(&pred.operand)) {
        sp.kind = ServerPredicate::Kind::kPlainInt;
        sp.int_operand = *i;
      } else {
        sp.kind = ServerPredicate::Kind::kPlainString;
        sp.str_operand = std::get<std::string>(pred.operand);
      }
      server.predicates.push_back(sp);
      continue;
    }
    const ColumnPlan& cp = plan_for(col, false);
    const bool is_range = pred.op != CmpOp::kEq && pred.op != CmpOp::kNe;
    if (cp.scheme == EncScheme::kPlain) {
      sp.column = col;
      if (pred.param >= 0) {
        sp.kind = ServerPredicate::Kind::kPlainInt;  // refined by the bound value's type
      } else if (const auto* i = std::get_if<int64_t>(&pred.operand)) {
        sp.kind = ServerPredicate::Kind::kPlainInt;
        sp.int_operand = *i;
      } else {
        sp.kind = ServerPredicate::Kind::kPlainString;
        sp.str_operand = std::get<std::string>(pred.operand);
      }
    } else if (is_range) {
      SEABED_CHECK_MSG(cp.scheme == EncScheme::kOpe || cp.add_ope,
                       "range predicate on column '" << col << "' which has no OPE column");
      sp.kind = ServerPredicate::Kind::kOreCmp;
      sp.column = col + "#ope";
      const AesKey key = keys_->DeriveColumnKey(ColumnKeyLabel(plan.table_name, sp.column));
      if (pred.param >= 0) {
        sp.bind_key = key;
      } else {
        const Ore ore(key);
        sp.ore_operand = ore.Encrypt(static_cast<uint64_t>(std::get<int64_t>(pred.operand)));
      }
    } else {
      SEABED_CHECK_MSG(cp.scheme == EncScheme::kDet || cp.add_det,
                       "equality predicate on column '" << col << "' which has no DET column");
      sp.kind = ServerPredicate::Kind::kDetEq;
      sp.column = col + "#det";
      const AesKey key = keys_->DeriveColumnKey(plan.DetKeyLabelFor(col));
      if (pred.param >= 0) {
        sp.bind_key = key;
      } else if (const auto* i = std::get_if<int64_t>(&pred.operand)) {
        sp.det_token = DetInt(key).Encrypt(static_cast<uint64_t>(*i));
      } else {
        sp.det_token = DetToken(key).Tag(std::get<std::string>(pred.operand));
      }
    }
    server.predicates.push_back(sp);
  }

  // --- join -------------------------------------------------------------------
  if (query.join.has_value()) {
    Join j = *query.join;
    const ColumnPlan& cp = plan.Plan(j.left_column);
    if (cp.scheme == EncScheme::kDet || cp.add_det) {
      j.left_column += "#det";
      j.right_column = StripRight(j.right_column) + "#det";
    }
    server.join = j;
  }

  // --- aggregates ---------------------------------------------------------------
  auto add_server_agg = [&](ServerAggregate agg) -> size_t {
    for (size_t i = 0; i < server.aggregates.size(); ++i) {
      const ServerAggregate& e = server.aggregates[i];
      if (e.kind == agg.kind && e.column == agg.column && e.on_right == agg.on_right) {
        return i;
      }
    }
    server.aggregates.push_back(std::move(agg));
    return server.aggregates.size() - 1;
  };

  auto ashe_col_for = [&](const std::string& plain_measure, bool on_right) -> std::string {
    if (!on_right) {
      const auto it = measure_map.find(plain_measure);
      if (it != measure_map.end()) {
        return it->second;
      }
    }
    return plain_measure + "#ashe";
  };

  auto add_count_agg = [&]() -> size_t {
    if (!splashe_count_column.empty()) {
      ServerAggregate agg;
      agg.kind = ServerAggregate::Kind::kAsheSum;
      agg.column = splashe_count_column;
      return add_server_agg(std::move(agg));
    }
    ServerAggregate agg;
    agg.kind = ServerAggregate::Kind::kRowCount;
    return add_server_agg(std::move(agg));
  };

  for (const Aggregate& agg : query.aggregates) {
    const bool on_right = IsRightRef(agg.column);
    const std::string col = StripRight(agg.column);
    ClientOutput output;
    output.alias = agg.alias;
    switch (agg.func) {
      case AggFunc::kSum: {
        ServerAggregate sa;
        sa.kind = ServerAggregate::Kind::kAsheSum;
        sa.column = ashe_col_for(col, on_right);
        sa.on_right = on_right;
        output.kind = ClientOutput::Kind::kSum;
        output.arg0 = add_server_agg(std::move(sa));
        break;
      }
      case AggFunc::kCount: {
        output.kind = ClientOutput::Kind::kCount;
        output.arg0 = add_count_agg();
        break;
      }
      case AggFunc::kAvg: {
        ServerAggregate sum;
        sum.kind = ServerAggregate::Kind::kAsheSum;
        sum.column = ashe_col_for(col, on_right);
        sum.on_right = on_right;
        output.kind = ClientOutput::Kind::kAvg;
        output.arg0 = add_server_agg(std::move(sum));
        output.arg1 = add_count_agg();
        break;
      }
      case AggFunc::kVariance:
      case AggFunc::kStddev: {
        SEABED_CHECK_MSG(measure_map.find(col) == measure_map.end(),
                         "variance over SPLASHE-splayed measures is not supported");
        ServerAggregate sq;
        sq.kind = ServerAggregate::Kind::kAsheSum;
        sq.column = col + "#sq#ashe";
        sq.on_right = on_right;
        ServerAggregate sum;
        sum.kind = ServerAggregate::Kind::kAsheSum;
        sum.column = col + "#ashe";
        sum.on_right = on_right;
        output.kind = agg.func == AggFunc::kVariance ? ClientOutput::Kind::kVariance
                                                     : ClientOutput::Kind::kStddev;
        output.arg0 = add_server_agg(std::move(sq));
        output.arg1 = add_server_agg(std::move(sum));
        output.arg2 = add_count_agg();
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        SEABED_CHECK_MSG(!have_splashe_filter,
                         "MIN/MAX cannot be combined with a SPLASHE-rewritten filter; "
                         "the planner should have used DET for this dimension");
        ServerAggregate mm;
        mm.kind = agg.func == AggFunc::kMin ? ServerAggregate::Kind::kOreMin
                                            : ServerAggregate::Kind::kOreMax;
        mm.column = col + "#ope";
        mm.value_column = col + "#ashe";
        mm.on_right = on_right;
        output.kind = ClientOutput::Kind::kMinMax;
        output.arg0 = add_server_agg(std::move(mm));
        break;
      }
    }
    client.outputs.push_back(std::move(output));
  }

  // A SPLASHE-rewritten filter never reaches the server as a predicate, so
  // grouped scans materialize every group the OTHER predicates admit — even
  // ones where the filtered value never occurs. Ship the filter's count
  // aggregate (deduped against any COUNT/AVG already using it) so the client
  // can drop those all-zero groups, matching plaintext GROUP BY semantics.
  if (!splashe_count_column.empty() && !query.group_by.empty()) {
    client.splashe_filter_count = static_cast<int>(add_count_agg());
  }

  // --- group by ---------------------------------------------------------------
  for (const std::string& g : query.group_by) {
    const bool on_right = IsRightRef(g);
    const std::string col = StripRight(g);
    ServerGroupBy sg;
    sg.on_right = on_right;
    ClientGroupOutput cg;
    cg.plain_name = col;
    cg.on_right = on_right;
    if (on_right) {
      sg.column = col;
      cg.kind = ClientGroupOutput::Kind::kPlainString;  // resolved at decode time
      cg.enc_column = col;
    } else {
      const ColumnPlan& cp = plan.Plan(col);
      if (cp.scheme == EncScheme::kPlain) {
        sg.column = col;
        cg.kind = ClientGroupOutput::Kind::kPlainInt;  // refined at decode time
        cg.enc_column = col;
      } else {
        SEABED_CHECK_MSG(cp.scheme == EncScheme::kDet || cp.add_det,
                         "GROUP BY on column '" << col << "' which has no DET column");
        sg.column = col + "#det";
        cg.enc_column = sg.column;
        cg.key_label = plan.DetKeyLabelFor(col);
        const auto type_it = db_->det_value_types.find(sg.column);
        SEABED_CHECK(type_it != db_->det_value_types.end());
        cg.kind = type_it->second == ColumnType::kInt64 ? ClientGroupOutput::Kind::kDetInt
                                                        : ClientGroupOutput::Kind::kDetString;
      }
    }
    server.group_by.push_back(std::move(sg));
    client.group_outputs.push_back(std::move(cg));
  }

  // --- group inflation + codec selection (Section 4.5) -------------------------
  server.idlist = options.idlist;
  server.worker_side_compression = options.worker_side_compression;
  if (!server.group_by.empty()) {
    // Group-by ID lists are sparse: drop range encoding, keep diff + VB.
    server.idlist.use_range = false;
    if (options.enable_group_inflation && query.expected_groups > 0 &&
        query.expected_groups < options.cluster_workers) {
      server.inflation =
          (options.cluster_workers + query.expected_groups - 1) / query.expected_groups;
    }
  }
  client.inflation = server.inflation;

  // --- probe section (two-round execution, src/seabed/probe.h) -----------------
  out.probe = DeriveProbeSection(server);
  return out;
}

// --- parameter binding -------------------------------------------------------

TranslatedQuery BindTranslatedQuery(const TranslatedQuery& shape,
                                    std::span<const Value> params) {
  TranslatedQuery out = shape;
  for (ServerPredicate& sp : out.server.predicates) {
    if (sp.param < 0) {
      continue;
    }
    SEABED_CHECK_MSG(static_cast<size_t>(sp.param) < params.size(),
                     "bind: no value for placeholder slot " << sp.param);
    const Value& v = params[static_cast<size_t>(sp.param)];
    switch (sp.kind) {
      case ServerPredicate::Kind::kOreCmp: {
        const auto* i = std::get_if<int64_t>(&v);
        SEABED_CHECK_MSG(i != nullptr, "bind: range placeholder on '"
                                           << sp.column << "' requires an integer value");
        sp.ore_operand = Ore(sp.bind_key).Encrypt(static_cast<uint64_t>(*i));
        break;
      }
      case ServerPredicate::Kind::kDetEq: {
        if (const auto* i = std::get_if<int64_t>(&v)) {
          sp.det_token = DetInt(sp.bind_key).Encrypt(static_cast<uint64_t>(*i));
        } else {
          const auto* s = std::get_if<std::string>(&v);
          SEABED_CHECK_MSG(s != nullptr, "bind: equality placeholder on '"
                                             << sp.column
                                             << "' requires an int or string value");
          sp.det_token = DetToken(sp.bind_key).Tag(*s);
        }
        break;
      }
      case ServerPredicate::Kind::kPlainInt:
      case ServerPredicate::Kind::kPlainString: {
        if (const auto* i = std::get_if<int64_t>(&v)) {
          sp.kind = ServerPredicate::Kind::kPlainInt;
          sp.int_operand = *i;
        } else {
          const auto* s = std::get_if<std::string>(&v);
          SEABED_CHECK_MSG(s != nullptr, "bind: plain placeholder on '"
                                             << sp.column
                                             << "' requires an int or string value");
          sp.kind = ServerPredicate::Kind::kPlainString;
          sp.str_operand = *s;
        }
        break;
      }
    }
  }
  // The probe section holds verbatim copies of the fact-side predicates
  // (DeriveProbeSection), so its slots mirror the server ones — copy each
  // bound predicate over by slot instead of re-deriving (and re-copying)
  // the whole section on the per-execution warm path.
  for (ServerPredicate& pp : out.probe.predicates) {
    if (pp.param < 0) {
      continue;
    }
    for (const ServerPredicate& sp : out.server.predicates) {
      if (sp.param == pp.param && !sp.on_right) {
        pp = sp;
        break;
      }
    }
    pp.param = -1;
  }
  for (ServerPredicate& sp : out.server.predicates) {
    sp.param = -1;
  }
  return out;
}

// --- translated-plan cache ---------------------------------------------------

std::string PlanCacheKey(const Query& query, const TranslatorOptions& options) {
  return query.Fingerprint(Query::FingerprintMode::kExact) +
         PlanCacheKeySuffix(query.expected_groups, options);
}

std::string PlanCacheKeySuffix(size_t expected_groups, const TranslatorOptions& options) {
  std::string key = ";eg=" + std::to_string(expected_groups);
  key += ";w=" + std::to_string(options.cluster_workers);
  key += ";gi=" + std::to_string(options.enable_group_inflation ? 1 : 0);
  key += ";il=" + std::to_string(options.idlist.use_range ? 1 : 0) +
         std::to_string(options.idlist.use_diff ? 1 : 0) +
         std::to_string(options.idlist.use_vb ? 1 : 0) +
         std::to_string(static_cast<int>(options.idlist.compression));
  key += ";wc=" + std::to_string(options.worker_side_compression ? 1 : 0);
  return key;
}

}  // namespace seabed
