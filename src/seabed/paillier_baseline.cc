#include "src/seabed/paillier_baseline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/crypto/det.h"

namespace seabed {
namespace {

// Rewrites an ASHE column name to its Paillier twin: "m#ashe" -> "m#paillier".
std::string PaillierColumnName(const std::string& ashe_column) {
  const std::string suffix = "#ashe";
  SEABED_CHECK_MSG(ashe_column.size() > suffix.size() &&
                       ashe_column.compare(ashe_column.size() - suffix.size(), suffix.size(),
                                           suffix) == 0,
                   "not an ASHE column: " << ashe_column);
  return ashe_column.substr(0, ashe_column.size() - suffix.size()) + "#paillier";
}

struct PartialAgg {
  BigNum product{1};  // multiplicative identity == Enc(0) with unit randomness
  bool touched = false;
  uint64_t count = 0;
  bool minmax_valid = false;
  OreCiphertext minmax_ore;
  BigNum minmax_cipher;
};

struct PartialGroup {
  std::vector<Value> key_parts;
  std::vector<PartialAgg> aggs;
};

}  // namespace

ResultSet PaillierBaseline::Execute(const EncryptedDatabase& db, const TranslatedQuery& tq,
                                    const Cluster& cluster, const EncryptedDatabase* right_db,
                                    const Table* right_table, QueryStats* stats) const {
  const ServerPlan& splan = tq.server;
  const ClientPlan& cplan = tq.client;
  const Table& fact = *db.table;
  const Table* right = right_table;

  // Broadcast join index on DET tokens.
  std::unordered_multimap<uint64_t, size_t> join_index;
  const DetColumn* join_left = nullptr;
  if (splan.join.has_value()) {
    SEABED_CHECK(right != nullptr);
    const auto* right_key =
        static_cast<const DetColumn*>(right->GetColumn(splan.join->right_column).get());
    for (size_t row = 0; row < right->NumRows(); ++row) {
      join_index.emplace(right_key->Get(row), row);
    }
    join_left = static_cast<const DetColumn*>(fact.GetColumn(splan.join->left_column).get());
  }

  const BigNum& n2 = paillier_->public_key().n_squared;
  const auto partitions = fact.Partitions(cluster.num_workers());
  std::vector<std::unordered_map<std::string, PartialGroup>> partials(partitions.size());
  std::vector<uint64_t> touched(partitions.size(), 0);

  const JobStats job = cluster.RunJob(partitions.size(), [&](size_t p) {
    auto& local = partials[p];
    auto table_of = [&](bool on_right) -> const Table& { return on_right ? *right : fact; };
    auto process = [&](size_t row, size_t right_row) {
      for (const ServerPredicate& sp : splan.predicates) {
        const Table& t = table_of(sp.on_right);
        const size_t r = sp.on_right ? right_row : row;
        bool pass = true;
        switch (sp.kind) {
          case ServerPredicate::Kind::kPlainInt: {
            const int64_t v =
                static_cast<const Int64Column*>(t.GetColumn(sp.column).get())->Get(r);
            pass = CmpOpMatchesOrder(sp.op, v < sp.int_operand ? -1 : (v > sp.int_operand ? 1 : 0));
            break;
          }
          case ServerPredicate::Kind::kPlainString: {
            const bool eq =
                static_cast<const StringColumn*>(t.GetColumn(sp.column).get())->Get(r) ==
                sp.str_operand;
            pass = sp.op == CmpOp::kEq ? eq : !eq;
            break;
          }
          case ServerPredicate::Kind::kDetEq: {
            const bool eq =
                static_cast<const DetColumn*>(t.GetColumn(sp.column).get())->Get(r) ==
                sp.det_token;
            pass = sp.op == CmpOp::kEq ? eq : !eq;
            break;
          }
          case ServerPredicate::Kind::kOreCmp: {
            const auto& ct =
                static_cast<const OreColumn*>(t.GetColumn(sp.column).get())->Get(r);
            pass = CmpOpMatchesOrder(sp.op, Ore::Compare(ct, sp.ore_operand).order);
            break;
          }
        }
        if (!pass) {
          return;
        }
      }
      ++touched[p];

      std::string key;
      std::vector<Value> key_parts;
      for (const ServerGroupBy& g : splan.group_by) {
        const Table& t = table_of(g.on_right);
        const size_t r = g.on_right ? right_row : row;
        const ColumnPtr& col = t.GetColumn(g.column);
        // Same length-prefixed encoding as the Seabed server's keys (see
        // AppendGroupKeyPart in src/engine/value.h): adjacent parts must
        // never alias, and mixed string/int tuples must stay unambiguous.
        if (col->type() == ColumnType::kDet) {
          const uint64_t token = static_cast<const DetColumn*>(col.get())->Get(r);
          AppendGroupKeyPart(key, token);
          key_parts.emplace_back(static_cast<int64_t>(token));
        } else if (col->type() == ColumnType::kInt64) {
          const int64_t v = static_cast<const Int64Column*>(col.get())->Get(r);
          AppendGroupKeyPart(key, static_cast<uint64_t>(v));
          key_parts.emplace_back(v);
        } else {
          const std::string& v = static_cast<const StringColumn*>(col.get())->Get(r);
          AppendGroupKeyPart(key, v);
          key_parts.emplace_back(v);
        }
      }

      PartialGroup& group = local[key];
      if (group.aggs.empty()) {
        group.aggs.resize(splan.aggregates.size());
        group.key_parts = std::move(key_parts);
      }
      for (size_t a = 0; a < splan.aggregates.size(); ++a) {
        const ServerAggregate& sa = splan.aggregates[a];
        const Table& t = table_of(sa.on_right);
        const size_t r = sa.on_right ? right_row : row;
        PartialAgg& pa = group.aggs[a];
        switch (sa.kind) {
          case ServerAggregate::Kind::kAsheSum: {
            const auto* col = static_cast<const PaillierColumn*>(
                t.GetColumn(PaillierColumnName(sa.column)).get());
            pa.product = BigNum::ModMul(pa.product, col->Get(r), n2);
            pa.touched = true;
            break;
          }
          case ServerAggregate::Kind::kRowCount:
            ++pa.count;
            break;
          case ServerAggregate::Kind::kOreMin:
          case ServerAggregate::Kind::kOreMax: {
            const auto& ct =
                static_cast<const OreColumn*>(t.GetColumn(sa.column).get())->Get(r);
            bool better = !pa.minmax_valid;
            if (!better) {
              const int order = Ore::Compare(ct, pa.minmax_ore).order;
              better = sa.kind == ServerAggregate::Kind::kOreMin ? order < 0 : order > 0;
            }
            if (better) {
              pa.minmax_valid = true;
              pa.minmax_ore = ct;
              const auto* col = static_cast<const PaillierColumn*>(
                  t.GetColumn(PaillierColumnName(sa.value_column)).get());
              pa.minmax_cipher = col->Get(r);
            }
            break;
          }
        }
      }
    };

    for (size_t row = partitions[p].begin; row < partitions[p].end; ++row) {
      if (join_left != nullptr) {
        const auto [lo, hi] = join_index.equal_range(join_left->Get(row));
        for (auto it = lo; it != hi; ++it) {
          process(row, it->second);
        }
      } else {
        process(row, 0);
      }
    }
  });

  // Driver merge (ciphertext multiplications — counted as server time).
  Stopwatch driver_sw;
  std::map<std::string, PartialGroup> merged;
  for (auto& local : partials) {
    for (auto& [key, group] : local) {
      auto [it, inserted] = merged.try_emplace(key, std::move(group));
      if (inserted) {
        continue;
      }
      PartialGroup& dst = it->second;
      for (size_t a = 0; a < splan.aggregates.size(); ++a) {
        const ServerAggregate& sa = splan.aggregates[a];
        PartialAgg& pa = dst.aggs[a];
        PartialAgg& src = group.aggs[a];
        switch (sa.kind) {
          case ServerAggregate::Kind::kAsheSum:
            pa.product = BigNum::ModMul(pa.product, src.product, n2);
            pa.touched = pa.touched || src.touched;
            break;
          case ServerAggregate::Kind::kRowCount:
            pa.count += src.count;
            break;
          case ServerAggregate::Kind::kOreMin:
          case ServerAggregate::Kind::kOreMax:
            if (src.minmax_valid) {
              bool better = !pa.minmax_valid;
              if (!better) {
                const int order = Ore::Compare(src.minmax_ore, pa.minmax_ore).order;
                better = sa.kind == ServerAggregate::Kind::kOreMin ? order < 0 : order > 0;
              }
              if (better) {
                pa = std::move(src);
              }
            }
            break;
        }
      }
    }
  }
  const double driver_seconds = driver_sw.ElapsedSeconds();

  // SQL semantics: a global aggregate over zero matching rows still yields
  // one (all-zero) result row — the plain executor and the Seabed client
  // both synthesize it, so the baseline must too.
  if (merged.empty() && cplan.group_outputs.empty()) {
    PartialGroup zero;
    zero.aggs.resize(splan.aggregates.size());
    merged.emplace("", std::move(zero));
  }

  // Response size: one ciphertext per ASHE-sum aggregate per group.
  const size_t ct_bytes = paillier_->public_key().CiphertextBytes();
  size_t response_bytes = 0;
  for (const auto& [key, group] : merged) {
    response_bytes += key.size();
    for (size_t a = 0; a < splan.aggregates.size(); ++a) {
      const auto kind = splan.aggregates[a].kind;
      response_bytes +=
          kind == ServerAggregate::Kind::kRowCount ? 8 : ct_bytes;
    }
  }

  ResultSet result;

  // Client: one Paillier decryption per aggregate result.
  Stopwatch client_sw;
  for (const ClientGroupOutput& g : cplan.group_outputs) {
    result.column_names.push_back(g.plain_name);
  }
  for (const ClientOutput& o : cplan.outputs) {
    result.column_names.push_back(o.alias);
  }

  auto keys_owner = [&](bool on_right) -> const EncryptedDatabase& {
    return on_right && right_db != nullptr ? *right_db : db;
  };

  for (const auto& [key, group] : merged) {
    std::vector<int64_t> decrypted(splan.aggregates.size(), 0);
    for (size_t a = 0; a < splan.aggregates.size(); ++a) {
      const ServerAggregate& sa = splan.aggregates[a];
      const PartialAgg& pa = group.aggs[a];
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum:
          decrypted[a] = pa.touched ? paillier_->DecryptSigned(pa.product) : 0;
          break;
        case ServerAggregate::Kind::kRowCount:
          decrypted[a] = static_cast<int64_t>(pa.count);
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          decrypted[a] = pa.minmax_valid ? paillier_->DecryptSigned(pa.minmax_cipher) : 0;
          break;
      }
    }

    std::vector<Value> row;
    for (size_t g = 0; g < cplan.group_outputs.size(); ++g) {
      const ClientGroupOutput& go = cplan.group_outputs[g];
      const Value& part = group.key_parts[g];
      switch (go.kind) {
        case ClientGroupOutput::Kind::kPlainInt:
        case ClientGroupOutput::Kind::kPlainString:
          row.push_back(part);
          break;
        case ClientGroupOutput::Kind::kDetInt:
          // Int DET is invertible given the column key; without keys the raw
          // token is emitted.
          if (keys_ != nullptr) {
            const DetInt det(keys_->DeriveColumnKey(go.key_label));
            row.emplace_back(static_cast<int64_t>(
                det.Decrypt(static_cast<uint64_t>(std::get<int64_t>(part)))));
          } else {
            row.push_back(part);
          }
          break;
        case ClientGroupOutput::Kind::kDetString: {
          const EncryptedDatabase& owner = keys_owner(go.on_right);
          const auto dict_it = owner.det_dictionaries.find(go.enc_column);
          if (dict_it == owner.det_dictionaries.end()) {
            row.push_back(part);
            break;
          }
          const uint64_t token = static_cast<uint64_t>(std::get<int64_t>(part));
          const auto val_it = dict_it->second.find(token);
          row.emplace_back(val_it == dict_it->second.end() ? std::string("?")
                                                           : val_it->second);
          break;
        }
      }
    }
    for (const ClientOutput& o : cplan.outputs) {
      switch (o.kind) {
        case ClientOutput::Kind::kSum:
        case ClientOutput::Kind::kCount:
        case ClientOutput::Kind::kMinMax:
          row.emplace_back(decrypted[o.arg0]);
          break;
        case ClientOutput::Kind::kAvg: {
          const double count = static_cast<double>(decrypted[o.arg1]);
          row.emplace_back(count == 0 ? 0.0 : static_cast<double>(decrypted[o.arg0]) / count);
          break;
        }
        case ClientOutput::Kind::kVariance:
        case ClientOutput::Kind::kStddev: {
          const double count = static_cast<double>(decrypted[o.arg2]);
          double var = 0;
          if (count > 0) {
            const double mean = static_cast<double>(decrypted[o.arg1]) / count;
            var = static_cast<double>(decrypted[o.arg0]) / count - mean * mean;
          }
          row.emplace_back(o.kind == ClientOutput::Kind::kVariance ? var
                                                                   : std::sqrt(std::max(0.0, var)));
          break;
        }
      }
    }
    result.rows.push_back(std::move(row));
  }
  SortRowsByGroupValues(result.rows, cplan.group_outputs.size());
  if (stats != nullptr) {
    stats->backend = "paillier";
    stats->job = job;
    stats->server_seconds = job.server_seconds + driver_seconds;
    stats->result_bytes = response_bytes;
    stats->result_rows = result.rows.size();
    stats->network_seconds = cluster.config().client_link.TransferSeconds(response_bytes);
    stats->client_seconds = client_sw.ElapsedSeconds();
    stats->rows_touched = 0;
    for (const uint64_t t : touched) {
      stats->rows_touched += t;
    }
  }
  return result;
}

}  // namespace seabed
