#include "src/seabed/client.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/crypto/ashe.h"
#include "src/crypto/det.h"
#include "src/encoding/id_list_codec.h"

namespace seabed {
namespace {

// Deflated (post-merge) per-aggregate state.
struct MergedAgg {
  uint64_t ashe_value = 0;
  std::vector<IdSet::Run> id_runs;  // every blob's runs; normalized once
  uint64_t row_count = 0;
  bool minmax_valid = false;
  OreCiphertext minmax_ore;
  uint64_t minmax_cipher = 0;
  uint64_t minmax_id = 0;
};

struct MergedGroup {
  const std::vector<Value>* key_parts = nullptr;  // the first server group's
  std::vector<MergedAgg> aggs;
};

std::string BaseKey(const ServerGroup& g) {
  // Re-serialize key parts without the inflation suffix. Must byte-match the
  // server's key builder (Server::Execute) exactly — deflation merges the
  // server's inflated groups by this key — so it uses the same
  // length-prefixed AppendGroupKeyPart encoding.
  std::string key;
  for (const Value& v : g.key_parts) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      AppendGroupKeyPart(key, static_cast<uint64_t>(*i));
    } else {
      AppendGroupKeyPart(key, std::get<std::string>(v));
    }
  }
  return key;
}

}  // namespace

ResultSet Client::Decrypt(const EncryptedResponse& response, const TranslatedQuery& tq,
                          const Cluster& cluster, const EncryptedDatabase* right_db,
                          QueryStats* stats) const {
  const ServerPlan& splan = tq.server;
  const ClientPlan& cplan = tq.client;
  uint64_t prf_calls = 0;

  ResultSet result;
  Stopwatch client_sw;

  // Per-aggregate crypto contexts, keyed by the owning table's name.
  auto table_name_for = [&](bool on_right) -> const std::string& {
    if (on_right) {
      SEABED_CHECK_MSG(right_db != nullptr, "joined query decoded without right_db");
      return right_db->plan.table_name;
    }
    return db_->plan.table_name;
  };
  std::vector<std::unique_ptr<Ashe>> agg_ashe(splan.aggregates.size());
  std::vector<std::unique_ptr<Ashe>> agg_value_ashe(splan.aggregates.size());
  for (size_t a = 0; a < splan.aggregates.size(); ++a) {
    const ServerAggregate& sa = splan.aggregates[a];
    if (sa.kind == ServerAggregate::Kind::kAsheSum) {
      agg_ashe[a] = std::make_unique<Ashe>(keys_->DeriveColumnKey(
          ColumnKeyLabel(table_name_for(sa.on_right), sa.column)));
    } else if (sa.kind == ServerAggregate::Kind::kOreMin ||
               sa.kind == ServerAggregate::Kind::kOreMax) {
      agg_value_ashe[a] = std::make_unique<Ashe>(keys_->DeriveColumnKey(
          ColumnKeyLabel(table_name_for(sa.on_right), sa.value_column)));
    }
  }

  // Group-key decryptors and DET dictionaries, resolved once per call rather
  // than once per group.
  std::vector<std::unique_ptr<DetInt>> group_det(cplan.group_outputs.size());
  std::vector<const std::map<uint64_t, std::string>*> group_dict(cplan.group_outputs.size());
  for (size_t g = 0; g < cplan.group_outputs.size(); ++g) {
    const ClientGroupOutput& go = cplan.group_outputs[g];
    if (go.kind == ClientGroupOutput::Kind::kDetInt) {
      group_det[g] = std::make_unique<DetInt>(keys_->DeriveColumnKey(go.key_label));
    } else if (go.kind == ClientGroupOutput::Kind::kDetString) {
      const EncryptedDatabase& owner = go.on_right ? *right_db : *db_;
      const auto dict_it = owner.det_dictionaries.find(go.enc_column);
      SEABED_CHECK(dict_it != owner.det_dictionaries.end());
      group_dict[g] = &dict_it->second;
    }
  }

  // 1. Decompress ID lists and deflate inflated groups (merge by base key).
  // Without inflation the server's groups are already unique, one per key.
  std::vector<MergedGroup> merged;
  merged.reserve(response.groups.size());
  std::unordered_map<std::string, size_t> by_base_key;
  for (const ServerGroup& g : response.groups) {
    size_t slot = merged.size();
    if (splan.inflation > 1) {
      slot = by_base_key.try_emplace(BaseKey(g), merged.size()).first->second;
    }
    if (slot == merged.size()) {
      merged.push_back({&g.key_parts, std::vector<MergedAgg>(splan.aggregates.size())});
    }
    MergedGroup& dst = merged[slot];
    for (size_t a = 0; a < splan.aggregates.size(); ++a) {
      const ServerAggResult& src = g.aggs[a];
      MergedAgg& agg = dst.aggs[a];
      const ServerAggregate& sa = splan.aggregates[a];
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum: {
          agg.ashe_value += src.ashe_value;
          for (const Bytes& blob : src.id_blobs) {
            IdListDecodeRuns(blob, agg.id_runs);
          }
          break;
        }
        case ServerAggregate::Kind::kRowCount:
          agg.row_count += src.row_count;
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax: {
          if (!src.minmax_valid) {
            break;
          }
          bool better = !agg.minmax_valid;
          if (!better) {
            const int order = Ore::Compare(src.minmax_ore, agg.minmax_ore).order;
            better = sa.kind == ServerAggregate::Kind::kOreMin ? order < 0 : order > 0;
          }
          if (better) {
            agg.minmax_valid = true;
            agg.minmax_ore = src.minmax_ore;
            agg.minmax_cipher = src.minmax_cipher;
            agg.minmax_id = src.minmax_id;
          }
          break;
        }
      }
    }
  }

  // SQL semantics: a global aggregate over zero matching rows still yields
  // one (all-zero) result row.
  if (merged.empty() && cplan.group_outputs.empty()) {
    merged.push_back({nullptr, std::vector<MergedAgg>(splan.aggregates.size())});
  }

  // 2. Decrypt per group; 3. apply post-processing; 4. render group values.
  result.column_names.reserve(cplan.group_outputs.size() + cplan.outputs.size());
  for (const ClientGroupOutput& g : cplan.group_outputs) {
    result.column_names.push_back(g.plain_name);
  }
  for (const ClientOutput& o : cplan.outputs) {
    result.column_names.push_back(o.alias);
  }

  for (MergedGroup& group : merged) {
    // Decrypt every ASHE aggregate once.
    std::vector<int64_t> decrypted(splan.aggregates.size(), 0);
    for (size_t a = 0; a < splan.aggregates.size(); ++a) {
      const ServerAggregate& sa = splan.aggregates[a];
      MergedAgg& agg = group.aggs[a];
      switch (sa.kind) {
        case ServerAggregate::Kind::kAsheSum: {
          AsheCiphertext ct;
          ct.value = agg.ashe_value;
          ct.ids = IdSet::FromRuns(std::move(agg.id_runs));
          prf_calls += Ashe::DecryptPrfCalls(ct);
          decrypted[a] = static_cast<int64_t>(agg_ashe[a]->Decrypt(ct));
          break;
        }
        case ServerAggregate::Kind::kRowCount:
          decrypted[a] = static_cast<int64_t>(agg.row_count);
          break;
        case ServerAggregate::Kind::kOreMin:
        case ServerAggregate::Kind::kOreMax:
          if (agg.minmax_valid) {
            prf_calls += 2;
            decrypted[a] = static_cast<int64_t>(
                agg_value_ashe[a]->DecryptCell(agg.minmax_cipher, agg.minmax_id));
          }
          break;
      }
    }

    // SPLASHE-filtered GROUP BY: a group where the filtered value never
    // occurs decrypts to an all-zero row plaintext semantics would not emit.
    if (cplan.splashe_filter_count >= 0 &&
        decrypted[static_cast<size_t>(cplan.splashe_filter_count)] == 0) {
      continue;
    }

    std::vector<Value> row;
    row.reserve(cplan.group_outputs.size() + cplan.outputs.size());
    for (size_t g = 0; g < cplan.group_outputs.size(); ++g) {
      const ClientGroupOutput& go = cplan.group_outputs[g];
      const Value& part = (*group.key_parts)[g];
      switch (go.kind) {
        case ClientGroupOutput::Kind::kPlainInt:
        case ClientGroupOutput::Kind::kPlainString:
          row.push_back(part);
          break;
        case ClientGroupOutput::Kind::kDetInt:
          row.emplace_back(static_cast<int64_t>(
              group_det[g]->Decrypt(static_cast<uint64_t>(std::get<int64_t>(part)))));
          break;
        case ClientGroupOutput::Kind::kDetString: {
          const uint64_t token = static_cast<uint64_t>(std::get<int64_t>(part));
          const auto val_it = group_dict[g]->find(token);
          SEABED_CHECK_MSG(val_it != group_dict[g]->end(),
                           "unknown DET token in group key for " << go.enc_column);
          row.emplace_back(val_it->second);
          break;
        }
      }
    }

    for (const ClientOutput& o : cplan.outputs) {
      switch (o.kind) {
        case ClientOutput::Kind::kSum:
        case ClientOutput::Kind::kCount:
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
          row.emplace_back(o.kind == ClientOutput::Kind::kVariance
                               ? var
                               : std::sqrt(std::max(0.0, var)));
          break;
        }
        case ClientOutput::Kind::kMinMax:
          row.emplace_back(decrypted[o.arg0]);
          break;
      }
    }
    result.rows.push_back(std::move(row));
  }
  SortRowsByGroupValues(result.rows, cplan.group_outputs.size());

  if (stats != nullptr) {
    stats->backend = "seabed";
    stats->job = response.job;
    stats->server_seconds = response.ServerSeconds();
    stats->result_bytes = response.response_bytes;
    stats->result_rows = result.rows.size();
    stats->network_seconds =
        cluster.config().client_link.TransferSeconds(response.response_bytes);
    stats->client_seconds = client_sw.ElapsedSeconds();
    stats->prf_calls = prf_calls;
    stats->rows_touched = response.rows_touched;
  }
  return result;
}

}  // namespace seabed
