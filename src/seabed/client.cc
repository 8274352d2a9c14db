#include "src/seabed/client.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/crypto/ashe.h"
#include "src/crypto/det.h"
#include "src/encoding/id_list_codec.h"

namespace seabed {
namespace {

// The server appends a group's inflation suffix as its key's last part, an
// 8-byte part behind a one-byte length (AppendGroupKeyPart); deflation
// merges the inflated groups by the rest of the key.
constexpr size_t kSuffixPartBytes = 9;

// Adds the ASHE pads of one section's runs to the group elements of `merged`
// (merged group m, sum a at m * num_aggs + a), which turns them into
// plaintext sums, and returns the PRF calls made. Each run is decoded
// once; a chunk's lo-1 / hi endpoints go through the PRF of every sum that
// shares the chunk's list as one batch (Prf::EvalBatch), and each run adds
// count * (F(hi) - F(lo-1)) to its group. The pad of a multiset telescopes
// over any split into runs, so runs from different tasks or inflated groups
// need no normalization first.
uint64_t AddSectionPads(const IdListSection& section,
                        const std::vector<std::vector<size_t>>& sums_of_list,
                        const std::vector<std::unique_ptr<Prf>>& prf,
                        const std::vector<uint32_t>& merged_of, size_t num_aggs,
                        std::vector<ServerAggResult>& merged) {
  IdListSectionReader reader(section.bytes);
  const bool identity = section.groups.empty();
  SEABED_CHECK_MSG(reader.num_lists() == sums_of_list.size() &&
                       reader.num_groups() ==
                           (identity ? merged_of.size() : section.groups.size()),
                   "ID-list section does not match its plan or its groups");
  constexpr size_t kChunk = Prf::kMaxBatch / 2;
  IdSet::Run runs[kChunk];
  uint32_t local[kChunk];
  size_t base[kChunk];  // `merged` index of each run's merged group
  uint64_t endpoints[2 * kChunk];
  uint64_t f[2 * kChunk];
  uint64_t prf_calls = 0;
  while (const size_t n = reader.Next(runs, local, kChunk)) {
    for (size_t k = 0; k < n; ++k) {
      SEABED_CHECK_MSG(runs[k].lo >= 1, "corrupt ID list: identifier 0");
      endpoints[2 * k] = runs[k].lo - 1;
      endpoints[2 * k + 1] = runs[k].hi;
      const uint32_t g = identity ? local[k] : section.groups[local[k]];
      SEABED_CHECK_MSG(g < merged_of.size(), "ID-list section names an unknown group");
      base[k] = merged_of[g] * num_aggs;
    }
    const std::vector<size_t>& sums = sums_of_list[reader.list()];
    for (const size_t a : sums) {
      prf[a]->EvalBatch(endpoints, 2 * n, f);
      // Consecutive runs of one group (all of them, ungrouped) add up in a
      // register before they touch the group's sum.
      size_t at = base[0];
      uint64_t pad = 0;
      for (size_t k = 0; k < n; ++k) {
        if (base[k] != at) {
          merged[at + a].ashe_value += pad;
          at = base[k];
          pad = 0;
        }
        pad += runs[k].count * (f[2 * k + 1] - f[2 * k]);
      }
      merged[at + a].ashe_value += pad;
    }
    prf_calls += 2 * n * sums.size();
  }
  return prf_calls;
}

}  // namespace

ResultSet Client::Decrypt(const EncryptedResponse& response, const TranslatedQuery& tq,
                          const Cluster& cluster, const EncryptedDatabase* right_db,
                          QueryStats* stats) const {
  const ServerPlan& splan = tq.server;
  const ClientPlan& cplan = tq.client;
  const size_t num_aggs = splan.aggregates.size();
  uint64_t prf_calls = 0;

  ResultSet result;
  Stopwatch client_sw;

  // Per-aggregate crypto contexts, keyed by the owning table's name: the
  // PRF of each ASHE sum, grouped by the ID list it reads, and the ASHE key
  // of each min/max's companion column.
  auto table_name_for = [&](bool on_right) -> const std::string& {
    if (on_right) {
      SEABED_CHECK_MSG(right_db != nullptr, "joined query decoded without right_db");
      return right_db->plan.table_name;
    }
    return db_->plan.table_name;
  };
  const size_t num_lists = NumIdLists(splan);
  std::vector<std::vector<size_t>> sums_of_list(num_lists);
  std::vector<std::unique_ptr<Prf>> sum_prf(num_aggs);
  std::vector<std::unique_ptr<Ashe>> agg_value_ashe(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const ServerAggregate& sa = splan.aggregates[a];
    if (sa.kind == ServerAggregate::Kind::kAsheSum) {
      sum_prf[a] = std::make_unique<Prf>(keys_->DeriveColumnKey(
          ColumnKeyLabel(table_name_for(sa.on_right), sa.column)));
      sums_of_list[sa.on_right ? num_lists - 1 : 0].push_back(a);
    } else if (sa.kind == ServerAggregate::Kind::kOreMin ||
               sa.kind == ServerAggregate::Kind::kOreMax) {
      agg_value_ashe[a] = std::make_unique<Ashe>(keys_->DeriveColumnKey(
          ColumnKeyLabel(table_name_for(sa.on_right), sa.value_column)));
    }
  }

  // Group-key decryptors and DET dictionaries, resolved once per call rather
  // than once per group.
  std::vector<std::unique_ptr<DetInt>> group_det(cplan.group_outputs.size());
  std::vector<const std::unordered_map<uint64_t, std::string>*> group_dict(
      cplan.group_outputs.size());
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

  // 1. Deflate inflated groups (merge by base key) and fold each server
  // group's aggregates into its merged group. Without inflation the
  // server's groups are already unique, one per key. Merged state is flat:
  // aggregate a of merged group m at m * num_aggs + a.
  std::vector<uint32_t> merged_of(response.groups.size());
  std::vector<const std::vector<Value>*> merged_keys;
  merged_keys.reserve(response.groups.size());
  std::vector<ServerAggResult> merged;
  merged.reserve(response.groups.size() * num_aggs);
  std::unordered_map<std::string_view, uint32_t> by_base_key;
  for (size_t g = 0; g < response.groups.size(); ++g) {
    const ServerGroup& group = response.groups[g];
    SEABED_CHECK_MSG(group.aggs.size() == num_aggs, "server group does not match its plan");
    uint32_t m = static_cast<uint32_t>(merged_keys.size());
    if (splan.inflation > 1) {
      SEABED_CHECK_MSG(group.key.size() >= kSuffixPartBytes, "inflated group without a suffix");
      const std::string_view base(group.key.data(), group.key.size() - kSuffixPartBytes);
      m = by_base_key.try_emplace(base, m).first->second;
    }
    if (m == merged_keys.size()) {
      merged_keys.push_back(&group.key_parts);
      merged.resize(merged.size() + num_aggs);
    }
    merged_of[g] = m;
    for (size_t a = 0; a < num_aggs; ++a) {
      merged[m * num_aggs + a].MergeFrom(splan.aggregates[a].kind, group.aggs[a]);
    }
  }

  // 2. Remove the ASHE pads: one streaming pass over every ID-list section.
  for (const IdListSection& section : response.id_sections) {
    prf_calls += AddSectionPads(section, sums_of_list, sum_prf, merged_of, num_aggs, merged);
  }

  // SQL semantics: a global aggregate over zero matching rows still yields
  // one (all-zero) result row.
  if (merged_keys.empty() && cplan.group_outputs.empty()) {
    merged_keys.push_back(nullptr);
    merged.resize(num_aggs);
  }

  // 3. Decrypt per group; 4. apply post-processing; 5. render group values.
  result.column_names.reserve(cplan.group_outputs.size() + cplan.outputs.size());
  for (const ClientGroupOutput& g : cplan.group_outputs) {
    result.column_names.push_back(g.plain_name);
  }
  for (const ClientOutput& o : cplan.outputs) {
    result.column_names.push_back(o.alias);
  }

  std::vector<int64_t> decrypted(num_aggs);
  result.rows.reserve(merged_keys.size());
  for (size_t m = 0; m < merged_keys.size(); ++m) {
    for (size_t a = 0; a < num_aggs; ++a) {
      const ServerAggResult& agg = merged[m * num_aggs + a];
      decrypted[a] = 0;
      switch (splan.aggregates[a].kind) {
        case ServerAggregate::Kind::kAsheSum:
          decrypted[a] = static_cast<int64_t>(agg.ashe_value);
          break;
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
      const Value& part = (*merged_keys[m])[g];
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
