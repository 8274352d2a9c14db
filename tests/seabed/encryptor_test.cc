#include "src/seabed/encryptor.h"

#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/crypto/ashe.h"
#include "src/crypto/det.h"
#include "src/seabed/planner.h"

namespace seabed {
namespace {

struct Fixture {
  Fixture() : keys(ClientKeys::FromSeed(5)) {
    schema.table_name = "emp";
    ValueDistribution country;
    country.values = {"usa", "canada", "india", "chile", "iraq", "japan"};
    country.frequencies = {0.4, 0.4, 0.06, 0.05, 0.05, 0.04};
    schema.columns.push_back({"country", ColumnType::kString, true, country});
    schema.columns.push_back({"salary", ColumnType::kInt64, true, std::nullopt});

    Query q;
    q.table = "emp";
    q.Sum("salary").Count().Where("country", CmpOp::kEq, std::string("india"));
    queries.push_back(q);

    PlannerOptions options;
    options.expected_rows = 3000;
    plan = PlanEncryption(schema, queries, options);

    table = std::make_shared<Table>("emp");
    auto country_col = std::make_shared<StringColumn>();
    auto salary_col = std::make_shared<Int64Column>();
    Rng rng(9);
    const char* values[] = {"usa", "canada", "india", "chile", "iraq", "japan"};
    const double cdf[] = {0.4, 0.8, 0.86, 0.91, 0.96, 1.0};
    for (int i = 0; i < 3000; ++i) {
      const double u = rng.NextDouble();
      int pick = 0;
      while (u > cdf[pick]) {
        ++pick;
      }
      country_col->Append(values[pick]);
      salary_col->Append(rng.Range(10000, 200000));
    }
    table->AddColumn("country", country_col);
    table->AddColumn("salary", salary_col);

    const Encryptor encryptor(keys);
    db = encryptor.Encrypt(*table, schema, plan);
  }

  ClientKeys keys;
  PlainSchema schema;
  std::vector<Query> queries;
  EncryptionPlan plan;
  std::shared_ptr<Table> table;
  EncryptedDatabase db;
};

TEST(EncryptorTest, SplasheColumnsExist) {
  const Fixture f;
  const SplasheLayout* layout = f.plan.FindSplashe("country");
  ASSERT_NE(layout, nullptr);
  ASSERT_TRUE(layout->enhanced);
  for (const std::string& v : layout->splayed_values) {
    EXPECT_TRUE(f.db.table->HasColumn(layout->CountColumn(v))) << v;
    EXPECT_TRUE(f.db.table->HasColumn(SplasheLayout::MeasureColumn("salary", v))) << v;
  }
  EXPECT_TRUE(f.db.table->HasColumn(layout->OthersCountColumn()));
  EXPECT_TRUE(f.db.table->HasColumn(SplasheLayout::OthersMeasureColumn("salary")));
  EXPECT_TRUE(f.db.table->HasColumn(layout->DetColumn()));
  // The splayed dimension itself is gone (the only DET column is the
  // frequency-equalized one the layout owns).
  EXPECT_FALSE(f.db.table->HasColumn("country"));
  EXPECT_FALSE(f.db.table->HasColumn("country#ashe"));
}

TEST(EncryptorTest, EnhancedDetFrequenciesAreEqualized) {
  // The core SPLASHE security property: every DET token appears (nearly)
  // equally often, regardless of the true value distribution.
  const Fixture f;
  const SplasheLayout* layout = f.plan.FindSplashe("country");
  ASSERT_NE(layout, nullptr);
  const auto* det_col =
      static_cast<const DetColumn*>(f.db.table->GetColumn(layout->DetColumn()).get());
  std::map<uint64_t, uint64_t> freq;
  for (size_t row = 0; row < det_col->RowCount(); ++row) {
    ++freq[det_col->Get(row)];
  }
  EXPECT_EQ(freq.size(), layout->other_values.size());
  uint64_t lo = ~0ull;
  uint64_t hi = 0;
  for (const auto& [token, count] : freq) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  // Counts equal up to the round-robin remainder.
  EXPECT_LE(hi - lo, 1u);
}

TEST(EncryptorTest, SplayedMeasureSumsMatchPlaintext) {
  const Fixture f;
  const SplasheLayout* layout = f.plan.FindSplashe("country");
  ASSERT_NE(layout, nullptr);
  const auto* plain_country =
      static_cast<const StringColumn*>(f.table->GetColumn("country").get());
  const auto* plain_salary =
      static_cast<const Int64Column*>(f.table->GetColumn("salary").get());

  // Decrypt-and-sum every splayed column; compare with the plaintext
  // per-country totals.
  auto column_sum = [&](const std::string& name) -> uint64_t {
    const Ashe ashe(f.keys.DeriveColumnKey(ColumnKeyLabel("emp", name)));
    const auto* col = static_cast<const AsheColumn*>(f.db.table->GetColumn(name).get());
    AsheCiphertext acc;
    for (size_t row = 0; row < col->RowCount(); ++row) {
      acc.value += col->Get(row);
      acc.ids.Add(col->IdOfRow(row));
    }
    return ashe.Decrypt(acc);
  };

  std::map<std::string, uint64_t> expected_sum;
  std::map<std::string, uint64_t> expected_count;
  for (size_t row = 0; row < f.table->NumRows(); ++row) {
    expected_sum[plain_country->Get(row)] += static_cast<uint64_t>(plain_salary->Get(row));
    ++expected_count[plain_country->Get(row)];
  }

  for (const std::string& v : layout->splayed_values) {
    EXPECT_EQ(column_sum(SplasheLayout::MeasureColumn("salary", v)), expected_sum[v]) << v;
    EXPECT_EQ(column_sum(layout->CountColumn(v)), expected_count[v]) << v;
  }
  // Others columns hold everything else.
  uint64_t other_sum = 0;
  uint64_t other_count = 0;
  for (const std::string& v : layout->other_values) {
    other_sum += expected_sum[v];
    other_count += expected_count[v];
  }
  EXPECT_EQ(column_sum(SplasheLayout::OthersMeasureColumn("salary")), other_sum);
  EXPECT_EQ(column_sum(layout->OthersCountColumn()), other_count);
}

TEST(EncryptorTest, DetDictionaryCoversAllTokens) {
  const Fixture f;
  const SplasheLayout* layout = f.plan.FindSplashe("country");
  const auto& dict = f.db.det_dictionaries.at(layout->DetColumn());
  const auto* det_col =
      static_cast<const DetColumn*>(f.db.table->GetColumn(layout->DetColumn()).get());
  for (size_t row = 0; row < det_col->RowCount(); ++row) {
    EXPECT_TRUE(dict.count(det_col->Get(row)));
  }
}

TEST(EncryptorTest, AsheColumnDecryptsCellwise) {
  const Fixture f;
  const Ashe ashe(f.keys.DeriveColumnKey(ColumnKeyLabel("emp", "salary#ashe")));
  const auto* enc = static_cast<const AsheColumn*>(f.db.table->GetColumn("salary#ashe").get());
  const auto* plain = static_cast<const Int64Column*>(f.table->GetColumn("salary").get());
  for (size_t row = 0; row < 50; ++row) {
    EXPECT_EQ(ashe.DecryptCell(enc->Get(row), enc->IdOfRow(row)),
              static_cast<uint64_t>(plain->Get(row)));
  }
}

TEST(EncryptorTest, PaillierBaselineTableShape) {
  const Fixture f;
  Rng rng(33);
  const Paillier paillier = Paillier::GenerateKey(rng, 128);
  const Encryptor encryptor(f.keys);
  const EncryptedDatabase base =
      encryptor.EncryptPaillierBaseline(*f.table, f.schema, f.plan, paillier, rng);
  EXPECT_TRUE(base.table->HasColumn("salary#paillier"));
  // SPLASHE degraded to DET in the baseline.
  EXPECT_TRUE(base.table->HasColumn("country#det"));
  EXPECT_EQ(base.plan.Plan("country").scheme, EncScheme::kDet);
  EXPECT_TRUE(base.plan.splashe.empty());

  // Spot-check a few cells decrypt correctly.
  const auto* col =
      static_cast<const PaillierColumn*>(base.table->GetColumn("salary#paillier").get());
  const auto* plain = static_cast<const Int64Column*>(f.table->GetColumn("salary").get());
  for (size_t row = 0; row < 10; ++row) {
    EXPECT_EQ(paillier.DecryptSigned(col->Get(row)), plain->Get(row));
  }
}

// Counts AppendRows would get by rescanning the equalized DET column: cells
// per other value, read back through the dictionary.
std::map<std::string, uint64_t> RecountOthers(const EncryptedDatabase& db,
                                              const SplasheLayout& layout) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& v : layout.other_values) {
    counts[v] = 0;
  }
  const auto& dict = db.det_dictionaries.at(layout.DetColumn());
  const auto* col = static_cast<const DetColumn*>(db.table->GetColumn(layout.DetColumn()).get());
  for (size_t row = 0; row < col->RowCount(); ++row) {
    const auto it = dict.find(col->Get(row));
    if (it != dict.end() && counts.count(it->second)) {
      ++counts[it->second];
    }
  }
  return counts;
}

TEST(EncryptorTest, KeptSplasheCountsEqualRecountAcrossAppends) {
  Fixture f;
  const SplasheLayout* layout = f.plan.FindSplashe("country");
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(f.db.splashe_counts.at(layout->DetColumn()), RecountOthers(f.db, *layout));
  const Encryptor encryptor(f.keys);
  Rng rng(21);
  const char* values[] = {"usa", "canada", "india", "chile", "iraq", "japan", "peru"};
  for (const size_t batch : {1, 7, 250}) {
    Table rows("emp");
    auto country = std::make_shared<StringColumn>();
    auto salary = std::make_shared<Int64Column>();
    for (size_t i = 0; i < batch; ++i) {
      country->Append(values[rng.Below(7)]);  // "peru" is in neither list
      salary->Append(rng.Range(0, 1000));
    }
    rows.AddColumn("country", country);
    rows.AddColumn("salary", salary);
    encryptor.AppendRows(f.db, rows, f.schema);
    EXPECT_EQ(f.db.splashe_counts.at(layout->DetColumn()), RecountOthers(f.db, *layout))
        << "batch " << batch;
  }
}

// A SPLASHE layout over an int dimension matches rows by decimal rendering:
// "012", "+5" and "-0" match no row (12 and 0 are not splayed), and 99 is in
// neither list.
TEST(EncryptorTest, IntSplasheDimensionMatchesDecimalRendering) {
  const ClientKeys keys = ClientKeys::FromSeed(6);
  PlainSchema schema;
  schema.table_name = "t";
  schema.columns.push_back({"region", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"sales", ColumnType::kInt64, true, std::nullopt});
  EncryptionPlan plan;
  plan.table_name = "t";
  plan.columns["region"].scheme = EncScheme::kSplasheEnhanced;
  plan.columns["sales"].scheme = EncScheme::kAshe;
  SplasheLayout layout;
  layout.dimension = "region";
  layout.enhanced = true;
  layout.splayed_values = {"7", "-3", "012", "+5", "-0"};
  layout.other_values = {"1", "2", "5", "12"};
  layout.splayed_measures = {"sales"};
  plan.splashe.push_back(layout);

  const std::vector<int64_t> domain = {7, -3, 12, 0, 1, 2, 5, 99};
  auto make_rows = [&](uint64_t seed, size_t n) {
    Table t("t");
    auto region = std::make_shared<Int64Column>();
    auto sales = std::make_shared<Int64Column>();
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      region->Append(domain[rng.Below(domain.size())]);
      sales->Append(rng.Range(-500, 500));
    }
    t.AddColumn("region", region);
    t.AddColumn("sales", sales);
    return t;
  };
  const Table first = make_rows(1, 400);
  const Table second = make_rows(2, 90);
  const Encryptor encryptor(keys);
  EncryptedDatabase db = encryptor.Encrypt(first, schema, plan);
  encryptor.AppendRows(db, second, schema);

  // Both batches' plaintexts, in row order.
  std::vector<int64_t> regions;
  std::vector<int64_t> sales;
  for (const Table* t : {&first, &second}) {
    const auto& r = static_cast<const Int64Column*>(t->GetColumn("region").get())->values();
    const auto& m = static_cast<const Int64Column*>(t->GetColumn("sales").get())->values();
    regions.insert(regions.end(), r.begin(), r.end());
    sales.insert(sales.end(), m.begin(), m.end());
  }
  auto cell = [&](const std::string& name, size_t row) {
    const Ashe ashe(keys.DeriveColumnKey(ColumnKeyLabel("t", name)));
    const auto* col = static_cast<const AsheColumn*>(db.table->GetColumn(name).get());
    return ashe.DecryptCell(col->Get(row), col->IdOfRow(row));
  };
  const DetToken det(keys.DeriveColumnKey(ColumnKeyLabel("t", layout.DetColumn())));
  const auto* det_col =
      static_cast<const DetColumn*>(db.table->GetColumn(layout.DetColumn()).get());
  ASSERT_EQ(db.table->NumRows(), regions.size());
  for (size_t row = 0; row < regions.size(); ++row) {
    const std::string text = std::to_string(regions[row]);
    const bool splayed = layout.IsSplayedValue(text);
    const auto m = static_cast<uint64_t>(sales[row]);
    for (const std::string& v : layout.splayed_values) {
      EXPECT_EQ(cell(layout.CountColumn(v), row), text == v ? 1u : 0u) << row << " " << v;
      EXPECT_EQ(cell(SplasheLayout::MeasureColumn("sales", v), row), text == v ? m : 0u);
    }
    EXPECT_EQ(cell(layout.OthersCountColumn(), row), splayed ? 0u : 1u) << row;
    EXPECT_EQ(cell(SplasheLayout::OthersMeasureColumn("sales"), row), splayed ? 0u : m);
    if (!splayed) {
      EXPECT_EQ(det_col->Get(row), det.Tag(text)) << row;
    }
  }
  EXPECT_EQ(db.det_dictionaries.at(layout.DetColumn()).at(det.Tag("99")), "99");
  EXPECT_EQ(db.splashe_counts.at(layout.DetColumn()), RecountOthers(db, layout));
}

}  // namespace
}  // namespace seabed
