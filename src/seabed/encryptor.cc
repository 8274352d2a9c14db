#include "src/seabed/encryptor.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/crypto/ashe.h"
#include "src/crypto/det.h"
#include "src/crypto/ore.h"

namespace seabed {
namespace {

using Dictionary = std::unordered_map<uint64_t, std::string>;

// Reads row `row` of a plaintext column as an int64 (int columns only).
int64_t IntAt(const ColumnPtr& col, size_t row) {
  SEABED_CHECK(col->type() == ColumnType::kInt64);
  return static_cast<const Int64Column*>(col.get())->Get(row);
}

// A plaintext int column's values.
const std::vector<int64_t>& Ints(const ColumnPtr& col) {
  SEABED_CHECK(col->type() == ColumnType::kInt64);
  return static_cast<const Int64Column*>(col.get())->values();
}

// The string form of row `row` used by SPLASHE value matching: string
// columns verbatim, int columns rendered in decimal into `scratch`.
const std::string& TextAt(const ColumnPtr& col, size_t row, std::string& scratch) {
  if (col->type() == ColumnType::kString) {
    return static_cast<const StringColumn*>(col.get())->Get(row);
  }
  scratch = std::to_string(IntAt(col, row));
  return scratch;
}

// One value-ordinal pass over a SPLASHE dimension: ord[row] is the index of
// the row's value in layout.splayed_values (its first occurrence), or -1.
// Every indicator, splayed-measure and "others" column reads this instead of
// comparing strings per (column, row).
std::vector<int32_t> SplayedOrdinals(const ColumnPtr& col, const SplasheLayout& layout) {
  const std::vector<std::string>& values = layout.splayed_values;
  std::vector<int32_t> ord(col->RowCount(), -1);
  if (col->type() == ColumnType::kString) {
    const auto* s = static_cast<const StringColumn*>(col.get());
    std::vector<int32_t> of_code(s->DictionarySize(), -1);
    for (size_t i = values.size(); i-- > 0;) {
      const uint32_t code = s->Lookup(values[i]);
      if (code != UINT32_MAX) {
        of_code[code] = static_cast<int32_t>(i);
      }
    }
    const std::span<const uint32_t> codes = s->codes();
    for (size_t row = 0; row < ord.size(); ++row) {
      ord[row] = of_code[codes[row]];
    }
    return ord;
  }
  // Int dimension: a splayed value can only match rows whose decimal
  // rendering it is, so it must parse back to that rendering exactly.
  std::unordered_map<int64_t, int32_t> of_value;
  for (size_t i = values.size(); i-- > 0;) {
    const std::string& text = values[i];
    int64_t v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc() && end == text.data() + text.size() && std::to_string(v) == text) {
      of_value[v] = static_cast<int32_t>(i);
    }
  }
  const std::vector<int64_t>& ints = Ints(col);
  for (size_t row = 0; row < ord.size(); ++row) {
    const auto it = of_value.find(ints[row]);
    if (it != of_value.end()) {
      ord[row] = it->second;
    }
  }
  return ord;
}

// DET tokens of strings: each distinct string is tagged and entered in the
// column's dictionary once, and the cells written per string are counted.
class TokenWriter {
 public:
  TokenWriter(const DetToken& det, Dictionary& dictionary) : det_(det), dictionary_(dictionary) {}

  uint64_t Write(const std::string& v) {
    auto [it, fresh] = seen_.try_emplace(v);
    if (fresh) {
      it->second.token = det_.Tag(v);
      dictionary_.emplace(it->second.token, v);
    }
    ++it->second.cells;
    return it->second.token;
  }

  uint64_t CellsOf(const std::string& v) const {
    const auto it = seen_.find(v);
    return it == seen_.end() ? 0 : it->second.cells;
  }

 private:
  struct Entry {
    uint64_t token = 0;
    uint64_t cells = 0;
  };
  const DetToken& det_;
  Dictionary& dictionary_;
  std::unordered_map<std::string, Entry> seen_;
};

// Where the column encoders below write. A fresh database (Encrypt, the
// Paillier baseline) gets each column created with room for `rows` rows and
// ASHE identifiers from `base_id`; an existing one (AppendRows) gets each
// column extended, ASHE identifiers continuing from its last row. Columns
// are added in first-use order, which fixes the table's column order.
struct Sink {
  EncryptedDatabase& db;
  bool fresh;
  size_t rows;
  uint64_t base_id = 1;

  template <typename C>
  C& Column(const std::string& name) const {
    if (!fresh) {
      return *static_cast<C*>(db.table->GetMutableColumn(name));
    }
    std::shared_ptr<C> col;
    if constexpr (std::is_same_v<C, AsheColumn>) {
      col = std::make_shared<C>(base_id);
    } else {
      col = std::make_shared<C>();
    }
    col->Reserve(rows);
    C& out = *col;
    db.table->AddColumn(name, std::move(col));
    return out;
  }
};

// The per-scheme column encoders, shared by Encrypt, AppendRows and
// EncryptPaillierBaseline. Each derives its column key and writes
// sink.rows cells.

// ASHE column `name` over value_of(row), a stack chunk at a time: no
// row-length temporaries.
template <typename ValueOf>
void EncodeAshe(const ClientKeys& keys, const EncryptionPlan& plan, const std::string& name,
                const ValueOf& value_of, const Sink& sink) {
  const Ashe ashe(keys.DeriveColumnKey(ColumnKeyLabel(plan.table_name, name)));
  AsheColumn& col = sink.Column<AsheColumn>(name);
  constexpr size_t kChunk = 1024;
  uint64_t cells[kChunk];
  for (size_t start = 0; start < sink.rows; start += kChunk) {
    const size_t n = std::min(kChunk, sink.rows - start);
    for (size_t k = 0; k < n; ++k) {
      cells[k] = value_of(start + k);
    }
    ashe.EncryptCells(cells, n, col.IdOfRow(col.RowCount()), cells);
    col.Append(std::span<const uint64_t>(cells, n));
  }
}

// ORE column `<column>#ope`.
void EncodeOre(const ClientKeys& keys, const EncryptionPlan& plan, const std::string& column,
               const ColumnPtr& source, const Sink& sink) {
  const std::string name = column + "#ope";
  const Ore ore(keys.DeriveColumnKey(ColumnKeyLabel(plan.table_name, name)));
  OreColumn& col = sink.Column<OreColumn>(name);
  for (const int64_t v : Ints(source)) {
    col.Append(ore.Encrypt(static_cast<uint64_t>(v)));
  }
}

// DET column `<column>#det`: invertible DetInt for ints, tokens plus
// dictionary for strings.
void EncodeDet(const ClientKeys& keys, const EncryptionPlan& plan, const PlainColumnSpec& spec,
               const ColumnPtr& source, const Sink& sink) {
  const std::string name = spec.name + "#det";
  DetColumn& col = sink.Column<DetColumn>(name);
  const AesKey key = keys.DeriveColumnKey(plan.DetKeyLabelFor(spec.name));
  sink.db.det_value_types[name] = spec.type;
  if (spec.type == ColumnType::kInt64) {
    const DetInt det(key);
    const std::vector<int64_t>& ints = Ints(source);
    constexpr size_t kChunk = 1024;
    uint64_t tokens[kChunk];
    for (size_t start = 0; start < sink.rows; start += kChunk) {
      const size_t n = std::min(kChunk, sink.rows - start);
      det.Encrypt(reinterpret_cast<const uint64_t*>(ints.data() + start), n, tokens);
      col.Append(std::span<const uint64_t>(tokens, n));
    }
    return;
  }
  // One tag and one dictionary entry per distinct string, indexed by the
  // plaintext column's dictionary codes.
  const DetToken det(key);
  Dictionary& dictionary = sink.db.det_dictionaries[name];
  const auto* strings = static_cast<const StringColumn*>(source.get());
  std::vector<uint64_t> token_of(strings->DictionarySize());
  std::vector<char> tagged(strings->DictionarySize(), 0);
  for (const uint32_t code : strings->codes()) {
    if (!tagged[code]) {
      tagged[code] = 1;
      token_of[code] = det.Tag(strings->Decode(code));
      dictionary.emplace(token_of[code], strings->Decode(code));
    }
    col.Append(token_of[code]);
  }
}

// The ASHE, squared-ASHE, ORE and DET columns `cp` asks of one plaintext
// column (everything but SPLASHE and Paillier).
void EncodeColumnFamily(const ClientKeys& keys, const EncryptionPlan& plan,
                        const PlainColumnSpec& spec, const ColumnPlan& cp,
                        const ColumnPtr& source, const Sink& sink) {
  if (cp.scheme == EncScheme::kAshe || cp.add_ashe) {
    const std::vector<int64_t>& m = Ints(source);
    EncodeAshe(keys, plan, spec.name + "#ashe",
               [&](size_t row) { return static_cast<uint64_t>(m[row]); }, sink);
  }
  if (cp.needs_square) {
    const std::vector<int64_t>& m = Ints(source);
    EncodeAshe(keys, plan, spec.name + "#sq#ashe",
               [&](size_t row) {
                 const auto v = static_cast<uint64_t>(m[row]);
                 return v * v;
               },
               sink);
  }
  if (cp.scheme == EncScheme::kOpe || cp.add_ope) {
    EncodeOre(keys, plan, spec.name, source, sink);
  }
  if (cp.scheme == EncScheme::kDet || cp.add_det) {
    EncodeDet(keys, plan, spec, source, sink);
  }
}

// The frequency-equalized DET column of an enhanced layout (Section 3.4):
// real rows of an "other" value carry its token, and every splayed row is a
// dummy cell that pads some other value's token count. A fresh column pads
// each other value up to the largest real count, in other_values order, and
// then cycles through other_values; an append pads the currently rarest
// value, one dummy cell at a time, against the counts db.splashe_counts
// keeps (so it never rescans the column). Both leave those counts current.
void EncodeEqualizedDet(const ClientKeys& keys, const EncryptionPlan& plan,
                        const SplasheLayout& layout, const ColumnPtr& source,
                        const std::vector<int32_t>& ord, const Sink& sink) {
  static const std::string kNone = "(none)";
  const std::string name = layout.DetColumn();
  const DetToken det(keys.DeriveColumnKey(ColumnKeyLabel(plan.table_name, name)));
  DetColumn& col = sink.Column<DetColumn>(name);
  sink.db.det_value_types[name] = ColumnType::kString;
  const std::vector<std::string>& others = layout.other_values;
  std::map<std::string, uint64_t>& kept = sink.db.splashe_counts[name];
  if (sink.fresh) {
    for (const std::string& v : others) {
      kept.emplace(v, 0);
    }
  }

  // Token counts so far plus this batch's real rows.
  std::map<std::string, uint64_t> counts = kept;
  std::string scratch;
  for (size_t row = 0; row < sink.rows; ++row) {
    if (ord[row] < 0) {
      ++counts[TextAt(source, row, scratch)];
    }
  }
  std::vector<uint64_t> pad;  // fresh: dummy cells still owed to others[i]
  if (sink.fresh) {
    uint64_t target = 0;
    for (const auto& [v, n] : counts) {
      target = std::max(target, n);
    }
    for (const std::string& v : others) {
      pad.push_back(target - counts[v]);
    }
  }
  size_t pad_cursor = 0;
  size_t cycle_cursor = 0;
  auto next_dummy = [&]() -> const std::string& {
    if (sink.fresh) {
      while (pad_cursor < pad.size() && pad[pad_cursor] == 0) {
        ++pad_cursor;
      }
      if (pad_cursor < pad.size()) {
        --pad[pad_cursor];
        return others[pad_cursor];
      }
      return others.empty() ? kNone : others[cycle_cursor++ % others.size()];
    }
    if (counts.empty()) {
      return kNone;
    }
    auto rarest = counts.begin();
    for (auto it = counts.begin(); it != counts.end(); ++it) {
      if (it->second < rarest->second) {
        rarest = it;
      }
    }
    ++rarest->second;
    return rarest->first;
  };

  TokenWriter writer(det, sink.db.det_dictionaries[name]);
  for (size_t row = 0; row < sink.rows; ++row) {
    col.Append(writer.Write(ord[row] < 0 ? TextAt(source, row, scratch) : next_dummy()));
  }
  for (auto& [v, n] : kept) {
    n += writer.CellsOf(v);
  }
}

// The SPLASHE columns of one dimension (basic or enhanced), all reading one
// value-ordinal pass. `plain` holds the rows' measures.
void EncodeSplashe(const ClientKeys& keys, const EncryptionPlan& plan,
                   const SplasheLayout& layout, const Table& plain, const ColumnPtr& source,
                   const Sink& sink) {
  const std::vector<int32_t> ord = SplayedOrdinals(source, layout);
  const std::vector<std::string>& values = layout.splayed_values;

  // Indicator (count) columns for splayed values, then splayed measures.
  for (size_t i = 0; i < values.size(); ++i) {
    const auto value = static_cast<int32_t>(i);
    EncodeAshe(keys, plan, layout.CountColumn(values[i]),
               [&](size_t row) -> uint64_t { return ord[row] == value ? 1 : 0; }, sink);
  }
  for (const std::string& measure : layout.splayed_measures) {
    const std::vector<int64_t>& m = Ints(plain.GetColumn(measure));
    for (size_t i = 0; i < values.size(); ++i) {
      const auto value = static_cast<int32_t>(i);
      EncodeAshe(keys, plan, SplasheLayout::MeasureColumn(measure, values[i]),
                 [&](size_t row) -> uint64_t {
                   return ord[row] == value ? static_cast<uint64_t>(m[row]) : 0;
                 },
                 sink);
    }
  }
  if (!layout.enhanced) {
    return;
  }

  // Enhanced SPLASHE: "others" indicator + measures, and the
  // frequency-equalized DET column.
  EncodeAshe(keys, plan, layout.OthersCountColumn(),
             [&](size_t row) -> uint64_t { return ord[row] < 0 ? 1 : 0; }, sink);
  for (const std::string& measure : layout.splayed_measures) {
    const std::vector<int64_t>& m = Ints(plain.GetColumn(measure));
    EncodeAshe(keys, plan, SplasheLayout::OthersMeasureColumn(measure),
               [&](size_t row) -> uint64_t {
                 return ord[row] < 0 ? static_cast<uint64_t>(m[row]) : 0;
               },
               sink);
  }
  EncodeEqualizedDet(keys, plan, layout, source, ord, sink);
}

bool IsSplashe(EncScheme scheme) {
  return scheme == EncScheme::kSplasheBasic || scheme == EncScheme::kSplasheEnhanced;
}

}  // namespace

EncryptedDatabase Encryptor::Encrypt(const Table& plain, const PlainSchema& schema,
                                     const EncryptionPlan& plan) const {
  return EncryptWithBaseId(plain, schema, plan, 1);
}

EncryptedDatabase Encryptor::EncryptWithBaseId(const Table& plain, const PlainSchema& schema,
                                               const EncryptionPlan& plan,
                                               uint64_t ashe_base_id) const {
  EncryptedDatabase db;
  db.plan = plan;
  db.table = std::make_shared<Table>(plan.table_name + "#enc");
  const Sink sink{db, /*fresh=*/true, plain.NumRows(), ashe_base_id};

  for (const auto& spec : schema.columns) {
    const ColumnPlan& cp = plan.Plan(spec.name);
    const ColumnPtr& source = plain.GetColumn(spec.name);
    if (cp.scheme == EncScheme::kPlain) {
      // Copy (not share) plain-scheme columns: the encrypted table must own
      // every column so snapshot versions can be copied and grown without
      // mutating the attached plaintext table under concurrent readers.
      db.table->AddColumn(spec.name, DeepCopyColumn(*source));
      continue;
    }
    EncodeColumnFamily(keys_, plan, spec, cp, source, sink);
    if (IsSplashe(cp.scheme)) {
      // Dimensions consumed by a SPLASHE layout do not appear under their
      // own name.
      const SplasheLayout* layout = plan.FindSplashe(spec.name);
      SEABED_CHECK(layout != nullptr);
      EncodeSplashe(keys_, plan, *layout, plain, source, sink);
    }
  }
  return db;
}

void Encryptor::AppendRows(EncryptedDatabase& db, const Table& new_rows,
                           const PlainSchema& schema) const {
  const EncryptionPlan& plan = db.plan;
  const size_t batch = new_rows.NumRows();
  const Sink sink{db, /*fresh=*/false, batch};

  for (const auto& spec : schema.columns) {
    const ColumnPlan& cp = plan.Plan(spec.name);
    const ColumnPtr& source = new_rows.GetColumn(spec.name);
    if (cp.scheme == EncScheme::kPlain) {
      auto* dst = db.table->GetMutableColumn(spec.name);
      if (spec.type == ColumnType::kInt64) {
        auto* c = static_cast<Int64Column*>(dst);
        for (size_t row = 0; row < batch; ++row) {
          c->Append(IntAt(source, row));
        }
      } else {
        auto* c = static_cast<StringColumn*>(dst);
        for (size_t row = 0; row < batch; ++row) {
          c->Append(static_cast<const StringColumn*>(source.get())->Get(row));
        }
      }
      continue;
    }
    EncodeColumnFamily(keys_, plan, spec, cp, source, sink);
    if (IsSplashe(cp.scheme)) {
      EncodeSplashe(keys_, plan, *plan.FindSplashe(spec.name), new_rows, source, sink);
    }
  }
}

EncryptionPlan BaselinePlan(const EncryptionPlan& plan) {
  EncryptionPlan baseline = plan;
  baseline.splashe.clear();
  for (auto& [name, cp] : baseline.columns) {
    if (cp.scheme == EncScheme::kSplasheBasic || cp.scheme == EncScheme::kSplasheEnhanced) {
      cp.scheme = EncScheme::kDet;
    }
  }
  return baseline;
}

EncryptedDatabase Encryptor::EncryptPaillierBaseline(const Table& plain,
                                                     const PlainSchema& schema,
                                                     const EncryptionPlan& plan,
                                                     const Paillier& paillier, Rng& rng,
                                                     size_t randomness_pool_size) const {
  EncryptedDatabase db;
  db.plan = BaselinePlan(plan);
  db.table = std::make_shared<Table>(plan.table_name + "#paillier");
  const size_t rows = plain.NumRows();
  const Sink sink{db, /*fresh=*/true, rows};
  const std::vector<BigNum> pool = paillier.MakeRandomnessPool(rng, randomness_pool_size);

  for (const auto& spec : schema.columns) {
    const ColumnPlan& cp = db.plan.Plan(spec.name);
    const ColumnPtr& source = plain.GetColumn(spec.name);

    if (cp.scheme == EncScheme::kPlain) {
      db.table->AddColumn(spec.name, DeepCopyColumn(*source));
      continue;
    }

    const bool is_measure = cp.scheme == EncScheme::kAshe || cp.add_ashe;
    if (is_measure) {
      auto col = std::make_shared<PaillierColumn>();
      for (size_t row = 0; row < rows; ++row) {
        col->Append(paillier.EncryptSignedPooled(IntAt(source, row), pool[row % pool.size()]));
      }
      db.table->AddColumn(spec.name + "#paillier", std::move(col));
    }
    if (cp.scheme == EncScheme::kOpe || cp.add_ope) {
      EncodeOre(keys_, db.plan, spec.name, source, sink);
    }
    if (cp.scheme == EncScheme::kDet || cp.add_det) {
      EncodeDet(keys_, db.plan, spec, source, sink);
    }
  }
  return db;
}

}  // namespace seabed
