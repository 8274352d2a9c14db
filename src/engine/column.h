// Columnar storage for plaintext and encrypted tables.
//
// The engine stores data column-major, mirroring the layout Seabed uses on
// Spark/HDFS. Plaintext tables use Int64 / String columns; encrypted tables
// use Ashe / Det / Ore / Paillier columns. ASHE cells carry only the 64-bit
// group element — the identifier is implicit (base_id + row), reproducing the
// "consecutive row IDs" upload strategy of Section 4.2.
#ifndef SEABED_SRC_ENGINE_COLUMN_H_
#define SEABED_SRC_ENGINE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bignum/bignum.h"
#include "src/common/check.h"
#include "src/crypto/ore.h"

namespace seabed {

enum class ColumnType {
  kInt64,     // plaintext integer (or fixed-point) measure/dimension
  kString,    // plaintext string dimension (dictionary encoded)
  kAshe,      // ASHE group elements, ids implicit (base_id + row index)
  kDet,       // 64-bit deterministic tokens
  kOre,       // 16-byte ORE ciphertexts
  kPaillier,  // Paillier ciphertexts (baseline system)
};

const char* ColumnTypeName(ColumnType type);

class Column {
 public:
  virtual ~Column() = default;

  virtual ColumnType type() const = 0;
  virtual size_t RowCount() const = 0;

  // Bytes of payload data (storage accounting for Table 5).
  virtual size_t ByteSize() const = 0;
};

class Int64Column : public Column {
 public:
  Int64Column() = default;
  explicit Int64Column(std::vector<int64_t> values) : values_(std::move(values)) {}

  ColumnType type() const override { return ColumnType::kInt64; }
  size_t RowCount() const override { return values_.size(); }
  size_t ByteSize() const override { return values_.size() * sizeof(int64_t); }

  int64_t Get(size_t row) const { return values_[row]; }
  void Append(int64_t v) { values_.push_back(v); }
  const std::vector<int64_t>& values() const { return values_; }

 private:
  std::vector<int64_t> values_;
};

// Dictionary-encoded strings: per-column dictionary plus 32-bit codes.
class StringColumn : public Column {
 public:
  ColumnType type() const override { return ColumnType::kString; }
  size_t RowCount() const override { return codes_.size(); }
  size_t ByteSize() const override;

  void Append(const std::string& v);
  const std::string& Get(size_t row) const { return dictionary_[codes_[row]]; }
  uint32_t GetCode(size_t row) const { return codes_[row]; }
  // The string a code encodes (a code from this column's GetCode/Lookup).
  const std::string& Decode(uint32_t code) const { return dictionary_[code]; }

  // Contiguous code span for the scan kernels: dictionary codes compare like
  // the strings they encode (the dictionary dedups), so an equality filter
  // is one code compare per row.
  std::span<const uint32_t> codes() const { return codes_; }

  // Code for `v`, or UINT32_MAX when absent from the dictionary.
  uint32_t Lookup(const std::string& v) const;

  size_t DictionarySize() const { return dictionary_.size(); }

 private:
  std::vector<uint32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, uint32_t> index_;
};

class AsheColumn : public Column {
 public:
  // Identifier of row r is base_id + r; base_id >= 1.
  explicit AsheColumn(uint64_t base_id = 1) : base_id_(base_id) { SEABED_CHECK(base_id >= 1); }

  ColumnType type() const override { return ColumnType::kAshe; }
  size_t RowCount() const override { return cells_.size(); }
  size_t ByteSize() const override { return cells_.size() * sizeof(uint64_t); }

  uint64_t base_id() const { return base_id_; }
  uint64_t IdOfRow(size_t row) const { return base_id_ + row; }

  uint64_t Get(size_t row) const { return cells_[row]; }
  void Append(uint64_t cipher) { cells_.push_back(cipher); }
  void Append(std::span<const uint64_t> ciphers) {
    cells_.insert(cells_.end(), ciphers.begin(), ciphers.end());
  }
  void Reserve(size_t rows) { cells_.reserve(rows); }

  // Contiguous cell span for batched ASHE accumulation over a selection.
  std::span<const uint64_t> cells() const { return cells_; }

 private:
  uint64_t base_id_;
  std::vector<uint64_t> cells_;
};

class DetColumn : public Column {
 public:
  ColumnType type() const override { return ColumnType::kDet; }
  size_t RowCount() const override { return tokens_.size(); }
  size_t ByteSize() const override { return tokens_.size() * sizeof(uint64_t); }

  uint64_t Get(size_t row) const { return tokens_[row]; }
  void Append(uint64_t token) { tokens_.push_back(token); }
  void Append(std::span<const uint64_t> tokens) {
    tokens_.insert(tokens_.end(), tokens.begin(), tokens.end());
  }
  void Reserve(size_t rows) { tokens_.reserve(rows); }

  // Contiguous token span for the SIMD equality kernel.
  std::span<const uint64_t> tokens() const { return tokens_; }

 private:
  std::vector<uint64_t> tokens_;
};

class OreColumn : public Column {
 public:
  ColumnType type() const override { return ColumnType::kOre; }
  size_t RowCount() const override { return cells_.size(); }
  size_t ByteSize() const override { return cells_.size() * sizeof(OreCiphertext); }

  const OreCiphertext& Get(size_t row) const { return cells_[row]; }
  void Append(const OreCiphertext& ct) { cells_.push_back(ct); }
  void Reserve(size_t rows) { cells_.reserve(rows); }

  // Contiguous ciphertext span for the vectorized ORE comparison kernel.
  std::span<const OreCiphertext> cells() const { return cells_; }

 private:
  std::vector<OreCiphertext> cells_;
};

class PaillierColumn : public Column {
 public:
  ColumnType type() const override { return ColumnType::kPaillier; }
  size_t RowCount() const override { return cells_.size(); }
  size_t ByteSize() const override;

  const BigNum& Get(size_t row) const { return cells_[row]; }
  void Append(BigNum ct) { cells_.push_back(std::move(ct)); }

 private:
  std::vector<BigNum> cells_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace seabed

#endif  // SEABED_SRC_ENGINE_COLUMN_H_
