#include "src/encoding/id_list_codec.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

// All eight range/diff/vb combinations × three compression modes.
struct CodecParam {
  bool range;
  bool diff;
  bool vb;
  IdListCompression compression;
};

class IdListCodecTest : public ::testing::TestWithParam<CodecParam> {
 protected:
  IdListOptions Options() const {
    IdListOptions o;
    o.use_range = GetParam().range;
    o.use_diff = GetParam().diff;
    o.use_vb = GetParam().vb;
    o.compression = GetParam().compression;
    return o;
  }

  void ExpectRoundTrip(const IdSet& ids) {
    const Bytes bytes = IdListEncode(ids, Options());
    EXPECT_EQ(IdListDecode(bytes), ids);
  }
};

TEST_P(IdListCodecTest, EmptySet) { ExpectRoundTrip(IdSet()); }

TEST_P(IdListCodecTest, SingleId) { ExpectRoundTrip(IdSet::Single(42)); }

TEST_P(IdListCodecTest, ContiguousRange) { ExpectRoundTrip(IdSet::FromRange(1, 5000)); }

TEST_P(IdListCodecTest, SparseRandom) {
  Rng rng(11);
  IdSet ids;
  uint64_t id = 1;
  for (int i = 0; i < 2000; ++i) {
    id += 1 + rng.Below(100);
    ids.Add(id);
  }
  ExpectRoundTrip(ids);
}

TEST_P(IdListCodecTest, AlternatingEvenIds) {
  IdSet ids;
  for (uint64_t id = 2; id < 4000; id += 2) {
    ids.Add(id);
  }
  ExpectRoundTrip(ids);
}

TEST_P(IdListCodecTest, MultipleRuns) {
  IdSet ids;
  ids.AddRange(1, 100);
  ids.AddRange(200, 250);
  ids.AddRange(1000, 5000);
  ids.Add(99999);
  ExpectRoundTrip(ids);
}

TEST_P(IdListCodecTest, LargeIds) {
  IdSet ids;
  ids.Add(1ull << 60);
  ids.AddRange((1ull << 62), (1ull << 62) + 10);
  ExpectRoundTrip(ids);
}

TEST_P(IdListCodecTest, MultisetCounts) {
  IdSet ids = IdSet::FromRange(1, 10);
  ids.UnionWith(IdSet::FromRange(5, 15));  // multiplicity-2 middle section
  ids.UnionWith(IdSet::FromRange(5, 15));
  ExpectRoundTrip(ids);
}

std::string ParamName(const ::testing::TestParamInfo<CodecParam>& info) {
  std::string name;
  name += info.param.range ? "Range" : "NoRange";
  name += info.param.diff ? "Diff" : "NoDiff";
  name += info.param.vb ? "Vb" : "NoVb";
  switch (info.param.compression) {
    case IdListCompression::kNone:
      name += "Raw";
      break;
    case IdListCompression::kFast:
      name += "Fast";
      break;
    case IdListCompression::kCompact:
      name += "Compact";
      break;
  }
  return name;
}

std::vector<CodecParam> AllParams() {
  std::vector<CodecParam> params;
  for (bool range : {false, true}) {
    for (bool diff : {false, true}) {
      for (bool vb : {false, true}) {
        for (IdListCompression c :
             {IdListCompression::kNone, IdListCompression::kFast, IdListCompression::kCompact}) {
          params.push_back({range, diff, vb, c});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, IdListCodecTest, ::testing::ValuesIn(AllParams()),
                         ParamName);

TEST(IdListCodecSizeTest, RangeEncodingWinsOnDenseSelections) {
  // Selectivity 100%: one run. Range encoding is O(1), id-at-a-time is O(n).
  const IdSet ids = IdSet::FromRange(1, 100000);
  IdListOptions with_range = IdListOptions::Default();
  with_range.compression = IdListCompression::kNone;
  IdListOptions without_range = with_range;
  without_range.use_range = false;
  EXPECT_LT(IdListEncode(ids, with_range).size() * 1000,
            IdListEncode(ids, without_range).size());
}

TEST(IdListCodecSizeTest, DiffHelpsSparseLists) {
  Rng rng(13);
  IdSet ids;
  uint64_t id = 1ull << 40;  // large absolute ids, small gaps
  for (int i = 0; i < 5000; ++i) {
    id += 1 + rng.Below(8);
    ids.Add(id);
  }
  IdListOptions with_diff;
  with_diff.use_range = false;
  with_diff.use_diff = true;
  with_diff.compression = IdListCompression::kNone;
  IdListOptions without_diff = with_diff;
  without_diff.use_diff = false;
  EXPECT_LT(IdListEncode(ids, with_diff).size(), IdListEncode(ids, without_diff).size() / 2);
}

TEST(IdListCodecSizeTest, VbShrinksSmallNumbers) {
  const IdSet ids = IdSet::FromRange(1, 1000);
  IdListOptions vb;
  vb.compression = IdListCompression::kNone;
  IdListOptions fixed = vb;
  fixed.use_vb = false;
  EXPECT_LT(IdListEncode(ids, vb).size(), IdListEncode(ids, fixed).size());
}

TEST(IdListCodecSizeTest, EvenIdPatternCompressesWell) {
  // The paper's observation: all-even selections double the run count but the
  // constant stride makes the diff stream trivially compressible.
  IdSet ids;
  for (uint64_t id = 2; id <= 200000; id += 2) {
    ids.Add(id);
  }
  IdListOptions raw = IdListOptions::Default();
  raw.compression = IdListCompression::kNone;
  IdListOptions packed = IdListOptions::Default();
  packed.compression = IdListCompression::kFast;
  EXPECT_LT(IdListEncode(ids, packed).size(), IdListEncode(ids, raw).size() / 10);
}

TEST(IdListCodecSizeTest, GroupByPresetSkipsRange) {
  const IdListOptions o = IdListOptions::GroupBy();
  EXPECT_FALSE(o.use_range);
  EXPECT_TRUE(o.use_diff);
  EXPECT_TRUE(o.use_vb);
}

TEST(IdListDecodeTest, HugeMultiplicityDecodesToOneRun) {
  // Each run decodes once with its count, so the cost does not grow with
  // the multiplicity.
  const IdSet ids = IdSet::FromRuns({{5, 9, uint64_t{1} << 40}});
  const IdSet decoded = IdListDecode(IdListEncode(ids, IdListOptions::Default()));
  ASSERT_EQ(decoded.NumRuns(), 1u);
  EXPECT_EQ(decoded.runs()[0], (IdSet::Run{5, 9, uint64_t{1} << 40}));
}

TEST(IdListDecodeTest, InterleavedPartsDecodeIntoOneNormalizedSet) {
  // The per-suffix lists of an inflated group interleave and overlap;
  // decoding them into one vector and normalizing once must equal the
  // union of the individually decoded sets.
  std::vector<IdSet::Run> runs;
  IdSet expected;
  for (uint64_t part = 0; part < 3; ++part) {
    IdSet p;
    for (uint64_t id = 1 + part; id < 3000; id += 2 + part) {
      p.Add(id);
    }
    p.AddRange(5000, 5100);  // shared by every part: multiplicity 3
    for (const IdListOptions& o : {IdListOptions::Default(), IdListOptions::GroupBy()}) {
      const Bytes blob = IdListEncode(p, o);
      IdListDecodeRuns(blob, runs);
      expected.UnionWith(IdListDecode(blob));
    }
  }
  const IdSet merged = IdSet::FromRuns(std::move(runs));
  EXPECT_EQ(merged, expected);
  EXPECT_FALSE(merged.IsPlainSet());
  EXPECT_EQ(merged.runs().back(), (IdSet::Run{5000, 5100, 6}));
}

TEST(IdListDecodeDeathTest, RunCountBeyondPayloadIsRejected) {
  IdListOptions raw = IdListOptions::Default();
  raw.compression = IdListCompression::kNone;
  Bytes blob = {IdListEncode(IdSet::Single(1), raw)[0]};
  PutVarint(blob, uint64_t{1} << 40);  // num_runs
  blob.insert(blob.end(), {1, 0, 1, 0});
  EXPECT_DEATH(IdListDecode(blob), "corrupt ID list");
}

TEST(IdListDecodeDeathTest, IdCountBeyondPayloadIsRejected) {
  IdListOptions raw = IdListOptions::GroupBy();
  raw.compression = IdListCompression::kNone;
  Bytes blob = {IdListEncode(IdSet::Single(1), raw)[0]};
  PutVarint(blob, uint64_t{1} << 40);  // total ids
  blob.insert(blob.end(), {1, 1, 1});
  EXPECT_DEATH(IdListDecode(blob), "corrupt ID list");
}

TEST(IdListDecodeDeathTest, LzSizeBeyondPayloadIsRejected) {
  Bytes blob = {IdListEncode(IdSet::Single(1), IdListOptions::Default())[0]};
  PutVarint(blob, uint64_t{1} << 40);  // LZ header: decompressed size
  blob.insert(blob.end(), {2, 1});      // one 1-byte literal
  EXPECT_DEATH(IdListDecode(blob), "corrupt LZ header");
}

TEST(IdListCodecGoldenTest, GroupByListBytesUnchangedSinceCapture) {
  // Wire-format pin of a group-by ID list (Diff & VB + Lz fast): the server
  // may change how it builds ID lists and the LZ coder how it keeps its match
  // table, but never the bytes a client receives. A sparse list with runs,
  // a repeated id and a long periodic stretch that LZ folds into matches.
  IdSet ids;
  for (const uint64_t id : {3, 4, 5, 9, 9, 12}) {
    ids.Add(id);
  }
  for (uint64_t id = 100; id < 400; id += 3) {
    ids.Add(id);
  }
  ids.AddRange(1000, 1005);
  EXPECT_EQ(ToHex(IdListEncode(ids, IdListOptions::GroupBy())), "0e7212700301010400035803c5010106db04010901");
}

TEST(IdListCodecSizeTest, LabelsAreStable) {
  EXPECT_STREQ(IdListOptions::Default().Label(), "Ranges & VB + Diff + Lz(fast)");
  EXPECT_STREQ(IdListOptions::GroupBy().Label(), "Diff&VB (group-by)");
}

}  // namespace
}  // namespace seabed
