#include "src/encoding/id_list_codec.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/crypto/prf.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

// Encodes `ids` as a one-group, one-list section.
Bytes EncodeOne(const IdSet& ids, const IdListOptions& options) {
  return IdListSectionEncode(std::span<const IdSet>(&ids, 1), 1, options);
}

// Streams every run of `section` back into one IdSet per (group, list),
// indexed g * num_lists + l, through a chunk small enough that lists span
// several calls of Next.
std::vector<IdSet> DecodeSection(const Bytes& section) {
  IdListSectionReader reader(section);
  const size_t num_lists = reader.num_lists();
  std::vector<std::vector<IdSet::Run>> runs(reader.num_groups() * num_lists);
  IdSet::Run chunk[3];
  uint32_t groups[3];
  while (const size_t n = reader.Next(chunk, groups, 3)) {
    for (size_t k = 0; k < n; ++k) {
      EXPECT_LT(groups[k], reader.num_groups());
      runs[groups[k] * num_lists + reader.list()].push_back(chunk[k]);
    }
  }
  std::vector<IdSet> sets(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    for (const IdSet::Run& run : runs[i]) {
      for (uint64_t c = 0; c < run.count; ++c) {
        sets[i].UnionWith(IdSet::FromRange(run.lo, run.hi));
      }
    }
  }
  return sets;
}

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
    EXPECT_EQ(DecodeSection(EncodeOne(ids, Options())), std::vector<IdSet>{ids});
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

TEST_P(IdListCodecTest, GroupsAndJoinSidesWithRepeatedMatches) {
  // The lists of a grouped join: per group, the fact side's ids (a fact row
  // joined to k right rows carries multiplicity k) and the right side's ids
  // (each right row once per matching fact row). Some lists are empty.
  Rng rng(17);
  constexpr size_t kGroups = 9;
  std::vector<IdSet> lists(kGroups * 2);
  for (size_t g = 0; g < kGroups; ++g) {
    if (g == 4) {
      continue;  // a group whose lists are both empty
    }
    uint64_t fact = 1 + g;
    for (int i = 0; i < 40; ++i) {
      fact += 1 + rng.Below(g % 3 == 0 ? 1 : 30);
      const uint64_t k = 1 + rng.Below(4);
      for (uint64_t c = 0; c < k; ++c) {
        lists[g * 2].Add(fact);
        lists[g * 2 + 1].Add(100000 + rng.Below(500));
      }
    }
  }
  const std::vector<IdSet> decoded =
      DecodeSection(IdListSectionEncode(lists, /*num_lists=*/2, Options()));
  EXPECT_EQ(decoded, lists);
  EXPECT_FALSE(lists[1].IsPlainSet());
}

TEST_P(IdListCodecTest, SectionWithoutGroups) {
  IdListSectionReader reader(IdListSectionEncode({}, 2, Options()));
  EXPECT_EQ(reader.num_groups(), 0u);
  EXPECT_EQ(reader.num_lists(), 2u);
  IdSet::Run run;
  uint32_t group = 0;
  EXPECT_EQ(reader.Next(&run, &group, 1), 0u);
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
  EXPECT_LT(EncodeOne(ids, with_range).size() * 1000, EncodeOne(ids, without_range).size());
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
  EXPECT_LT(EncodeOne(ids, with_diff).size(), EncodeOne(ids, without_diff).size() / 2);
}

TEST(IdListCodecSizeTest, VbShrinksSmallNumbers) {
  const IdSet ids = IdSet::FromRange(1, 1000);
  IdListOptions vb;
  vb.compression = IdListCompression::kNone;
  IdListOptions fixed = vb;
  fixed.use_vb = false;
  EXPECT_LT(EncodeOne(ids, vb).size(), EncodeOne(ids, fixed).size());
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
  EXPECT_LT(EncodeOne(ids, packed).size(), EncodeOne(ids, raw).size() / 10);
}

TEST(IdListCodecSizeTest, OneSectionBeatsOneListPerGroup) {
  // 500 groups of one id each (a selective GROUP BY): one section pays one
  // header and one LZ frame, where one list per group paid them 500 times,
  // at least 2 bytes per group.
  std::vector<IdSet> lists;
  size_t separate = 0;
  for (uint64_t g = 0; g < 500; ++g) {
    lists.push_back(IdSet::Single(1000 + 7 * g));
    separate += EncodeOne(lists.back(), IdListOptions::GroupBy()).size();
  }
  const size_t section = IdListSectionEncode(lists, 1, IdListOptions::GroupBy()).size();
  EXPECT_LT(section + 500 * 2, separate) << section << " vs " << separate;
}

TEST(IdListCodecSizeTest, GroupByPresetSkipsRange) {
  const IdListOptions o = IdListOptions::GroupBy();
  EXPECT_FALSE(o.use_range);
  EXPECT_TRUE(o.use_diff);
  EXPECT_TRUE(o.use_vb);
}

TEST(IdListSectionReaderTest, HugeMultiplicityDecodesToOneRun) {
  // Each run decodes once with its count, so the cost does not grow with
  // the multiplicity. The header comes from a list with a multiset run;
  // the payload is one run [5, 9] of count 2^40.
  IdListOptions raw = IdListOptions::Default();
  raw.compression = IdListCompression::kNone;
  IdSet twice = IdSet::Single(1);
  twice.UnionWith(IdSet::Single(1));
  Bytes section = {EncodeOne(twice, raw)[0]};
  for (const uint64_t field : {uint64_t{1}, uint64_t{5}, uint64_t{4}, (uint64_t{1} << 40) - 1}) {
    PutVarint(section, field);
  }
  IdListSectionReader reader(section);
  IdSet::Run runs[4];
  uint32_t groups[4];
  ASSERT_EQ(reader.Next(runs, groups, 4), 1u);
  EXPECT_EQ(runs[0], (IdSet::Run{5, 9, uint64_t{1} << 40}));
  EXPECT_EQ(reader.Next(runs, groups, 4), 0u);
}

TEST(IdListSectionReaderTest, ChunksNeverMixListsAndRespectTheirSize) {
  // Two groups x two lists, 3 runs per list: with room for 4 runs a chunk
  // takes list 0 of both groups in two calls, then list 1 likewise.
  std::vector<IdSet> lists(4);
  for (IdSet& ids : lists) {
    for (const uint64_t id : {10, 20, 30}) {
      ids.Add(id);
    }
  }
  IdListSectionReader reader(IdListSectionEncode(lists, 2, IdListOptions::Default()));
  IdSet::Run runs[4];
  uint32_t groups[4];
  std::vector<std::pair<size_t, size_t>> chunks;  // (list, runs)
  while (const size_t n = reader.Next(runs, groups, 4)) {
    chunks.emplace_back(reader.list(), n);
  }
  const std::vector<std::pair<size_t, size_t>> want = {{0, 4}, {0, 2}, {1, 4}, {1, 2}};
  EXPECT_EQ(chunks, want);
}

TEST(IdListSectionReaderTest, PadsOfPartsTelescopeToThePadOfTheirUnion) {
  // The per-task sections of one group, and the per-suffix lists of an
  // inflated group, interleave and overlap. The client adds each decoded
  // run's count * (F(hi) - F(lo - 1)) as it streams, never normalizing:
  // that must equal the pad of the parts' multiset union.
  const Prf prf(AesKey::FromSeed(23));
  uint64_t streamed = 0;
  IdSet all;
  for (uint64_t part = 0; part < 3; ++part) {
    IdSet p;
    for (uint64_t id = 1 + part; id < 3000; id += 2 + part) {
      p.Add(id);
    }
    p.AddRange(5000, 5100);  // shared by every part: multiplicity 3
    for (const IdListOptions& o : {IdListOptions::Default(), IdListOptions::GroupBy()}) {
      IdListSectionReader reader(EncodeOne(p, o));
      IdSet::Run chunk[64];
      uint32_t groups[64];
      while (const size_t n = reader.Next(chunk, groups, 64)) {
        for (size_t k = 0; k < n; ++k) {
          streamed += chunk[k].count * prf.RangeDelta(chunk[k].lo, chunk[k].hi);
        }
      }
      all.UnionWith(p);
    }
  }
  uint64_t expected = 0;
  for (const IdSet::Run& run : all.runs()) {
    expected += run.count * prf.RangeDelta(run.lo, run.hi);
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(all.runs().back(), (IdSet::Run{5000, 5100, 6}));
}

// Reads every run of `section`; corrupt input aborts on the way.
void Drain(const Bytes& section) {
  IdListSectionReader reader(section);
  IdSet::Run runs[64];
  uint32_t groups[64];
  while (reader.Next(runs, groups, 64) > 0) {
  }
}

// The header byte of an uncompressed section under `options` with an
// explicit shape, then that shape: G groups of L lists.
Bytes RawSectionPrefix(IdListOptions options, uint64_t groups, uint64_t lists) {
  options.compression = IdListCompression::kNone;
  const IdSet two[2];
  Bytes section = {IdListSectionEncode(two, 1, options)[0]};
  PutVarint(section, groups);
  PutVarint(section, lists);
  return section;
}

TEST(IdListSectionDeathTest, RunCountBeyondPayloadIsRejected) {
  Bytes section = RawSectionPrefix(IdListOptions::Default(), 1, 1);
  PutVarint(section, uint64_t{1} << 40);  // runs of the one list
  section.insert(section.end(), {1, 0, 1, 0});
  EXPECT_DEATH(Drain(section), "corrupt ID list: 1099511627776 runs");
}

TEST(IdListSectionDeathTest, IdCountBeyondPayloadIsRejected) {
  Bytes section = RawSectionPrefix(IdListOptions::GroupBy(), 1, 1);
  PutVarint(section, uint64_t{1} << 40);  // ids of the one list
  section.insert(section.end(), {1, 1, 1});
  EXPECT_DEATH(Drain(section), "corrupt ID list: 1099511627776 ids");
}

TEST(IdListSectionDeathTest, GroupCountBeyondPayloadIsRejected) {
  Bytes section = RawSectionPrefix(IdListOptions::GroupBy(), uint64_t{1} << 40, 2);
  section.insert(section.end(), {1, 1, 1, 1});
  EXPECT_DEATH(Drain(section), "corrupt ID-list section: 1099511627776 groups");
}

TEST(IdListSectionDeathTest, ListCountBeyondPayloadIsRejected) {
  Bytes section = RawSectionPrefix(IdListOptions::Default(), 1, uint64_t{1} << 40);
  section.insert(section.end(), {0, 0});
  EXPECT_DEATH(Drain(section), "corrupt ID-list section: 1 groups of 1099511627776 lists");
}

TEST(IdListSectionDeathTest, LzSizeBeyondPayloadIsRejected) {
  Bytes section = {EncodeOne(IdSet::Single(1), IdListOptions::Default())[0]};
  PutVarint(section, uint64_t{1} << 40);  // LZ header: decompressed size
  section.insert(section.end(), {2, 1});  // one 1-byte literal
  EXPECT_DEATH(Drain(section), "corrupt LZ header");
}

TEST(IdListSectionGoldenTest, SectionBytesUnchangedSinceCapture) {
  // Wire-format pins of two sections: three groups of a grouped join under
  // the group-by options (Diff & VB + Lz fast), and the same lists under the
  // production default (Ranges & VB + Diff + Lz fast). The server may change
  // how it builds ID lists and the LZ coder how it keeps its match table,
  // but never the bytes a client receives. The lists hold runs, a repeated
  // id, an empty list and a long periodic stretch that LZ folds into matches.
  std::vector<IdSet> lists(6);  // group g, list l at 2 * g + l
  for (const uint64_t id : {3, 4, 5, 9, 9, 12}) {
    lists[0].Add(id);
  }
  for (uint64_t id = 100; id < 400; id += 3) {
    lists[1].Add(id);
  }
  lists[2].AddRange(1000, 1005);
  // A one-group, one-list section is the list's bytes alone: this is the
  // pin a single group-by list carried before sections existed.
  IdSet single = lists[0];
  single.UnionWith(lists[1]);
  single.UnionWith(lists[2]);
  EXPECT_EQ(ToHex(EncodeOne(single, IdListOptions::GroupBy())),
            "0e7212700301010400035803c5010106db04010901");
  lists[4].Add(77);
  lists[5].AddRange(70, 90);
  EXPECT_EQ(ToHex(IdListSectionEncode(lists, 2, IdListOptions::GroupBy())),
            "4e8f011a03020603010104000306e807010b01084d646403c50101060015460b6e1f01");
  EXPECT_EQ(ToHex(IdListSectionEncode(lists, 2, IdListOptions::Default())),
            "6fc7023403020303020003000102000001e8070500014d00006464000002d104030a0001461400");
}

}  // namespace
}  // namespace seabed
