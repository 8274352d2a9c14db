#include "src/encoding/id_list_codec.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

constexpr uint8_t kFlagRange = 1 << 0;
constexpr uint8_t kFlagDiff = 1 << 1;
constexpr uint8_t kFlagVb = 1 << 2;
constexpr uint8_t kCompressionShift = 3;  // 2 bits
constexpr uint8_t kFlagCounts = 1 << 5;

void PutInt(Bytes& out, uint64_t v, bool vb) {
  if (vb) {
    PutVarint(out, v);
  } else {
    PutU64(out, v);
  }
}

uint64_t GetInt(std::span<const uint8_t> in, size_t* cursor, bool vb) {
  if (vb) {
    return GetVarint(in, cursor);
  }
  SEABED_CHECK(*cursor + 8 <= in.size());
  const uint64_t v = GetU64(in.data() + *cursor);
  *cursor += 8;
  return v;
}

}  // namespace

const char* IdListOptions::Label() const {
  if (!use_range && use_diff && use_vb) {
    return "Diff&VB (group-by)";
  }
  if (use_range && !use_diff) {
    return compression == IdListCompression::kNone ? "Ranges & VB" : "Ranges & VB + Lz";
  }
  switch (compression) {
    case IdListCompression::kNone:
      return "Ranges & VB + Diff";
    case IdListCompression::kFast:
      return "Ranges & VB + Diff + Lz(fast)";
    case IdListCompression::kCompact:
      return "Ranges & VB + Diff + Lz(compact)";
  }
  return "?";
}

Bytes IdListEncode(const IdSet& ids, const IdListOptions& options) {
  const bool has_counts = options.use_range && !ids.IsPlainSet();
  uint8_t header = 0;
  if (options.use_range) {
    header |= kFlagRange;
  }
  if (options.use_diff) {
    header |= kFlagDiff;
  }
  if (options.use_vb) {
    header |= kFlagVb;
  }
  header |= static_cast<uint8_t>(static_cast<uint8_t>(options.compression) << kCompressionShift);
  if (has_counts) {
    header |= kFlagCounts;
  }

  Bytes payload;
  const bool vb = options.use_vb;
  if (options.use_range) {
    payload.reserve(16 + ids.NumRuns() * (has_counts ? 3 : 2) * (vb ? 1 : 8));
    PutInt(payload, ids.NumRuns(), vb);
    uint64_t prev = 0;  // previous run's hi + 1 when diff-coding
    for (const IdSet::Run& run : ids.runs()) {
      const uint64_t lo_field = options.use_diff ? run.lo - prev : run.lo;
      PutInt(payload, lo_field, vb);
      PutInt(payload, run.hi - run.lo, vb);
      if (has_counts) {
        PutInt(payload, run.count - 1, vb);
      }
      prev = run.hi + 1;
    }
  } else {
    // Id-at-a-time encoding (multiplicity realized by repetition).
    const uint64_t total = ids.TotalCount();
    payload.reserve(16 + total * (vb ? 1 : 8));
    PutInt(payload, total, vb);
    uint64_t prev = 0;
    for (const IdSet::Run& run : ids.runs()) {
      for (uint64_t id = run.lo; id <= run.hi; ++id) {
        for (uint64_t c = 0; c < run.count; ++c) {
          PutInt(payload, options.use_diff ? id - prev : id, vb);
          prev = id;
        }
      }
    }
  }

  Bytes out;
  out.push_back(header);
  switch (options.compression) {
    case IdListCompression::kNone:
      out.insert(out.end(), payload.begin(), payload.end());
      break;
    case IdListCompression::kFast: {
      const Bytes packed = LzCompress(payload, LzLevel::kFast);
      out.insert(out.end(), packed.begin(), packed.end());
      break;
    }
    case IdListCompression::kCompact: {
      const Bytes packed = LzCompress(payload, LzLevel::kCompact);
      out.insert(out.end(), packed.begin(), packed.end());
      break;
    }
  }
  return out;
}

void IdListDecodeRuns(const Bytes& bytes, std::vector<IdSet::Run>& runs) {
  SEABED_CHECK(!bytes.empty());
  const uint8_t header = bytes[0];
  const bool use_range = header & kFlagRange;
  const bool use_diff = header & kFlagDiff;
  const bool vb = header & kFlagVb;
  const bool has_counts = header & kFlagCounts;
  const auto compression =
      static_cast<IdListCompression>((header >> kCompressionShift) & 3);

  std::span<const uint8_t> payload = std::span<const uint8_t>(bytes).subspan(1);
  Bytes decompressed;
  if (compression != IdListCompression::kNone) {
    decompressed = LzDecompress(payload);
    payload = decompressed;
  }
  size_t cursor = 0;

  // Counts claimed by the payload are capped by its size before anything
  // is allocated for them: an integer takes at least field_bytes.
  const size_t field_bytes = vb ? 1 : 8;
  if (use_range) {
    const uint64_t num_runs = GetInt(payload, &cursor, vb);
    const size_t run_bytes = (has_counts ? 3 : 2) * field_bytes;
    SEABED_CHECK_MSG(num_runs <= (payload.size() - cursor) / run_bytes,
                     "corrupt ID list: " << num_runs << " runs in " << payload.size()
                                         << " bytes");
    // Grow geometrically: an exact reserve per list would copy the whole
    // vector again for every list appended to it.
    if (runs.size() + num_runs > runs.capacity()) {
      runs.reserve(std::max<size_t>(runs.size() + num_runs, 2 * runs.capacity()));
    }
    uint64_t prev = 0;
    for (uint64_t r = 0; r < num_runs; ++r) {
      const uint64_t lo_field = GetInt(payload, &cursor, vb);
      const uint64_t lo = use_diff ? prev + lo_field : lo_field;
      const uint64_t hi = lo + GetInt(payload, &cursor, vb);
      SEABED_CHECK_MSG(lo <= hi, "corrupt ID list run");
      uint64_t count = 1;
      if (has_counts) {
        const uint64_t extra = GetInt(payload, &cursor, vb);
        SEABED_CHECK_MSG(extra < uint64_t{INT64_MAX}, "corrupt ID list multiplicity");
        count = extra + 1;
      }
      runs.push_back({lo, hi, count});
      prev = hi + 1;
    }
  } else {
    const uint64_t total = GetInt(payload, &cursor, vb);
    SEABED_CHECK_MSG(total <= (payload.size() - cursor) / field_bytes,
                     "corrupt ID list: " << total << " ids in " << payload.size()
                                         << " bytes");
    uint64_t prev = 0;
    for (uint64_t i = 0; i < total; ++i) {
      const uint64_t field = GetInt(payload, &cursor, vb);
      const uint64_t id = use_diff ? prev + field : field;
      IdSet::Run* back = runs.empty() ? nullptr : &runs.back();
      if (back != nullptr && back->count == 1 && id == back->hi + 1) {
        back->hi = id;  // the next id of a run
      } else if (back != nullptr && back->lo == id && back->hi == id) {
        ++back->count;  // a repeated id (multiplicity by repetition)
      } else {
        runs.push_back({id, id, 1});
      }
      prev = id;
    }
  }
}

IdSet IdListDecode(const Bytes& bytes) {
  std::vector<IdSet::Run> runs;
  IdListDecodeRuns(bytes, runs);
  return IdSet::FromRuns(std::move(runs));
}

}  // namespace seabed
