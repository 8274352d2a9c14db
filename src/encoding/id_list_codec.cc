#include "src/encoding/id_list_codec.h"

#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

constexpr uint8_t kFlagRange = 1 << 0;
constexpr uint8_t kFlagDiff = 1 << 1;
constexpr uint8_t kFlagVb = 1 << 2;
constexpr uint8_t kCompressionShift = 3;  // 2 bits
constexpr uint8_t kFlagCounts = 1 << 5;
constexpr uint8_t kFlagShape = 1 << 6;  // G and L lead the payload (else 1, 1)

void PutInt(Bytes& out, uint64_t v, bool vb) {
  if (vb) {
    PutVarint(out, v);
  } else {
    PutU64(out, v);
  }
}

// Appends one list: its field count, then its fields.
void PutList(Bytes& out, const IdSet& ids, const IdListOptions& options, bool has_counts) {
  const bool vb = options.use_vb;
  uint64_t prev = 0;
  if (options.use_range) {
    PutInt(out, ids.NumRuns(), vb);
    for (const IdSet::Run& run : ids.runs()) {
      PutInt(out, options.use_diff ? run.lo - prev : run.lo, vb);
      PutInt(out, run.hi - run.lo, vb);
      if (has_counts) {
        PutInt(out, run.count - 1, vb);
      }
      prev = run.hi + 1;
    }
    return;
  }
  // Id-at-a-time encoding (multiplicity realized by repetition).
  PutInt(out, ids.TotalCount(), vb);
  for (const IdSet::Run& run : ids.runs()) {
    for (uint64_t id = run.lo; id <= run.hi; ++id) {
      for (uint64_t c = 0; c < run.count; ++c) {
        PutInt(out, options.use_diff ? id - prev : id, vb);
        prev = id;
      }
    }
  }
}

}  // namespace

Bytes IdListSectionEncode(std::span<const IdSet> lists, size_t num_lists,
                          const IdListOptions& options) {
  SEABED_CHECK(num_lists >= 1 && lists.size() % num_lists == 0);
  const size_t num_groups = lists.size() / num_lists;
  bool has_counts = false;
  for (const IdSet& ids : lists) {
    has_counts |= options.use_range && !ids.IsPlainSet();
  }
  uint8_t header = static_cast<uint8_t>(static_cast<uint8_t>(options.compression)
                                        << kCompressionShift);
  header |= options.use_range ? kFlagRange : 0;
  header |= options.use_diff ? kFlagDiff : 0;
  header |= options.use_vb ? kFlagVb : 0;
  header |= has_counts ? kFlagCounts : 0;
  const bool shaped = num_groups != 1 || num_lists != 1;
  header |= shaped ? kFlagShape : 0;

  Bytes payload;
  if (shaped) {
    PutInt(payload, num_groups, options.use_vb);
    PutInt(payload, num_lists, options.use_vb);
  }
  for (size_t l = 0; l < num_lists; ++l) {
    for (size_t g = 0; g < num_groups; ++g) {
      PutList(payload, lists[g * num_lists + l], options, has_counts);
    }
  }

  Bytes out = options.compression == IdListCompression::kNone
                  ? std::move(payload)
                  : LzCompress(payload, options.compression == IdListCompression::kFast
                                            ? LzLevel::kFast
                                            : LzLevel::kCompact);
  out.insert(out.begin(), header);
  return out;
}

IdListSectionReader::IdListSectionReader(std::span<const uint8_t> section) {
  SEABED_CHECK_MSG(!section.empty(), "corrupt ID-list section: no header");
  const uint8_t header = section[0];
  use_range_ = header & kFlagRange;
  use_diff_ = header & kFlagDiff;
  vb_ = header & kFlagVb;
  has_counts_ = header & kFlagCounts;
  const auto compression = static_cast<IdListCompression>((header >> kCompressionShift) & 3);
  SEABED_CHECK_MSG(compression <= IdListCompression::kCompact,
                   "corrupt ID-list section: unknown compression");
  payload_ = section.subspan(1);
  if (compression != IdListCompression::kNone) {
    decompressed_ = LzDecompress(payload_);
    payload_ = decompressed_;
  }
  // Every list needs at least its field count, so G * L fields must fit.
  const bool shaped = header & kFlagShape;
  num_groups_ = shaped ? GetField() : 1;
  num_lists_ = shaped ? GetField() : 1;
  const size_t room = (payload_.size() - cursor_) / (vb_ ? 1 : 8);
  SEABED_CHECK_MSG(num_lists_ >= 1 && num_groups_ <= room / num_lists_,
                   "corrupt ID-list section: " << num_groups_ << " groups of " << num_lists_
                                               << " lists in " << payload_.size() << " bytes");
}

uint64_t IdListSectionReader::GetField() {
  if (vb_) {
    return GetVarint(payload_, &cursor_);
  }
  SEABED_CHECK_MSG(cursor_ + 8 <= payload_.size(), "corrupt ID-list section: truncated");
  const uint64_t v = GetU64(payload_.data() + cursor_);
  cursor_ += 8;
  return v;
}

bool IdListSectionReader::StartSlot() {
  if (next_slot_ == num_groups_ * num_lists_) {
    return false;
  }
  list_ = next_slot_ / num_groups_;
  group_ = static_cast<uint32_t>(next_slot_ % num_groups_);
  ++next_slot_;
  prev_ = 0;
  left_ = GetField();
  const size_t field_bytes = vb_ ? 1 : 8;
  const size_t bytes_per = use_range_ ? (has_counts_ ? 3 : 2) * field_bytes : field_bytes;
  SEABED_CHECK_MSG(left_ <= (payload_.size() - cursor_) / bytes_per,
                   "corrupt ID list: " << left_ << (use_range_ ? " runs" : " ids") << " in "
                                       << payload_.size() - cursor_ << " bytes");
  return true;
}

size_t IdListSectionReader::Next(IdSet::Run* runs, uint32_t* groups, size_t max) {
  size_t n = 0;
  auto emit = [&](const IdSet::Run& run) {
    runs[n] = run;
    groups[n] = group_;
    ++n;
  };
  while (n < max) {
    if (left_ == 0) {
      if (has_pending_) {
        emit(pending_);
        has_pending_ = false;
        continue;
      }
      // The next slot may extend this chunk only within the same list.
      if ((n > 0 && next_slot_ / num_groups_ != list_) || !StartSlot()) {
        break;
      }
      continue;
    }
    --left_;
    if (use_range_) {
      const uint64_t lo_field = GetField();
      const uint64_t lo = use_diff_ ? prev_ + lo_field : lo_field;
      const uint64_t hi = lo + GetField();
      SEABED_CHECK_MSG(lo <= hi, "corrupt ID list run");
      uint64_t count = 1;
      if (has_counts_) {
        const uint64_t extra = GetField();
        SEABED_CHECK_MSG(extra < uint64_t{INT64_MAX}, "corrupt ID list multiplicity");
        count = extra + 1;
      }
      emit({lo, hi, count});
      prev_ = hi + 1;
      continue;
    }
    const uint64_t field = GetField();
    const uint64_t id = use_diff_ ? prev_ + field : field;
    prev_ = id;
    if (has_pending_ && pending_.count == 1 && id > pending_.hi && id - pending_.hi == 1) {
      pending_.hi = id;  // the next id of a run
    } else if (has_pending_ && pending_.lo == id && pending_.hi == id) {
      ++pending_.count;  // a repeated id (multiplicity by repetition)
    } else {
      if (has_pending_) {
        emit(pending_);
      }
      pending_ = {id, id, 1};
      has_pending_ = true;
    }
  }
  return n;
}

}  // namespace seabed
