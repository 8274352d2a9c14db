#include "src/encoding/lz.h"

#include <cstring>

#include "src/common/check.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1 << kHashBits;

uint32_t Hash4(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

void FlushLiterals(Bytes& out, const Bytes& input, size_t start, size_t end) {
  while (start < end) {
    const size_t chunk = end - start;
    PutVarint(out, static_cast<uint64_t>(chunk) << 1);
    out.insert(out.end(), input.begin() + start, input.begin() + start + chunk);
    start += chunk;
  }
}

struct Match {
  size_t length = 0;
  size_t distance = 0;
};

Match FindMatch(const Bytes& input, size_t pos, const std::vector<uint32_t>& head,
                size_t window) {
  Match best;
  if (pos + kMinMatch > input.size()) {
    return best;
  }
  const uint32_t candidate = head[Hash4(input.data() + pos)];
  if (candidate == UINT32_MAX) {
    return best;
  }
  const size_t cand_pos = candidate;
  if (cand_pos >= pos || pos - cand_pos > window) {
    return best;
  }
  const size_t max_len = std::min(input.size() - pos, kMaxMatch);
  const size_t len = MatchLength(input.data() + cand_pos, input.data() + pos, max_len);
  if (len >= kMinMatch) {
    best.length = len;
    best.distance = pos - cand_pos;
  }
  return best;
}

}  // namespace

Bytes LzCompress(const Bytes& input, LzLevel level) {
  Bytes out;
  PutVarint(out, input.size());
  if (input.empty()) {
    return out;
  }
  const size_t window = level == LzLevel::kFast ? (1u << 16) : (1u << 20);
  const bool lazy = level == LzLevel::kCompact;

  // Every slot is UINT32_MAX between calls (see the reset below).
  thread_local std::vector<uint32_t> head(kHashSize, UINT32_MAX);
  size_t literal_start = 0;
  size_t pos = 0;
  while (pos < input.size()) {
    Match m = FindMatch(input, pos, head, window);
    if (m.length >= kMinMatch && lazy && pos + 1 + kMinMatch <= input.size()) {
      // Lazy matching: if the next position has a strictly longer match, emit
      // this byte as a literal instead.
      if (pos + 4 <= input.size()) {
        head[Hash4(input.data() + pos)] = static_cast<uint32_t>(pos);
      }
      const Match next = FindMatch(input, pos + 1, head, window);
      if (next.length > m.length) {
        ++pos;
        continue;
      }
    }
    if (m.length >= kMinMatch) {
      FlushLiterals(out, input, literal_start, pos);
      PutVarint(out, (static_cast<uint64_t>(m.length) << 1) | 1);
      PutVarint(out, m.distance);
      // Insert hash entries across the match (sparsely for speed).
      const size_t step = level == LzLevel::kFast ? 4 : 1;
      const size_t match_end = pos + m.length;
      for (size_t i = pos; i + 4 <= input.size() && i < match_end; i += step) {
        head[Hash4(input.data() + i)] = static_cast<uint32_t>(i);
      }
      pos = match_end;
      literal_start = pos;
    } else {
      if (pos + 4 <= input.size()) {
        head[Hash4(input.data() + pos)] = static_cast<uint32_t>(pos);
      }
      ++pos;
    }
  }
  FlushLiterals(out, input, literal_start, input.size());
  // Every slot written above is the hash of some 4-byte window of `input`.
  for (size_t i = 0; i + 4 <= input.size(); ++i) {
    head[Hash4(input.data() + i)] = UINT32_MAX;
  }
  return out;
}

Bytes LzDecompress(std::span<const uint8_t> input) {
  size_t cursor = 0;
  const uint64_t total = GetVarint(input, &cursor);
  // Every token takes at least two input bytes (a length varint plus >= 1
  // literal byte, or two varints) and expands to at most kMaxMatch bytes, so
  // a larger size claim is corrupt: reject it before allocating for it.
  SEABED_CHECK_MSG(total <= (input.size() - cursor) / 2 * kMaxMatch,
                   "corrupt LZ header: " << total << " bytes from " << input.size());
  Bytes out(total);
  size_t pos = 0;
  while (pos < total) {
    const uint64_t token = GetVarint(input, &cursor);
    const uint64_t len = token >> 1;
    SEABED_CHECK_MSG(len <= total - pos, "corrupt LZ token overruns the output");
    uint8_t* dst = out.data() + pos;
    if (token & 1) {
      const uint64_t distance = GetVarint(input, &cursor);
      SEABED_CHECK_MSG(distance >= 1 && distance <= pos, "corrupt LZ match");
      const uint8_t* src = dst - distance;
      if (distance >= len) {
        std::memcpy(dst, src, len);
      } else {
        for (uint64_t i = 0; i < len; ++i) {
          dst[i] = src[i];  // byte-wise: an overlapping match reads its own output
        }
      }
    } else {
      SEABED_CHECK_MSG(len <= input.size() - cursor, "corrupt LZ literal run");
      std::memcpy(dst, input.data() + cursor, len);
      cursor += len;
    }
    pos += len;
  }
  return out;
}

}  // namespace seabed
