// The composed ID-list codec: Range → Diff → VB → Lz (paper Table 3 and
// Section 4.5).
//
// Seabed ships results from workers to the driver (and driver to client) as
// compressed ID lists. The codec composes four independently-toggleable
// stages, which is exactly the ablation of Figure 8:
//
//   use_range — contiguous id runs become (gap, length) pairs. Great for
//               dense/sequential selections, wasteful for sparse ones, which
//               is why group-by paths turn it off (Section 4.5).
//   use_diff  — values are delta-coded against their predecessor.
//   use_vb    — integers are variable-byte coded (else fixed 8 bytes).
//   compression — none / Lz-fast / Lz-compact applied to the whole payload
//               ("Deflate optimized for speed / compactness" in the paper).
//
// Multiset runs (count > 1) are supported via a header flag; they occur only
// when an aggregate added some ciphertext twice, which the standard query
// paths never do.
#ifndef SEABED_SRC_ENCODING_ID_LIST_CODEC_H_
#define SEABED_SRC_ENCODING_ID_LIST_CODEC_H_

#include "src/common/bytes.h"
#include "src/crypto/id_set.h"
#include "src/encoding/lz.h"

namespace seabed {

enum class IdListCompression : uint8_t {
  kNone = 0,
  kFast = 1,     // Lz fast — Seabed's production default
  kCompact = 2,  // Lz compact — the "high compression ratio" variant
};

struct IdListOptions {
  bool use_range = true;
  bool use_diff = true;
  bool use_vb = true;
  IdListCompression compression = IdListCompression::kFast;

  // Seabed production default (Section 6.4): Range + VB + Diff + Deflate(fast).
  static IdListOptions Default() { return IdListOptions{}; }

  // Group-by default (Section 4.5): range encoding off.
  static IdListOptions GroupBy() {
    IdListOptions o;
    o.use_range = false;
    return o;
  }

  const char* Label() const;
};

// Serializes `ids` under `options`. The options are recorded in the header,
// so Decode needs no side information.
Bytes IdListEncode(const IdSet& ids, const IdListOptions& options);

// Inverse of IdListEncode.
IdSet IdListDecode(const Bytes& bytes);

// Appends the runs of one encoded list to `runs` as encoded, without
// normalizing, so the lists of one aggregate decode into a single vector
// (IdSet::FromRuns then normalizes it once). Each run is decoded once with
// its multiplicity. Aborts on corrupt input, including a run or id count
// larger than the payload could encode.
void IdListDecodeRuns(const Bytes& bytes, std::vector<IdSet::Run>& runs);

}  // namespace seabed

#endif  // SEABED_SRC_ENCODING_ID_LIST_CODEC_H_
