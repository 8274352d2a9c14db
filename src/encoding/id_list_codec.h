// The ID-list section codec: Range → Diff → VB → Lz (paper Table 3 and
// Section 4.5).
//
// Seabed ships the identifier lists of ASHE sums from workers to the driver
// (and driver to client) compressed. A response carries them as sections: one
// section holds the lists of G groups, L lists per group, and is compressed
// as one unit. The codec composes four independently-toggleable stages,
// which is exactly the ablation of Figure 8:
//
//   use_range — contiguous id runs become (gap, length) pairs. Great for
//               dense/sequential selections, wasteful for sparse ones, which
//               is why group-by paths turn it off (Section 4.5).
//   use_diff  — values are delta-coded against their predecessor in the list.
//   use_vb    — integers are variable-byte coded (else fixed 8 bytes).
//   compression — none / Lz-fast / Lz-compact applied to the whole payload
//               ("Deflate optimized for speed / compactness" in the paper).
//
// Section layout:
//
//   header  — one byte: the four stages' flags, a flag for multiset runs
//             (range coding only; id-at-a-time coding repeats an id), and a
//             flag for an explicit shape
//   payload — compressed as a whole unless compression is none:
//             G and L when the shape is explicit (else G = L = 1), then the
//             lists list-major (list 0 of groups 0..G-1, then list 1, ...).
//             Each list is its field count (runs, or ids counting
//             multiplicity) followed by its fields; diff coding restarts at 0
//             in every list.
//
// A single ID list is a one-group, one-list section, which costs no more
// bytes than the list alone.
#ifndef SEABED_SRC_ENCODING_ID_LIST_CODEC_H_
#define SEABED_SRC_ENCODING_ID_LIST_CODEC_H_

#include <span>

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
};

// Encodes a section of lists.size() / num_lists groups with `num_lists`
// lists each: list l of group g is lists[g * num_lists + l]. The options are
// recorded in the header, so the reader needs no side information.
Bytes IdListSectionEncode(std::span<const IdSet> lists, size_t num_lists,
                          const IdListOptions& options);

// Streams the runs of one encoded section without materializing them: the
// caller pulls fixed-size chunks (Next), so decoding allocates nothing per
// group or per run beyond the decompressed payload. Runs come in stream
// order, one list at a time; a list coded id-at-a-time comes back as its
// maximal runs of consecutive ids (a repeated id as one run with a count).
//
// Every size the bytes claim — the LZ output size, the group and list
// counts, each list's field count — is checked against what the remaining
// input could encode before it is used, and corrupt input aborts.
class IdListSectionReader {
 public:
  explicit IdListSectionReader(std::span<const uint8_t> section);
  IdListSectionReader(const IdListSectionReader&) = delete;
  IdListSectionReader& operator=(const IdListSectionReader&) = delete;

  size_t num_groups() const { return num_groups_; }
  size_t num_lists() const { return num_lists_; }

  // Decodes up to `max` further runs into `runs`, with the section-local
  // group of each in `groups`. Returns how many, 0 at the end of the section.
  // The runs of one call all belong to list(); a call never crosses lists.
  size_t Next(IdSet::Run* runs, uint32_t* groups, size_t max);
  size_t list() const { return list_; }

 private:
  uint64_t GetField();
  // Starts the next (list, group) slot; false at the end of the section.
  bool StartSlot();

  Bytes decompressed_;
  std::span<const uint8_t> payload_;
  size_t cursor_ = 0;
  bool use_range_ = false;
  bool use_diff_ = false;
  bool vb_ = false;
  bool has_counts_ = false;
  size_t num_groups_ = 0;
  size_t num_lists_ = 0;
  size_t next_slot_ = 0;  // list-major index of the next (list, group)
  size_t list_ = 0;       // the current slot's list and group
  uint32_t group_ = 0;
  uint64_t left_ = 0;  // fields left in the current slot
  uint64_t prev_ = 0;  // diff base
  bool has_pending_ = false;  // id-at-a-time: the run being extended
  IdSet::Run pending_;
};

}  // namespace seabed

#endif  // SEABED_SRC_ENCODING_ID_LIST_CODEC_H_
