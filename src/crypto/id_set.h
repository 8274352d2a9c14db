// The identifier multiset attached to an ASHE aggregate ciphertext.
//
// ASHE's homomorphic addition is (c1, S1) ⊕ (c2, S2) = (c1 + c2, S1 ∪ S2)
// where S is a *multiset* of row identifiers (Section 3.1). Because Seabed
// assigns consecutive row IDs at upload time (Section 4.2), S is almost always
// a union of long contiguous runs, so the in-memory representation is a sorted
// vector of {lo, hi, count} runs. A run with count > 1 records an identifier
// that was added more than once (legal under multiset semantics and needed
// when a ciphertext participates in several additions).
//
// Decryption sums count * (F_k(hi) - F_k(lo-1)) per run — two PRF calls per
// run regardless of run length (the telescoping optimization of Section 3.2).
#ifndef SEABED_SRC_CRYPTO_ID_SET_H_
#define SEABED_SRC_CRYPTO_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seabed {

class IdSet {
 public:
  struct Run {
    uint64_t lo = 0;
    uint64_t hi = 0;       // inclusive
    uint64_t count = 1;    // multiplicity of every id in [lo, hi]

    bool operator==(const Run&) const = default;
  };

  IdSet() = default;

  // Singleton {id}.
  static IdSet Single(uint64_t id);

  // Contiguous range [lo, hi] with multiplicity 1.
  static IdSet FromRange(uint64_t lo, uint64_t hi);

  // Adds `id` (multiplicity 1). O(1) when ids arrive in non-decreasing
  // order (the server's aggregation loop); a repeat of the last id, such as
  // a fact row joined to several right rows, raises its multiplicity. An
  // earlier id splices into place by binary search, never by re-sorting the
  // run vector.
  void Add(uint64_t id) {
    if (runs_.empty() || id > runs_.back().hi) {
      Run* back = runs_.empty() ? nullptr : &runs_.back();
      if (back != nullptr && id == back->hi + 1 && back->count == 1) {
        back->hi = id;  // extend the trailing run — the common sequential case
      } else {
        runs_.push_back({id, id, 1});
      }
      return;
    }
    AddAtOrBefore(id);
  }

  // Appends the contiguous range [lo, hi] (multiplicity 1).
  void AddRange(uint64_t lo, uint64_t hi);

  // Multiset union: *this = *this ∪ other. This is the S1 ∪ S2 of ⊕.
  void UnionWith(const IdSet& other);

  // The multiset union of `runs`, given in any order. Runs already sorted
  // and disjoint take one linear coalescing pass; overlapping or unordered
  // runs (e.g. the per-suffix ID lists of an inflated group, Section 4.5)
  // take one normalization pass. Every run needs lo <= hi and count >= 1.
  static IdSet FromRuns(std::vector<Run> runs);

  // Number of identifiers counting multiplicity.
  uint64_t TotalCount() const;

  // Number of distinct runs (the quantity that drives list size / PRF work).
  size_t NumRuns() const { return runs_.size(); }

  bool Empty() const { return runs_.empty(); }

  const std::vector<Run>& runs() const { return runs_; }

  // True when every run has multiplicity 1 and runs are disjoint & sorted —
  // i.e. the set case. (Always true for sums over distinct rows.)
  bool IsPlainSet() const;

  bool operator==(const IdSet&) const = default;

 private:
  // Invariant: runs sorted by lo, non-overlapping, adjacent runs with equal
  // count are coalesced.
  std::vector<Run> runs_;

  void Normalize();
  // Add of an id no greater than the last run's hi.
  void AddAtOrBefore(uint64_t id);
  // Merges runs_[i] into its neighbours where they touch with equal count.
  void CoalesceAround(size_t i);
  friend class IdSetTestPeer;
};

}  // namespace seabed

#endif  // SEABED_SRC_CRYPTO_ID_SET_H_
