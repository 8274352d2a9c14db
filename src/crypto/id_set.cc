#include "src/crypto/id_set.h"

#include <algorithm>

#include "src/common/check.h"

namespace seabed {

IdSet IdSet::Single(uint64_t id) {
  IdSet s;
  s.runs_.push_back({id, id, 1});
  return s;
}

IdSet IdSet::FromRange(uint64_t lo, uint64_t hi) {
  SEABED_CHECK(lo <= hi);
  IdSet s;
  s.runs_.push_back({lo, hi, 1});
  return s;
}

void IdSet::AddAtOrBefore(uint64_t id) {
  // First run ending at or after `id`: the trailing run when ids arrive in
  // order, found by binary search otherwise.
  auto ends_before = [](const Run& r, uint64_t v) { return r.hi < v; };
  const size_t i = id >= runs_.back().lo
                       ? runs_.size() - 1
                       : static_cast<size_t>(
                             std::lower_bound(runs_.begin(), runs_.end(), id, ends_before) -
                             runs_.begin());
  if (i == runs_.size() || id < runs_[i].lo) {
    // Not yet present: a new singleton run, merged with equal-count neighbours.
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i), Run{id, id, 1});
    CoalesceAround(i);
    return;
  }
  // Present in runs_[i]: split it around `id`, whose multiplicity grows.
  const Run r = runs_[i];
  Run parts[3];
  size_t n = 0;
  if (r.lo < id) {
    parts[n++] = {r.lo, id - 1, r.count};
  }
  const size_t mid = i + n;
  parts[n++] = {id, id, r.count + 1};
  if (id < r.hi) {
    parts[n++] = {id + 1, r.hi, r.count};
  }
  runs_[i] = parts[0];
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1, parts + 1, parts + n);
  CoalesceAround(mid);
}

void IdSet::CoalesceAround(size_t i) {
  if (i + 1 < runs_.size() && runs_[i].hi + 1 == runs_[i + 1].lo &&
      runs_[i].count == runs_[i + 1].count) {
    runs_[i].hi = runs_[i + 1].hi;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
  if (i > 0 && runs_[i - 1].hi + 1 == runs_[i].lo && runs_[i - 1].count == runs_[i].count) {
    runs_[i - 1].hi = runs_[i].hi;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void IdSet::AddRange(uint64_t lo, uint64_t hi) {
  SEABED_CHECK(lo <= hi);
  if (!runs_.empty()) {
    Run& back = runs_.back();
    if (lo == back.hi + 1 && back.count == 1) {
      back.hi = hi;
      return;
    }
    if (lo <= back.hi) {
      runs_.push_back({lo, hi, 1});
      Normalize();
      return;
    }
  }
  runs_.push_back({lo, hi, 1});
}

void IdSet::UnionWith(const IdSet& other) {
  if (other.runs_.empty()) {
    return;
  }
  if (runs_.empty()) {
    runs_ = other.runs_;
    return;
  }
  // Fast path: disjoint and ordered (partition-wise aggregation produces
  // exactly this shape).
  if (other.runs_.front().lo > runs_.back().hi) {
    // Possibly coalesce across the seam.
    const Run& first = other.runs_.front();
    Run& back = runs_.back();
    size_t start = 0;
    if (first.lo == back.hi + 1 && first.count == back.count) {
      back.hi = first.hi;
      start = 1;
    }
    runs_.insert(runs_.end(), other.runs_.begin() + start, other.runs_.end());
    return;
  }
  runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
  Normalize();
}

IdSet IdSet::FromRuns(std::vector<Run> runs) {
  IdSet s;
  s.runs_ = std::move(runs);
  // Coalesce in place while the runs stay sorted and disjoint; the first
  // overlap or inversion hands the whole vector to Normalize instead.
  size_t kept = 0;
  for (size_t i = 0; i < s.runs_.size(); ++i) {
    const Run& r = s.runs_[i];
    if (kept > 0) {
      Run& back = s.runs_[kept - 1];
      if (r.lo <= back.hi) {
        // runs_[kept, i) were merged into runs_[0, kept) already.
        s.runs_.erase(s.runs_.begin() + kept, s.runs_.begin() + i);
        s.Normalize();
        return s;
      }
      if (r.lo == back.hi + 1 && r.count == back.count) {
        back.hi = r.hi;
        continue;
      }
    }
    s.runs_[kept++] = r;
  }
  s.runs_.resize(kept);
  return s;
}

uint64_t IdSet::TotalCount() const {
  uint64_t total = 0;
  for (const Run& r : runs_) {
    total += (r.hi - r.lo + 1) * r.count;
  }
  return total;
}

bool IdSet::IsPlainSet() const {
  for (const Run& r : runs_) {
    if (r.count != 1) {
      return false;
    }
  }
  return true;
}

void IdSet::Normalize() {
  // Event sweep: +count at lo, -count at hi+1; emit runs where the active
  // multiplicity is positive. Handles arbitrary overlap, which arises when a
  // ciphertext is added to an aggregate more than once.
  struct Event {
    uint64_t pos;
    int64_t delta;
  };
  std::vector<Event> events;
  events.reserve(runs_.size() * 2);
  for (const Run& r : runs_) {
    events.push_back({r.lo, static_cast<int64_t>(r.count)});
    events.push_back({r.hi + 1, -static_cast<int64_t>(r.count)});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.pos < b.pos; });

  std::vector<Run> merged;
  int64_t active = 0;
  uint64_t prev_pos = 0;
  for (size_t i = 0; i < events.size();) {
    const uint64_t pos = events[i].pos;
    if (active > 0 && pos > prev_pos) {
      // Emit [prev_pos, pos - 1] with multiplicity `active`.
      if (!merged.empty() && merged.back().hi + 1 == prev_pos &&
          merged.back().count == static_cast<uint64_t>(active)) {
        merged.back().hi = pos - 1;
      } else {
        merged.push_back({prev_pos, pos - 1, static_cast<uint64_t>(active)});
      }
    }
    while (i < events.size() && events[i].pos == pos) {
      active += events[i].delta;
      ++i;
    }
    prev_pos = pos;
  }
  SEABED_CHECK(active == 0);
  runs_ = std::move(merged);
}

}  // namespace seabed
