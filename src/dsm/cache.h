// Direct-mapped write-back cache with MSI line states and a logical
// per-line value (no byte-level data; the value is used by the coherence
// checker to detect stale reads).
//
// Storage is allocated on first use (DESIGN.md section 11).  `slot_` maps
// each of the `lines_` sets to 0 ("never used") or 1 + an index into
// `used_`, which holds the lines in first-install order.  A never-used set
// reads exactly like a zero-initialized line: Invalid, tag 0, value 0.
// Only install and set_value write a line that may be absent, so only they
// create a slot; the slot table itself is allocated by the first of them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace mdw::dsm {

enum class LineState : std::uint8_t { Invalid, Shared, Modified };

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t invalidations_received = 0;
};

class Cache {
public:
  /// `lines` must lie in [1, 65535]: a slot holds a 16-bit index.
  explicit Cache(int lines) : lines_(static_cast<std::size_t>(lines)) {
    assert(lines >= 1 && lines <= 65535);
  }

  struct Line {
    BlockAddr tag = 0;
    LineState state = LineState::Invalid;
    std::uint64_t value = 0;
  };

  [[nodiscard]] LineState lookup(BlockAddr a) const {
    const Line* l = find(a);
    return (l != nullptr && l->state != LineState::Invalid && l->tag == a)
               ? l->state
               : LineState::Invalid;
  }

  [[nodiscard]] std::uint64_t value_of(BlockAddr a) const {
    const Line* l = find(a);
    return l != nullptr ? l->value : 0;
  }

  void set_value(BlockAddr a, std::uint64_t v) { line_of(a).value = v; }

  struct Eviction {
    bool valid = false;
    BlockAddr addr = 0;
    bool dirty = false;
    std::uint64_t value = 0;
  };

  /// Install `a` with `st`, returning whatever was evicted.
  Eviction install(BlockAddr a, LineState st, std::uint64_t value) {
    Line& l = line_of(a);
    Eviction ev;
    if (l.state != LineState::Invalid && l.tag != a) {
      ev = Eviction{true, l.tag, l.state == LineState::Modified, l.value};
      ++stats_.evictions;
      if (ev.dirty) ++stats_.dirty_evictions;
    }
    l.tag = a;
    l.state = st;
    l.value = value;
    return ev;
  }

  /// Invalidate `a` if present; returns true if a copy existed.
  bool invalidate(BlockAddr a) {
    Line* l = find(a);
    ++stats_.invalidations_received;
    if (l == nullptr || l->state == LineState::Invalid || l->tag != a)
      return false;
    l->state = LineState::Invalid;
    return true;
  }

  /// Modified -> Shared; returns the line value (for the writeback).
  std::uint64_t downgrade(BlockAddr a) {
    Line* l = find(a);
    if (l == nullptr) return 0;
    if (l->tag == a && l->state == LineState::Modified)
      l->state = LineState::Shared;
    return l->value;
  }

  void note_hit() { ++stats_.hits; }
  void note_miss() { ++stats_.misses; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Enumerate valid lines in set order (for the coherence checker).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const std::uint16_t s : slot_) {
      if (s != 0 && used_[s - 1].state != LineState::Invalid) {
        fn(used_[s - 1]);
      }
    }
  }

private:
  /// The line of `a`'s set, or nullptr if that set was never written.
  [[nodiscard]] const Line* find(BlockAddr a) const {
    if (slot_.empty()) return nullptr;
    const std::uint16_t s = slot_[a % lines_];
    return s != 0 ? &used_[s - 1] : nullptr;
  }
  [[nodiscard]] Line* find(BlockAddr a) {
    return const_cast<Line*>(std::as_const(*this).find(a));
  }

  /// The line of `a`'s set, created zero-initialized on first use.  `used_`
  /// grows by doubling but never past `lines_`, so a cache whose every set
  /// is used holds no more than the dense array plus its slot table.
  [[nodiscard]] Line& line_of(BlockAddr a) {
    if (slot_.empty()) slot_.assign(lines_, 0);
    std::uint16_t& s = slot_[a % lines_];
    if (s == 0) {
      if (used_.size() == used_.capacity()) {
        used_.reserve(std::min(lines_, 2 * used_.size() + 1));
      }
      used_.emplace_back();
      s = static_cast<std::uint16_t>(used_.size());
    }
    return used_[s - 1];
  }

  std::size_t lines_;
  std::vector<std::uint16_t> slot_;
  std::vector<Line> used_;
  CacheStats stats_;
};

} // namespace mdw::dsm
