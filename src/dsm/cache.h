// Direct-mapped write-back cache with MSI line states and a logical
// per-line value (no byte-level data; the value is used by the coherence
// checker to detect stale reads).
#pragma once

#include <cstdint>
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
  explicit Cache(int lines) : lines_(static_cast<std::size_t>(lines)) {}

  struct Line {
    BlockAddr tag = 0;
    LineState state = LineState::Invalid;
    std::uint64_t value = 0;
  };

  [[nodiscard]] LineState lookup(BlockAddr a) const {
    const Line& l = line_of(a);
    return (l.state != LineState::Invalid && l.tag == a) ? l.state
                                                         : LineState::Invalid;
  }

  [[nodiscard]] std::uint64_t value_of(BlockAddr a) const {
    return line_of(a).value;
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
    Line& l = line_of(a);
    ++stats_.invalidations_received;
    if (l.state == LineState::Invalid || l.tag != a) return false;
    l.state = LineState::Invalid;
    return true;
  }

  /// Modified -> Shared; returns the line value (for the writeback).
  std::uint64_t downgrade(BlockAddr a) {
    Line& l = line_of(a);
    if (l.tag == a && l.state == LineState::Modified)
      l.state = LineState::Shared;
    return l.value;
  }

  void note_hit() { ++stats_.hits; }
  void note_miss() { ++stats_.misses; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Enumerate valid lines (for the coherence checker).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const Line& l : lines_) {
      if (l.state != LineState::Invalid) fn(l);
    }
  }

private:
  [[nodiscard]] Line& line_of(BlockAddr a) {
    return lines_[a % lines_.size()];
  }
  [[nodiscard]] const Line& line_of(BlockAddr a) const {
    return lines_[a % lines_.size()];
  }

  std::vector<Line> lines_;
  CacheStats stats_;
};

} // namespace mdw::dsm
