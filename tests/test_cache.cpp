// Unit tests for the direct-mapped MSI cache model.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/cache.h"
#include "sim/rng.h"

namespace mdw::dsm {
namespace {

TEST(Cache, MissOnEmpty) {
  Cache c(16);
  EXPECT_EQ(c.lookup(5), LineState::Invalid);
}

TEST(Cache, InstallThenHit) {
  Cache c(16);
  const auto ev = c.install(5, LineState::Shared, 42);
  EXPECT_FALSE(ev.valid);
  EXPECT_EQ(c.lookup(5), LineState::Shared);
  EXPECT_EQ(c.value_of(5), 42u);
}

TEST(Cache, ConflictEviction) {
  Cache c(16);
  c.install(3, LineState::Modified, 7);
  const auto ev = c.install(3 + 16, LineState::Shared, 9);  // same set
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 3u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.value, 7u);
  EXPECT_EQ(c.lookup(3), LineState::Invalid);
  EXPECT_EQ(c.lookup(19), LineState::Shared);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, CleanEvictionNotDirty) {
  Cache c(8);
  c.install(1, LineState::Shared, 1);
  const auto ev = c.install(9, LineState::Shared, 2);
  ASSERT_TRUE(ev.valid);
  EXPECT_FALSE(ev.dirty);
}

TEST(Cache, ReinstallSameBlockIsNotEviction) {
  Cache c(8);
  c.install(1, LineState::Shared, 1);
  const auto ev = c.install(1, LineState::Modified, 2);
  EXPECT_FALSE(ev.valid);
  EXPECT_EQ(c.lookup(1), LineState::Modified);
}

TEST(Cache, InvalidatePresentAndAbsent) {
  Cache c(8);
  c.install(1, LineState::Shared, 1);
  EXPECT_TRUE(c.invalidate(1));
  EXPECT_EQ(c.lookup(1), LineState::Invalid);
  EXPECT_FALSE(c.invalidate(1));
  EXPECT_FALSE(c.invalidate(99));
  EXPECT_EQ(c.stats().invalidations_received, 3u);
}

TEST(Cache, DowngradeKeepsValue) {
  Cache c(8);
  c.install(2, LineState::Modified, 77);
  EXPECT_EQ(c.downgrade(2), 77u);
  EXPECT_EQ(c.lookup(2), LineState::Shared);
  EXPECT_EQ(c.value_of(2), 77u);
}

TEST(Cache, DowngradeAbsentIsNoop) {
  Cache c(8);
  c.downgrade(4);
  EXPECT_EQ(c.lookup(4), LineState::Invalid);
}

TEST(Cache, ForEachValidEnumeratesLines) {
  Cache c(8);
  c.install(1, LineState::Shared, 1);
  c.install(2, LineState::Modified, 2);
  int count = 0;
  c.for_each_valid([&](const Cache::Line& l) {
    ++count;
    EXPECT_NE(l.state, LineState::Invalid);
  });
  EXPECT_EQ(count, 2);
}

TEST(Cache, TagDisambiguation) {
  Cache c(8);
  c.install(3, LineState::Shared, 1);
  EXPECT_EQ(c.lookup(11), LineState::Invalid);  // same set, different tag
}

/// The dense storage `Cache` had before its slot table: every line
/// value-initialized at construction.  The differential case below holds
/// the slot table to exactly this behaviour.
class DenseCache {
public:
  explicit DenseCache(int lines) : lines_(static_cast<std::size_t>(lines)) {}

  LineState lookup(BlockAddr a) const {
    const Cache::Line& l = line_of(a);
    return (l.state != LineState::Invalid && l.tag == a) ? l.state
                                                         : LineState::Invalid;
  }
  std::uint64_t value_of(BlockAddr a) const { return line_of(a).value; }
  void set_value(BlockAddr a, std::uint64_t v) { line_of(a).value = v; }

  Cache::Eviction install(BlockAddr a, LineState st, std::uint64_t value) {
    Cache::Line& l = line_of(a);
    Cache::Eviction ev;
    if (l.state != LineState::Invalid && l.tag != a) {
      ev = Cache::Eviction{true, l.tag, l.state == LineState::Modified,
                           l.value};
      ++stats_.evictions;
      if (ev.dirty) ++stats_.dirty_evictions;
    }
    l = Cache::Line{a, st, value};
    return ev;
  }

  bool invalidate(BlockAddr a) {
    Cache::Line& l = line_of(a);
    ++stats_.invalidations_received;
    if (l.state == LineState::Invalid || l.tag != a) return false;
    l.state = LineState::Invalid;
    return true;
  }

  std::uint64_t downgrade(BlockAddr a) {
    Cache::Line& l = line_of(a);
    if (l.tag == a && l.state == LineState::Modified)
      l.state = LineState::Shared;
    return l.value;
  }

  const CacheStats& stats() const { return stats_; }

  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const Cache::Line& l : lines_) {
      if (l.state != LineState::Invalid) fn(l);
    }
  }

private:
  Cache::Line& line_of(BlockAddr a) { return lines_[a % lines_.size()]; }
  const Cache::Line& line_of(BlockAddr a) const {
    return lines_[a % lines_.size()];
  }

  std::vector<Cache::Line> lines_;
  CacheStats stats_;
};

struct Copy {
  BlockAddr tag;
  LineState state;
  std::uint64_t value;
  bool operator==(const Copy&) const = default;
};

template <class C>
std::vector<Copy> valid_copies(const C& c) {
  std::vector<Copy> out;
  c.for_each_valid([&](const Cache::Line& l) {
    out.push_back(Copy{l.tag, l.state, l.value});
  });
  return out;
}

bool same_stats(const CacheStats& x, const CacheStats& y) {
  return x.hits == y.hits && x.misses == y.misses &&
         x.evictions == y.evictions &&
         x.dirty_evictions == y.dirty_evictions &&
         x.invalidations_received == y.invalidations_received;
}

TEST(Cache, SlotTableMatchesDenseModel) {
  // Random install / lookup / value_of / set_value / invalidate / downgrade
  // sequences over addresses in [0, 4 * lines): every return value, the
  // stats and the full for_each_valid sequence must match the dense model.
  constexpr int kSteps = 4000;
  for (const int lines : {1, 2, 16, 1024}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Cache c(lines);
      DenseCache d(lines);
      sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(lines));
      const std::uint64_t span = 4 * static_cast<std::uint64_t>(lines);
      for (int step = 0; step < kSteps; ++step) {
        const BlockAddr a = rng.next_below(span);
        const auto st = static_cast<LineState>(rng.next_below(3));
        const std::uint64_t v = rng.next_below(1000);
        const auto op = rng.next_below(6);
        const auto where = [&] {
          return "lines " + std::to_string(lines) + " seed " +
                 std::to_string(seed) + " step " + std::to_string(step) +
                 " op " + std::to_string(op) + " addr " + std::to_string(a);
        };
        switch (op) {
          case 0: {
            const Cache::Eviction x = c.install(a, st, v);
            const Cache::Eviction y = d.install(a, st, v);
            ASSERT_EQ(x.valid, y.valid) << where();
            ASSERT_EQ(x.addr, y.addr) << where();
            ASSERT_EQ(x.dirty, y.dirty) << where();
            ASSERT_EQ(x.value, y.value) << where();
            break;
          }
          case 1:
            ASSERT_EQ(c.lookup(a), d.lookup(a)) << where();
            break;
          case 2:
            ASSERT_EQ(c.value_of(a), d.value_of(a)) << where();
            break;
          case 3:
            c.set_value(a, v);
            d.set_value(a, v);
            break;
          case 4:
            ASSERT_EQ(c.invalidate(a), d.invalidate(a)) << where();
            break;
          default:
            ASSERT_EQ(c.downgrade(a), d.downgrade(a)) << where();
            break;
        }
        ASSERT_TRUE(same_stats(c.stats(), d.stats())) << where();
        ASSERT_EQ(valid_copies(c), valid_copies(d)) << where();
      }
    }
  }
}

#ifndef NDEBUG
TEST(CacheDeathTest, LineCountMustFitASixteenBitSlot) {
  EXPECT_DEATH({ Cache c(0); }, "lines");
  EXPECT_DEATH({ Cache c(65536); }, "lines");
}
#endif

} // namespace
} // namespace mdw::dsm
