// Unit tests for
//   * core::SharerBitmap — the directory presence bits / plan-cache key,
//   * core::PlanCache   — memoized invalidation plans (hit/miss/eviction/
//                         disabled, and value-identity with fresh planning),
//                         the benchmark's planner-replay utility.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/plan_cache.h"
#include "core/sharer_set.h"

namespace mdw {
namespace {

using core::PlanCache;
using core::Scheme;
using core::SharerBitmap;
using noc::MeshShape;

// ---------------------------------------------------------------------------
// SharerBitmap
// ---------------------------------------------------------------------------

SharerBitmap bitmap_of(const std::vector<NodeId>& ids) {
  SharerBitmap b;
  for (NodeId id : ids) b.insert(id);
  return b;
}

TEST(SharerBitmap, InsertEraseContainsCount) {
  SharerBitmap b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0);
  b.insert(0);
  b.insert(63);
  b.insert(64);
  b.insert(200);
  EXPECT_EQ(b.count(), 4);
  EXPECT_TRUE(b.contains(63));
  EXPECT_TRUE(b.contains(64));
  EXPECT_FALSE(b.contains(1));
  b.insert(64);  // idempotent
  EXPECT_EQ(b.count(), 4);
  b.erase(64);
  EXPECT_FALSE(b.contains(64));
  EXPECT_EQ(b.count(), 3);
  b.erase(64);  // erasing an absent id is a no-op
  EXPECT_EQ(b.count(), 3);
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.contains(0));
}

TEST(SharerBitmap, IterationIsAscending) {
  const std::vector<NodeId> ids = {200, 3, 64, 63, 127, 0};
  const SharerBitmap b = bitmap_of(ids);
  std::vector<NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(b.to_vector(), sorted);
  std::vector<NodeId> visited;
  b.for_each([&](NodeId id) { visited.push_back(id); });
  EXPECT_EQ(visited, sorted);
}

TEST(SharerBitmap, SpillsBeyondInlineWindow) {
  // Ids past 64 * kInlineWords exercise the heap spill block.
  SharerBitmap b;
  const NodeId big = 64 * SharerBitmap::kInlineWords + 37;
  b.insert(big);
  b.insert(5);
  EXPECT_TRUE(b.contains(big));
  EXPECT_EQ(b.count(), 2);
  EXPECT_EQ(b.to_vector(), (std::vector<NodeId>{5, big}));
}

TEST(SharerBitmap, EqualityAndHashAreCanonical) {
  // Two bitmaps with the same contents must compare equal and hash equal
  // regardless of erase history or high-water capacity.
  SharerBitmap a = bitmap_of({1, 2, 300});
  a.erase(300);  // leaves a zero spill word behind
  const SharerBitmap b = bitmap_of({1, 2});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  const SharerBitmap c = bitmap_of({1, 2, 3});
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.hash(), c.hash());
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

/// Field-by-field value identity of two plans.  Worm ids are intentionally
/// not compared: they are drawn from a global monotonic counter, so a cached
/// replay and a fresh plan agree on ids only when run in the same sequence
/// position (the determinism suite pins that end to end).
void expect_plans_identical(const core::InvalPlan& a, const core::InvalPlan& b) {
  ASSERT_EQ(a.request_worms.size(), b.request_worms.size());
  for (std::size_t i = 0; i < a.request_worms.size(); ++i) {
    const noc::Worm& wa = *a.request_worms[i];
    const noc::Worm& wb = *b.request_worms[i];
    EXPECT_EQ(wa.kind, wb.kind);
    EXPECT_EQ(wa.vnet, wb.vnet);
    EXPECT_EQ(wa.src, wb.src);
    EXPECT_EQ(wa.txn, wb.txn);
    EXPECT_EQ(wa.length_flits, wb.length_flits);
    ASSERT_EQ(wa.path.size(), wb.path.size());
    EXPECT_TRUE(std::equal(wa.path.begin(), wa.path.end(), wb.path.begin()));
    ASSERT_EQ(wa.dests.size(), wb.dests.size());
    for (std::size_t d = 0; d < wa.dests.size(); ++d) {
      EXPECT_EQ(wa.dests[d].node, wb.dests[d].node);
      EXPECT_EQ(wa.dests[d].action, wb.dests[d].action);
      EXPECT_EQ(wa.dests[d].expected_posts, wb.dests[d].expected_posts);
    }
  }
  ASSERT_NE(a.directive, nullptr);
  ASSERT_NE(b.directive, nullptr);
  EXPECT_EQ(a.directive->txn, b.directive->txn);
  const core::InvalPattern& pa = *a.directive->pattern;
  const core::InvalPattern& pb = *b.directive->pattern;
  EXPECT_EQ(pa.home, pb.home);
  EXPECT_EQ(pa.total_sharers, pb.total_sharers);
  EXPECT_EQ(pa.roles, pb.roles);
  EXPECT_EQ(pa.gather_of, pb.gather_of);
  ASSERT_EQ(pa.gathers.size(), pb.gathers.size());
  for (std::size_t g = 0; g < pa.gathers.size(); ++g) {
    EXPECT_EQ(pa.gathers[g].initiator, pb.gathers[g].initiator);
    EXPECT_EQ(pa.gathers[g].path, pb.gathers[g].path);
    EXPECT_EQ(pa.gathers[g].length_flits, pb.gathers[g].length_flits);
    EXPECT_EQ(pa.gathers[g].vc_class, pb.gathers[g].vc_class);
    EXPECT_EQ(pa.gathers[g].covers, pb.gathers[g].covers);
  }
  EXPECT_EQ(a.expected_ack_messages, b.expected_ack_messages);
  EXPECT_EQ(a.total_ack_worms, b.total_ack_worms);
}

TEST(PlanCache, MissThenHitIsValueIdentical) {
  const MeshShape mesh(8, 8);
  const noc::WormSizing sizing;
  const SharerBitmap sharers = bitmap_of({3, 9, 17, 26, 33, 49});
  const NodeId home = 0;
  PlanCache cache(64);
  ASSERT_TRUE(cache.enabled());

  const auto first =
      cache.get_or_build(Scheme::EcCmHg, mesh, home, sharers, 100, sizing);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // A reference plan for the hit's transaction id, built without the cache.
  const auto fresh = core::plan_invalidation(Scheme::EcCmHg, mesh, home,
                                             sharers.to_vector(), 101, sizing);
  const auto replayed =
      cache.get_or_build(Scheme::EcCmHg, mesh, home, sharers, 101, sizing);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  expect_plans_identical(replayed, fresh);

  // The hit shares the immutable pattern with the first (miss) plan but
  // stamps a fresh directive carrying the new transaction id.
  EXPECT_EQ(replayed.directive->pattern.get(), first.directive->pattern.get());
  EXPECT_NE(replayed.directive.get(), first.directive.get());
  EXPECT_EQ(replayed.directive->txn, 101u);
  for (const auto& w : replayed.request_worms) {
    EXPECT_EQ(w->payload.get(), replayed.directive.get());
  }
}

TEST(PlanCache, KeyCoversSchemeHomeAndSharerSet) {
  const MeshShape mesh(8, 8);
  const noc::WormSizing sizing;
  const SharerBitmap sharers = bitmap_of({5, 12, 23});
  PlanCache cache(64);
  (void)cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers, 1, sizing);
  // Different scheme, different home, different sharer set: all misses.
  (void)cache.get_or_build(Scheme::WfScSg, mesh, 0, sharers, 2, sizing);
  (void)cache.get_or_build(Scheme::EcCmHg, mesh, 9, sharers, 3, sizing);
  (void)cache.get_or_build(Scheme::EcCmHg, mesh, 0, bitmap_of({5, 12}), 4,
                           sizing);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // The original key still resides in the table.
  (void)cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers, 5, sizing);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, DisabledCacheAlwaysPlansFresh) {
  const MeshShape mesh(8, 8);
  const noc::WormSizing sizing;
  const SharerBitmap sharers = bitmap_of({2, 11, 40});
  PlanCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const auto a = cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers, 7, sizing);
  const auto b = cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers, 8, sizing);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  const auto fresh = core::plan_invalidation(Scheme::EcCmHg, mesh, 0,
                                             sharers.to_vector(), 8, sizing);
  expect_plans_identical(b, fresh);
  EXPECT_NE(a.directive->pattern.get(), b.directive->pattern.get());
}

TEST(PlanCache, EvictsWhenBoundedAndRefills) {
  const MeshShape mesh(8, 8);
  const noc::WormSizing sizing;
  PlanCache cache(4);  // tiny table: colliding keys must evict
  TxnId txn = 1;
  for (NodeId home = 0; home < 32; ++home) {
    const SharerBitmap sharers =
        bitmap_of({static_cast<NodeId>((home + 7) % 64),
                   static_cast<NodeId>((home + 19) % 64)});
    (void)cache.get_or_build(Scheme::EcCmHg, mesh, home, sharers, txn++, sizing);
  }
  EXPECT_EQ(cache.stats().misses, 32u);
  EXPECT_GT(cache.stats().evictions, 0u);
  // An evicted key misses again, is re-memoized, and then hits: the cached
  // replay must still be value-identical to a fresh plan.
  const SharerBitmap sharers = bitmap_of({7, 19});
  const auto miss = cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers,
                                       txn++, sizing);
  const auto fresh = core::plan_invalidation(Scheme::EcCmHg, mesh, 0,
                                             sharers.to_vector(), txn, sizing);
  const auto hit =
      cache.get_or_build(Scheme::EcCmHg, mesh, 0, sharers, txn, sizing);
  EXPECT_GT(cache.stats().hits, 0u);
  expect_plans_identical(hit, fresh);
  expect_plans_identical(miss, core::plan_invalidation(
                                   Scheme::EcCmHg, mesh, 0,
                                   sharers.to_vector(), hit.directive->txn - 1,
                                   sizing));
}

} // namespace
} // namespace mdw
