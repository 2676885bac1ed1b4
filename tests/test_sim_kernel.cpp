// Unit tests for the simulation kernel: event queue ordering, engine
// progress/quiescence semantics, RNG determinism, statistics accumulators.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace mdw::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(10); });
  q.schedule_at(5, [&] { order.push_back(5); });
  q.schedule_at(7, [&] { order.push_back(7); });
  q.run_due(20);
  EXPECT_EQ(order, (std::vector<int>{5, 7, 10}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) q.schedule_at(3, [&, i] { order.push_back(i); });
  q.run_due(3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_at(1, [&] { ++fired; });  // same-time event from a callback
    q.schedule_at(9, [&] { ++fired; });
  });
  q.run_due(5);
  EXPECT_EQ(fired, 2);
  q.run_due(9);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, DoesNotRunFutureEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(100, [&] { ++fired; });
  q.run_due(99);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.next_time(), 100u);
}

TEST(Engine, SchedulesAndAdvances) {
  Engine e;
  Cycle fired_at = 0;
  e.schedule_after(25, [&] { fired_at = e.now(); });
  EXPECT_TRUE(e.run_to_quiescence(1000));
  EXPECT_EQ(fired_at, 25u);
}

TEST(Engine, FastForwardsIdleGaps) {
  Engine e;
  int count = 0;
  e.schedule_at(1'000'000, [&] { ++count; });
  // Must finish instantly despite the distant event.
  EXPECT_TRUE(e.run_to_quiescence(2'000'000));
  EXPECT_EQ(count, 1);
  EXPECT_GE(e.now(), 1'000'000u);
}

TEST(Engine, RunUntilPredicate) {
  Engine e;
  bool flag = false;
  e.schedule_at(50, [&] { flag = true; });
  EXPECT_TRUE(e.run_until([&] { return flag; }, 10'000));
  EXPECT_LE(e.now(), 60u);
}

TEST(Engine, RunUntilTimesOut) {
  Engine e;
  EXPECT_FALSE(e.run_until([] { return false; }, 100));
}

TEST(Engine, ChainedEventsKeepRelativeOrder) {
  Engine e;
  std::vector<int> seq;
  e.schedule_at(2, [&] {
    seq.push_back(1);
    e.schedule_after(3, [&] { seq.push_back(3); });
  });
  e.schedule_at(4, [&] { seq.push_back(2); });
  EXPECT_TRUE(e.run_to_quiescence(100));
  EXPECT_EQ(seq, (std::vector<int>{1, 2, 3}));
}

class CountingTicker : public Tickable {
public:
  int ticks = 0;
  int active_for = 0;
  bool tick(Cycle) override {
    ++ticks;
    return ticks <= active_for;
  }
};

TEST(Engine, TickablesRunWhileActive) {
  Engine e;
  CountingTicker t;
  t.active_for = 10;
  e.register_tickable(&t);
  EXPECT_TRUE(e.run_to_quiescence(1000));
  EXPECT_GE(t.ticks, 10);
}

TEST(Engine, RunUntilTellsDrainedFromOutOfBudget) {
  // Drained: the last event fires at cycle 40 and the predicate never
  // holds, so the run stops right after it with most of its budget left.
  Engine e;
  e.schedule_at(40, [] {});
  EXPECT_FALSE(e.run_until([] { return false; }, 1'000));
  EXPECT_TRUE(e.drained());
  EXPECT_LT(e.now(), 50u);

  // Out of budget: a busy component keeps the engine stepping until the
  // budget runs out, which is not a drain.
  CountingTicker t;
  t.active_for = 1'000'000;
  e.register_tickable(&t);
  const Cycle start = e.now();
  EXPECT_FALSE(e.run_until([] { return false; }, 100));
  EXPECT_FALSE(e.drained());
  EXPECT_EQ(e.now(), start + 100);

  // A satisfied predicate is not a drain either.
  EXPECT_TRUE(e.run_until([] { return true; }, 100));
  EXPECT_FALSE(e.drained());
}

TEST(Engine, EventScheduledAtCurrentCycleFiresBeforeJump) {
  // An event due at exactly now() must run in the current cycle, not be
  // skipped over by the idle fast-forward to a later event.
  Engine e;
  e.run_for(10);
  ASSERT_EQ(e.now(), 10u);
  bool flag = false;
  bool far = false;
  e.schedule_at(e.now(), [&] { flag = true; });
  e.schedule_at(1'000'000, [&] { far = true; });
  EXPECT_TRUE(e.run_until([&] { return flag; }, 50));
  EXPECT_EQ(e.now(), 11u); // fired in cycle 10; no jump toward the far event
  EXPECT_FALSE(far);
}

TEST(Engine, IdleJumpLandingExactlyOnDeadlineStopsFirst) {
  // The fast-forward may land exactly on the cycle budget's boundary; the
  // run must stop there with the event still pending, and a fresh budget
  // must then pick the event up at the cycle it was due.
  Engine e;
  bool fired = false;
  e.schedule_at(100, [&] { fired = true; });
  EXPECT_FALSE(e.run_to_quiescence(100));
  EXPECT_EQ(e.now(), 100u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.run_to_quiescence(10));
  EXPECT_TRUE(fired);
  EXPECT_GE(e.now(), 101u);
}

TEST(Engine, PredicateFlippedInsideSkippedGapIsSeen) {
  // run_until jumps over the idle gap, but only as far as the event that
  // flips the predicate: the flip is observed the cycle after it fires,
  // not at the run limit.
  Engine e;
  bool flag = false;
  e.schedule_at(500, [&] { flag = true; });
  EXPECT_TRUE(e.run_until([&] { return flag; }, 10'000));
  EXPECT_EQ(e.now(), 501u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedValuesInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, BoundedValuesCoverRange) {
  Rng r(7);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8'000; ++i) ++seen[r.next_below(8)];
  for (int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GeometricMeanApproximatelyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.next_geometric(8.0));
  EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Sampler, BasicMoments) {
  Sampler s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Sampler, EmptyIsSafe) {
  Sampler s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.sampler().count(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.95), 100.0, 10.0);
}

TEST(Histogram, OverflowBucketCatchesLargeValues) {
  Histogram h(0.0, 1.0, 4);
  h.add(1e9);
  EXPECT_EQ(h.buckets().back(), 1u);
}

} // namespace
} // namespace mdw::sim
