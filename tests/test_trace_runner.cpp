// Trace replay on the cycle-level machine (a TraceSource through
// StreamRunner): completion, barrier semantics, and end-state coherence,
// including miniature versions of the real apps under every grouping scheme.
#include <gtest/gtest.h>

#include "workload/apps.h"
#include "workload/stream_runner.h"
#include "workload/synthetic.h"

namespace mdw::workload {
namespace {

dsm::SystemParams small_params(core::Scheme s) {
  dsm::SystemParams p;
  p.mesh_w = 4;
  p.mesh_h = 4;
  p.scheme = s;
  p.cache_lines = 128;
  return p;
}

/// Replay `t` on `m`: processor i of the trace runs on mesh node i.
StreamResult replay(dsm::Machine& m, const Trace& t) {
  TraceSource src(t);
  StreamRunner runner(m, src);
  return runner.run();
}

TEST(TraceReplay, EmptyTraceCompletesImmediately) {
  dsm::Machine m(small_params(core::Scheme::UiUa));
  TraceBuilder tb(16);
  const Trace t = tb.take();
  const auto r = replay(m, t);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.accesses, 0u);
}

TEST(TraceReplay, SimpleReadWriteCompletes) {
  dsm::Machine m(small_params(core::Scheme::UiUa));
  TraceBuilder tb(16);
  for (int p = 0; p < 16; ++p) {
    tb.read(p, 7);
    tb.write(p, static_cast<BlockAddr>(100 + p));
    tb.read(p, 7);
  }
  const Trace t = tb.take();
  dsm::Machine m2(small_params(core::Scheme::UiUa));
  const auto r = replay(m2, t);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.accesses, 48u);
  EXPECT_TRUE(m2.check_coherence().empty());
}

TEST(TraceReplay, BarrierOrdersPhases) {
  // Writer updates block 3 before the barrier; every reader after the
  // barrier must find the directory serving the written value.
  dsm::Machine m(small_params(core::Scheme::EcCmCg));
  TraceBuilder tb(16);
  tb.write(0, 3);
  tb.barrier();
  for (int p = 0; p < 16; ++p) tb.read(p, 3);
  const Trace t = tb.take();
  const auto r = replay(m, t);
  EXPECT_TRUE(r.completed);
  // All 15 other nodes + writer hold shared copies now.
  const auto* e = m.node(3).directory().find(3);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, dsm::DirState::Shared);
  EXPECT_GE(e->sharers.count(), 15);
  EXPECT_TRUE(m.check_coherence().empty());
}

TEST(TraceReplay, WriteAfterWideSharingTriggersInvalidations) {
  dsm::Machine m(small_params(core::Scheme::EcCmHg));
  TraceBuilder tb(16);
  for (int p = 0; p < 16; ++p) tb.read(p, 5);
  tb.barrier();
  tb.write(2, 5);
  const Trace t = tb.take();
  EXPECT_TRUE(replay(m, t).completed);
  EXPECT_GE(m.stats().inval_txns, 1u);
  EXPECT_GE(m.stats().inval_sharers.max(), 10.0);
  EXPECT_TRUE(m.check_coherence().empty());
}

class MiniApps : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(MiniApps, BarnesHutReplayStaysCoherent) {
  dsm::Machine m(small_params(GetParam()));
  const Trace t = barnes_hut_trace(16, 32, 1, 5);
  const auto r = replay(m, t);
  ASSERT_TRUE(r.completed) << core::scheme_name(GetParam());
  EXPECT_EQ(r.accesses, t.total_accesses());
  const auto err = m.check_coherence();
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_GT(m.stats().inval_txns, 0u);  // tree rebuild invalidates readers
}

TEST_P(MiniApps, LuReplayStaysCoherent) {
  dsm::Machine m(small_params(GetParam()));
  const Trace t = lu_trace(16, 32, 8, 6);
  const auto r = replay(m, t);
  ASSERT_TRUE(r.completed) << core::scheme_name(GetParam());
  const auto err = m.check_coherence();
  EXPECT_TRUE(err.empty()) << err;
}

TEST_P(MiniApps, ApspReplayStaysCoherent) {
  dsm::Machine m(small_params(GetParam()));
  const Trace t = apsp_trace(16, 24, 6);
  const auto r = replay(m, t);
  ASSERT_TRUE(r.completed) << core::scheme_name(GetParam());
  const auto err = m.check_coherence();
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_GT(m.stats().inval_txns, 0u);  // pivot-row writes invalidate all
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MiniApps,
                         ::testing::ValuesIn(core::kAllSchemes),
                         [](const auto& info) {
                           std::string n(core::scheme_name(info.param));
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(TraceReplay, SchemesAgreeOnWorkDisagreeOnCost) {
  // The same trace replayed under UI-UA and MI-MA must do the same protocol
  // work (same txns, same sharers) but different message counts.
  const Trace t = apsp_trace(16, 24, 9);
  dsm::Machine ui(small_params(core::Scheme::UiUa));
  dsm::Machine ma(small_params(core::Scheme::EcCmHg));
  EXPECT_TRUE(replay(ui, t).completed);
  EXPECT_TRUE(replay(ma, t).completed);
  EXPECT_EQ(ui.stats().inval_txns, ma.stats().inval_txns);
  EXPECT_DOUBLE_EQ(ui.stats().inval_sharers.mean(),
                   ma.stats().inval_sharers.mean());
  // UI-UA sends one worm per sharer; the multidestination scheme fewer.
  EXPECT_LT(ma.stats().inval_request_worms, ui.stats().inval_request_worms);
  EXPECT_LT(ma.stats().inval_ack_messages, ui.stats().inval_ack_messages);
}

} // namespace
} // namespace mdw::workload
