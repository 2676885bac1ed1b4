// The asynchronous coherence service layer (svc::Session + the per-home
// invalidation pipeline and coalescing window behind it, DESIGN.md §15).
//
// Covered here:
//   * Session API semantics: batches, tickets, polling, callback mode,
//     per-block serialization with overtaking, window enforcement.
//   * The per-home pipeline: depth caps concurrent invalidation
//     transactions, overflow queues FIFO and drains, waits are accounted.
//   * The coalescing window: back-to-back writes hitting one home merge
//     into a single multidestination worm wave that completes every member
//     transaction, with correct values and a coherent end state.
//   * Coherence invariants under multi-outstanding random stress at
//     pipeline depths {2,4,8}, with and without coalescing and eager
//     (release-consistency) grants, for every grouping scheme.
//   * StreamRunner, which issues every access through a session: window 1
//     reproduces the blocking processor's pinned cycle counts, and larger
//     windows raise throughput.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsm/machine.h"
#include "sim/rng.h"
#include "svc/service.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

namespace mdw {
namespace {

dsm::SystemParams tiny(core::Scheme s = core::Scheme::UiUa) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 4;
  p.scheme = s;
  p.cache_lines = 64;
  return p;
}

/// Prime a block into the Shared state at the given readers (classic path).
void share_block(dsm::Machine& m, BlockAddr a,
                 const std::vector<NodeId>& readers) {
  for (NodeId r : readers) {
    bool done = false;
    m.node(r).read(a, [&](std::uint64_t) { done = true; });
    ASSERT_TRUE(m.engine().run_until([&] { return done; }, 5'000'000));
  }
  ASSERT_TRUE(m.engine().run_to_quiescence(1'000'000));
}

TEST(Session, BatchTicketsCompleteAndPollConsumes) {
  dsm::Machine m(tiny());
  svc::Session s(m, 0, {.max_outstanding = 4});

  // Writes to distinct blocks (distinct homes) proceed concurrently.
  const auto wt = s.write_batch({{5, 50}, {6, 60}, {7, 70}});
  ASSERT_EQ(wt.size(), 3u);
  ASSERT_TRUE(m.engine().run_until([&] { return s.drained(); }, 5'000'000));
  for (const svc::Ticket t : wt) {
    svc::OpResult r;
    EXPECT_TRUE(s.poll(t));
    ASSERT_TRUE(s.poll(t, r));
    EXPECT_TRUE(r.is_write);
    EXPECT_FALSE(s.poll(t)) << "consumed ticket must not poll again";
  }

  // read_batch observes the written values.
  const auto rt = s.read_batch({5, 6, 7});
  ASSERT_TRUE(m.engine().run_until([&] { return s.drained(); }, 5'000'000));
  const std::uint64_t want[] = {50, 60, 70};
  for (std::size_t i = 0; i < rt.size(); ++i) {
    svc::OpResult r;
    ASSERT_TRUE(s.poll(rt[i], r));
    EXPECT_FALSE(r.is_write);
    EXPECT_EQ(r.value, want[i]);
    EXPECT_EQ(r.addr, static_cast<BlockAddr>(5 + i));
  }
  EXPECT_EQ(s.stats().issued_writes, 3u);
  EXPECT_EQ(s.stats().issued_reads, 3u);
  EXPECT_EQ(s.stats().completed, 6u);
}

TEST(Session, PerBlockSerializationWithOvertaking) {
  dsm::Machine m(tiny());
  svc::Session s(m, 0, {.max_outstanding = 4});

  std::vector<svc::OpResult> done;
  s.set_on_complete([&](const svc::OpResult& r) { done.push_back(r); });

  // Two ops to block 9 must stay in program order; the op to block 10 may
  // overtake the held second write.
  const svc::Ticket w1 = s.write(9, 1);
  const svc::Ticket w2 = s.write(9, 2);
  const svc::Ticket r3 = s.read(10);
  EXPECT_EQ(s.in_flight(), 2);   // w1 + r3; w2 held for its block
  EXPECT_EQ(s.queued(), 1u);
  ASSERT_TRUE(m.engine().run_until([&] { return s.drained(); }, 5'000'000));
  ASSERT_EQ(done.size(), 3u);
  // w1 strictly precedes w2; value 2 is the final one.
  std::size_t i1 = 99, i2 = 99;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i].ticket == w1) i1 = i;
    if (done[i].ticket == w2) i2 = i;
  }
  EXPECT_LT(i1, i2);
  EXPECT_GT(s.stats().held_for_block, 0u);
  EXPECT_LE(s.stats().max_in_flight, 4);
  (void)r3;

  bool read_done = false;
  std::uint64_t got = 0;
  s.set_on_complete(nullptr);
  const svc::Ticket rt = s.read(9);
  ASSERT_TRUE(m.engine().run_until([&] { return s.poll(rt); }, 5'000'000));
  svc::OpResult r;
  ASSERT_TRUE(s.poll(rt, r));
  got = r.value;
  read_done = true;
  EXPECT_TRUE(read_done);
  EXPECT_EQ(got, 2u);
  EXPECT_TRUE(m.check_coherence().empty());
}

TEST(Session, WindowCapsInFlightOps) {
  dsm::Machine m(tiny());
  svc::Session s(m, 3, {.max_outstanding = 2});
  std::vector<BlockAddr> addrs;
  for (BlockAddr a = 20; a < 30; ++a) addrs.push_back(a);
  (void)s.read_batch(addrs);
  EXPECT_EQ(s.in_flight(), 2);
  EXPECT_EQ(s.queued(), 8u);
  ASSERT_TRUE(m.engine().run_until([&] { return s.drained(); }, 5'000'000));
  EXPECT_EQ(s.stats().completed, 10u);
  EXPECT_LE(s.stats().max_in_flight, 2);
}

TEST(HomePipeline, DepthOneSerializesAndQueues) {
  // Six blocks, one home (node 5), six concurrent writers: with depth 1
  // the home runs exactly one invalidation transaction at a time and the
  // other five wait in its queue.
  auto p = tiny();
  p.svc.pipeline_depth = 1;
  dsm::Machine m(p);
  const std::vector<NodeId> writers{1, 2, 4, 6, 8, 12};
  std::vector<BlockAddr> blocks;
  for (std::size_t i = 0; i < writers.size(); ++i) {
    const auto a = static_cast<BlockAddr>((i + 1) * 16 + 5);
    blocks.push_back(a);
    share_block(m, a, {3, 7, 9, 10});
  }
  int done = 0;
  for (std::size_t i = 0; i < writers.size(); ++i) {
    m.node(writers[i]).write(blocks[i], 100 + i, [&] { ++done; });
  }
  ASSERT_TRUE(m.engine().run_until(
      [&] { return done == static_cast<int>(writers.size()); }, 10'000'000));
  ASSERT_TRUE(m.engine().run_to_quiescence(5'000'000));

  const dsm::NodeStats& hs = m.node(5).stats();
  EXPECT_EQ(hs.svc_pipeline_peak, 1u);
  EXPECT_GE(hs.svc_enqueued, 1u);
  EXPECT_GT(hs.svc_queue_wait_cycles, 0u);
  EXPECT_EQ(m.node(5).svc_queue_depth(), 0u) << "queue must drain";
  EXPECT_EQ(m.node(5).svc_live_invals(), 0);
  const std::string err = m.check_coherence();
  EXPECT_TRUE(err.empty()) << err;
}

TEST(HomePipeline, DeeperPipelineOverlapsTransactions) {
  // Same workload at depth 4: the home overlaps transactions (peak > 1)
  // and finishes the batch in fewer cycles than fully serialized.
  Cycle cycles[2] = {0, 0};
  std::uint64_t peaks[2] = {0, 0};
  const int depths[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    auto p = tiny();
    p.svc.pipeline_depth = depths[k];
    dsm::Machine m(p);
    const std::vector<NodeId> writers{1, 2, 4, 6, 8, 12};
    std::vector<BlockAddr> blocks;
    for (std::size_t i = 0; i < writers.size(); ++i) {
      const auto a = static_cast<BlockAddr>((i + 1) * 16 + 5);
      blocks.push_back(a);
      share_block(m, a, {3, 7, 9, 10});
    }
    const Cycle t0 = m.engine().now();
    int done = 0;
    for (std::size_t i = 0; i < writers.size(); ++i) {
      m.node(writers[i]).write(blocks[i], 100 + i, [&] { ++done; });
    }
    ASSERT_TRUE(m.engine().run_until(
        [&] { return done == static_cast<int>(writers.size()); }, 10'000'000));
    cycles[k] = m.engine().now() - t0;
    ASSERT_TRUE(m.engine().run_to_quiescence(5'000'000));
    peaks[k] = m.node(5).stats().svc_pipeline_peak;
    EXPECT_TRUE(m.check_coherence().empty());
  }
  EXPECT_GT(peaks[1], 1u);
  EXPECT_LE(peaks[1], 4u) << "depth cap violated";
  EXPECT_LT(cycles[1], cycles[0]) << "pipelining should beat serialization";
}

TEST(Coalescing, BackToBackWritesMergeIntoOneWave) {
  // Blocks 21 and 37 both live at home 5.  Two writers hit them back to
  // back; a generous window merges the two invalidations into one worm
  // wave that still completes BOTH member transactions correctly.
  for (core::Scheme s : core::kAllSchemes) {
    auto p = tiny(s);
    p.svc.coalesce_window = 2000;  // depth 0: merge on the window timer
    dsm::Machine m(p);
    const std::vector<NodeId> sharers_a{3, 6, 7};
    const std::vector<NodeId> sharers_b{8, 9, 10};
    share_block(m, 21, sharers_a);
    share_block(m, 37, sharers_b);

    svc::Session w1(m, 1, {.max_outstanding = 1});
    svc::Session w2(m, 2, {.max_outstanding = 1});
    const svc::Ticket t1 = w1.write(21, 0xA1);
    const svc::Ticket t2 = w2.write(37, 0xB2);
    ASSERT_TRUE(m.engine().run_until(
        [&] { return w1.poll(t1) && w2.poll(t2); }, 10'000'000));
    ASSERT_TRUE(m.engine().run_to_quiescence(5'000'000));

    const dsm::NodeStats& hs = m.node(5).stats();
    EXPECT_EQ(hs.svc_groups, 1u) << core::scheme_name(s);
    EXPECT_EQ(hs.svc_coalesced_txns, 2u) << core::scheme_name(s);
    EXPECT_EQ(m.stats().inval_txns, 2u) << "both member txns must complete";

    // Every sharer of either block is invalidated.
    for (NodeId r : sharers_a) {
      EXPECT_EQ(m.node(r).cache().lookup(21), dsm::LineState::Invalid);
    }
    for (NodeId r : sharers_b) {
      EXPECT_EQ(m.node(r).cache().lookup(37), dsm::LineState::Invalid);
    }
    const std::string err = m.check_coherence();
    EXPECT_TRUE(err.empty()) << core::scheme_name(s) << "\n" << err;

    // Fresh readers observe the written values.
    std::uint64_t va = 0, vb = 0;
    bool ra = false, rb = false;
    m.node(15).read(21, [&](std::uint64_t v) { va = v; ra = true; });
    m.node(14).read(37, [&](std::uint64_t v) { vb = v; rb = true; });
    ASSERT_TRUE(m.engine().run_until([&] { return ra && rb; }, 5'000'000));
    EXPECT_EQ(va, 0xA1u) << core::scheme_name(s);
    EXPECT_EQ(vb, 0xB2u) << core::scheme_name(s);
  }
}

TEST(Coalescing, SharedSharerAcksOnceForBothBlocks) {
  // Node 3 shares BOTH merged blocks: it must invalidate both copies but
  // contribute exactly one ack, and the home must still complete both
  // transactions (the union bitmap counts it once).
  auto p = tiny();
  p.svc.coalesce_window = 2000;
  dsm::Machine m(p);
  share_block(m, 21, {3, 6});
  share_block(m, 37, {3, 9});

  svc::Session w1(m, 1, {.max_outstanding = 1});
  svc::Session w2(m, 2, {.max_outstanding = 1});
  const svc::Ticket t1 = w1.write(21, 7);
  const svc::Ticket t2 = w2.write(37, 8);
  ASSERT_TRUE(m.engine().run_until(
      [&] { return w1.poll(t1) && w2.poll(t2); }, 10'000'000));
  ASSERT_TRUE(m.engine().run_to_quiescence(5'000'000));

  EXPECT_EQ(m.node(5).stats().svc_groups, 1u);
  EXPECT_EQ(m.node(3).cache().lookup(21), dsm::LineState::Invalid);
  EXPECT_EQ(m.node(3).cache().lookup(37), dsm::LineState::Invalid);
  const std::string err = m.check_coherence();
  EXPECT_TRUE(err.empty()) << err;
}

TEST(ServiceStress, CoherentAtDepths248WithCoalescingAndEagerGrants) {
  // Multi-outstanding sessions on every node, random ops over a small hot
  // block set: every (scheme, depth, window, eager) combination must drain
  // completely and end coherent.
  for (core::Scheme s : core::kAllSchemes) {
    for (int depth : {2, 4, 8}) {
      for (Cycle window : {Cycle{0}, Cycle{16}}) {
        for (bool eager : {false, true}) {
          auto p = tiny(s);
          p.svc.pipeline_depth = depth;
          p.svc.coalesce_window = window;
          p.eager_exclusive_reply = eager;
          dsm::Machine m(p);
          sim::Rng rng(1000 + static_cast<int>(s) * 100 + depth +
                       static_cast<int>(window) + (eager ? 7 : 0));
          std::vector<std::unique_ptr<svc::Session>> sess;
          for (NodeId id = 0; id < m.num_nodes(); ++id) {
            sess.push_back(std::make_unique<svc::Session>(
                m, id, svc::SessionOptions{.max_outstanding = 4}));
            for (int k = 0; k < 40; ++k) {
              const auto a = static_cast<BlockAddr>(rng.next_below(16));
              if (rng.next_bool(0.5)) {
                (void)sess.back()->write(a, rng.next_u64());
              } else {
                (void)sess.back()->read(a);
              }
            }
          }
          ASSERT_TRUE(m.engine().run_until(
              [&] {
                for (const auto& sp : sess) {
                  if (!sp->drained()) return false;
                }
                return true;
              },
              200'000'000))
              << core::scheme_name(s) << " depth=" << depth
              << " window=" << window << " eager=" << eager;
          ASSERT_TRUE(m.engine().run_to_quiescence(5'000'000));
          for (NodeId id = 0; id < m.num_nodes(); ++id) {
            EXPECT_EQ(m.node(id).svc_queue_depth(), 0u);
            EXPECT_EQ(m.node(id).svc_live_invals(), 0);
          }
          const std::string err = m.check_coherence();
          EXPECT_TRUE(err.empty())
              << core::scheme_name(s) << " depth=" << depth
              << " window=" << window << " eager=" << eager << "\n"
              << err;
        }
      }
    }
  }
}

TEST(StreamService, OutstandingOneMatchesBlockingLoopPins) {
  // A window of 1 is the blocking processor: issue, wait, think, repeat.
  // The pins were taken from the dedicated blocking issue loop StreamRunner
  // had before every access went through a session.
  workload::GenConfig g;
  g.kind = workload::GenKind::Zipfian;
  g.nprocs = 16;
  g.ops_per_proc = 200;
  g.nblocks = 64;
  g.seed = 77;
  auto src = workload::make_generator(g, noc::MeshShape(4, 4));
  dsm::Machine m(tiny());
  workload::StreamRunnerOptions opt;
  opt.warmup_accesses = 0;
  workload::StreamRunner runner(m, *src, opt);
  const auto r = runner.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cycles, 58846u);
  EXPECT_EQ(r.accesses, 3200u);
  EXPECT_EQ(m.stats().inval_txns, 536u);
  EXPECT_EQ(m.total_occupancy(), 276100u);
  EXPECT_EQ(m.network().stats().link_flit_hops, 456560u);
  EXPECT_TRUE(m.check_coherence().empty());
}

TEST(StreamService, MultiOutstandingRaisesThroughput) {
  // The point of the service layer: more outstanding ops per client sustain
  // more accesses per kcycle on the same machine and workload.
  workload::GenConfig g;
  g.kind = workload::GenKind::WriteHeavy;
  g.nprocs = 16;
  g.ops_per_proc = 400;
  g.nblocks = 256;
  g.seed = 9;
  const noc::MeshShape mesh(4, 4);

  double rate[2] = {0, 0};
  const int outst[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    auto src = workload::make_generator(g, mesh);
    auto p = tiny();
    p.svc.pipeline_depth = 8;
    dsm::Machine m(p);
    workload::StreamRunnerOptions opt;
    opt.warmup_accesses = 0;
    opt.outstanding = outst[k];
    workload::StreamRunner runner(m, *src, opt);
    const auto r = runner.run();
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.cycles, 0u);
    rate[k] = static_cast<double>(r.accesses) /
              (static_cast<double>(r.cycles) / 1000.0);
    EXPECT_TRUE(m.check_coherence().empty());
  }
  // A 4x4 write-heavy stream saturates the mesh quickly, so the win here is
  // modest; the large-mesh speedups are benchmarked in EXPERIMENTS.md E11s.
  EXPECT_GT(rate[1], rate[0] * 1.05)
      << "8 outstanding ops should measurably beat 1";
}

} // namespace
} // namespace mdw
