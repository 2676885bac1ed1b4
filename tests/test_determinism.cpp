// Determinism pins for the simulator core.
//
// Two guarantees are locked down here:
//   1. Reproducibility: the same seed produces an identical stats
//      fingerprint (worms injected/delivered, link flit-hops, invalidation
//      latency sums) across back-to-back runs.
//   2. Scheduling equivalence: the work-driven tick (Network's default,
//      which visits only the routers each phase's work mask marks) and the
//      exhaustive full sweep (the NocParams::full_sweep reference mode) are
//      bit-identical — same latencies, flit-hops, and occupancy for every
//      scheme, both for isolated transactions and under concurrency.
//
// Every fingerprint also carries the routers' stall counters: the work-driven
// tick skips allocation and traversal retries that cannot succeed and counts
// their stalls without re-running them, so these counters are where a wrong
// park or a missed wake would show.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.h"
#include "svc/service.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

namespace mdw {
namespace {

/// Router stall counters summed over the mesh, plus the link heatmap's stall
/// total.  perfbench's fingerprint leaves these out.
struct StallCounts {
  std::uint64_t alloc_stall_cycles = 0;
  std::uint64_t cons_blocked_cycles = 0;
  std::uint64_t bank_blocked_cycles = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t heatmap_stalls = 0;

  bool operator==(const StallCounts&) const = default;
};

/// Exact-count fingerprint of one small protocol workload.
struct Fingerprint {
  std::uint64_t worms_injected = 0;
  std::uint64_t worms_delivered = 0;
  std::uint64_t absorb_deliveries = 0;
  std::uint64_t link_flit_hops = 0;
  std::uint64_t gather_deferred = 0;
  std::uint64_t gather_deposits = 0;
  std::uint64_t inval_txns = 0;
  double inval_latency_sum = 0;
  std::uint64_t occupancy = 0;
  Cycle end_cycle = 0;
  StallCounts stalls;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{" << f.worms_injected << ", " << f.worms_delivered << ", "
            << f.absorb_deliveries << ", " << f.link_flit_hops << ", "
            << f.gather_deferred << ", " << f.gather_deposits << ", "
            << f.inval_txns << ", " << f.inval_latency_sum << ", "
            << f.occupancy << ", " << f.end_cycle << ", {"
            << f.stalls.alloc_stall_cycles << ", "
            << f.stalls.cons_blocked_cycles << ", "
            << f.stalls.bank_blocked_cycles << ", "
            << f.stalls.flits_forwarded << ", " << f.stalls.heatmap_stalls
            << "}}";
}

/// Fingerprint of `m` at quiescence; also checks coherence.
Fingerprint fingerprint_of(dsm::Machine& m) {
  Fingerprint fp;
  const noc::NetworkStats& ns = m.network().stats();
  fp.worms_injected = ns.worms_injected;
  fp.worms_delivered = ns.worms_delivered;
  fp.absorb_deliveries = ns.absorb_deliveries;
  fp.link_flit_hops = ns.link_flit_hops;
  fp.gather_deferred = ns.gather_deferred;
  fp.gather_deposits = ns.gather_deposits;
  fp.inval_txns = m.stats().inval_txns;
  fp.inval_latency_sum = m.stats().inval_latency.sum();
  fp.occupancy = m.total_occupancy();
  fp.end_cycle = m.engine().now();
  for (NodeId id = 0; id < m.num_nodes(); ++id) {
    const noc::RouterStats& rs = m.network().router(id).stats();
    fp.stalls.alloc_stall_cycles += rs.alloc_stall_cycles;
    fp.stalls.cons_blocked_cycles += rs.cons_blocked_cycles;
    fp.stalls.bank_blocked_cycles += rs.bank_blocked_cycles;
    fp.stalls.flits_forwarded += rs.flits_forwarded;
  }
  fp.stalls.heatmap_stalls = m.network().heatmap().total_stalls();
  EXPECT_EQ(m.check_coherence(), "");
  return fp;
}

Fingerprint run_workload(core::Scheme scheme, bool full_sweep,
                         std::uint64_t seed) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 8;
  p.scheme = scheme;
  p.noc.full_sweep = full_sweep;
  dsm::Machine m(p);
  sim::Rng rng(seed);
  const int n = m.num_nodes();

  for (int rep = 0; rep < 4; ++rep) {
    const auto home = static_cast<NodeId>(rng.next_below(n));
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    const BlockAddr a =
        static_cast<BlockAddr>(rep + 1) * static_cast<BlockAddr>(n) + home;
    const auto sharers = workload::make_sharers(
        rng, m.network().mesh(), home, writer, 6,
        workload::SharerPattern::Uniform);
    for (NodeId s : sharers) {
      bool done = false;
      m.node(s).read(a, [&](std::uint64_t) { done = true; });
      EXPECT_TRUE(m.engine().run_until([&] { return done; }, 10'000'000));
    }
    bool done = false;
    m.node(writer).write(a, 1, [&] { done = true; });
    EXPECT_TRUE(m.engine().run_until([&] { return done; }, 10'000'000));
    EXPECT_TRUE(m.engine().run_to_quiescence(1'000'000));
  }

  return fingerprint_of(m);
}

/// The same workload as run_workload, but driven through the coherence
/// service layer: one svc::Session per issuing node, window 1, home pipeline
/// depth 1, coalescing off.  This sequential workload never presents two
/// concurrent invalidations to one home, so the depth-1 pipeline never
/// queues and the schedule must be event-for-event the classic path's.
Fingerprint run_svc_workload(core::Scheme scheme, std::uint64_t seed) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 8;
  p.scheme = scheme;
  p.svc.pipeline_depth = 1;
  p.svc.coalesce_window = 0;
  dsm::Machine m(p);
  std::vector<std::unique_ptr<svc::Session>> sess;
  for (NodeId id = 0; id < m.num_nodes(); ++id) {
    sess.push_back(std::make_unique<svc::Session>(
        m, id, svc::SessionOptions{.max_outstanding = 1}));
  }
  sim::Rng rng(seed);
  const int n = m.num_nodes();

  for (int rep = 0; rep < 4; ++rep) {
    const auto home = static_cast<NodeId>(rng.next_below(n));
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    const BlockAddr a =
        static_cast<BlockAddr>(rep + 1) * static_cast<BlockAddr>(n) + home;
    const auto sharers = workload::make_sharers(
        rng, m.network().mesh(), home, writer, 6,
        workload::SharerPattern::Uniform);
    for (NodeId s : sharers) {
      const svc::Ticket t = sess[static_cast<std::size_t>(s)]->read(a);
      EXPECT_TRUE(m.engine().run_until(
          [&] { return sess[static_cast<std::size_t>(s)]->poll(t); },
          10'000'000));
      svc::OpResult r;
      EXPECT_TRUE(sess[static_cast<std::size_t>(s)]->poll(t, r));
    }
    const svc::Ticket t = sess[static_cast<std::size_t>(writer)]->write(a, 1);
    EXPECT_TRUE(m.engine().run_until(
        [&] { return sess[static_cast<std::size_t>(writer)]->poll(t); },
        10'000'000));
    svc::OpResult r;
    EXPECT_TRUE(sess[static_cast<std::size_t>(writer)]->poll(t, r));
    EXPECT_TRUE(m.engine().run_to_quiescence(1'000'000));
  }

  return fingerprint_of(m);
}

constexpr core::Scheme kSchemes[] = {
    core::Scheme::UiUa,    // UI-UA baseline
    core::Scheme::EcCmHg,  // MI-MA, e-cube hierarchical gathers
    core::Scheme::WfScSg,  // MI-MA, west-first serpentine gathers
};

TEST(Determinism, SameSeedSameFingerprint) {
  for (core::Scheme s : kSchemes) {
    const Fingerprint a = run_workload(s, /*full_sweep=*/false, 42);
    const Fingerprint b = run_workload(s, /*full_sweep=*/false, 42);
    EXPECT_EQ(a, b) << "scheme " << core::scheme_name(s);
    EXPECT_GT(a.inval_txns, 0u);
  }
}

TEST(Determinism, ServiceLayerDepthOneMatchesClassicPath) {
  // The ISSUE's determinism pin: with pipeline depth 1 and coalescing off,
  // driving the workload through svc::Session tickets is fingerprint-
  // identical to the classic blocking read/write path.  The session adds
  // zero cycles (issue is synchronous, completion lands in the same event)
  // and depth 1 degenerates to the legacy one-at-a-time home.
  for (core::Scheme s : kSchemes) {
    const Fingerprint classic = run_workload(s, /*full_sweep=*/false, 42);
    const Fingerprint service = run_svc_workload(s, 42);
    EXPECT_EQ(service, classic) << "scheme " << core::scheme_name(s);
    EXPECT_GT(service.inval_txns, 0u);
  }
}

TEST(Determinism, ActiveRegionMatchesFullSweep) {
  for (core::Scheme s : kSchemes) {
    const Fingerprint active = run_workload(s, /*full_sweep=*/false, 7);
    const Fingerprint sweep = run_workload(s, /*full_sweep=*/true, 7);
    EXPECT_EQ(active, sweep) << "scheme " << core::scheme_name(s);
  }
}

TEST(Determinism, SoAArenaGoldensAcrossKernelConfigs) {
  // Exact fingerprints captured from the pre-pooling implementation
  // (std::shared_ptr worms, std::deque flit buffers, std::vector paths,
  // per-router VC objects), seed 42.  The worm pool, the SoA hot-state arena
  // and the bitmap-word allocate/traverse scans are pure layout changes:
  // both scheduling modes — work-driven and full sweep — must still land
  // EXACTLY on these pins, not merely agree with a same-binary run in the
  // other mode (which would also pass if a change broke both identically).
  const struct {
    core::Scheme scheme;
    Fingerprint golden;
  } pins[] = {
      {core::Scheme::UiUa, {104, 104, 0, 9600, 0, 0, 4, 880, 3016, 6040,
                            {9, 0, 0, 9600, 9}}},
      {core::Scheme::EcCmHg, {90, 80, 7, 9140, 1, 10, 4, 764, 2542, 5924,
                              {0, 0, 0, 9140, 0}}},
      {core::Scheme::WfScSg, {66, 66, 20, 9559, 0, 0, 4, 883, 2236, 6043,
                              {0, 0, 0, 9559, 0}}},
  };
  for (const auto& pin : pins) {
    for (bool full_sweep : {false, true}) {
      EXPECT_EQ(run_workload(pin.scheme, full_sweep, 42), pin.golden)
          << "scheme " << core::scheme_name(pin.scheme)
          << (full_sweep ? " (full sweep)" : "");
    }
  }
}

struct ContendedCase {
  core::Scheme scheme;
  bool adaptive_unicast;
};

/// A coalescing home for run_contended: the block pool (the cache grows
/// with it, one line per block), the svc pipeline and window, and the
/// consistency model.
struct CoalescingHome {
  std::uint32_t blocks;
  dsm::SvcParams svc;
  bool eager_exclusive_reply;
};

/// What the homes did in one run: the svc counters summed over the nodes,
/// and a hash of every transaction record (addr, home, sharers, start, end)
/// — the fields perfbench fingerprints.
struct HomeCounts {
  std::uint64_t svc_groups = 0;
  std::uint64_t svc_coalesced_txns = 0;
  std::uint64_t svc_enqueued = 0;
  std::uint64_t svc_queue_wait_cycles = 0;
  std::uint64_t records_hash = 0;

  bool operator==(const HomeCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HomeCounts& h) {
  return os << "{" << h.svc_groups << ", " << h.svc_coalesced_txns << ", "
            << h.svc_enqueued << ", " << h.svc_queue_wait_cycles << ", 0x"
            << std::hex << h.records_hash << std::dec << "}";
}

HomeCounts home_counts_of(dsm::Machine& m) {
  HomeCounts h;
  for (NodeId id = 0; id < m.num_nodes(); ++id) {
    const dsm::NodeStats& n = m.node(id).stats();
    h.svc_groups += n.svc_groups;
    h.svc_coalesced_txns += n.svc_coalesced_txns;
    h.svc_enqueued += n.svc_enqueued;
    h.svc_queue_wait_cycles += n.svc_queue_wait_cycles;
  }
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over 64-bit words
  const auto add = [&hash](std::uint64_t v) {
    hash = (hash ^ v) * 1099511628211ull;
  };
  for (const dsm::InvalTxnRecord& rec : m.stats().records) {
    add(rec.addr);
    add(static_cast<std::uint64_t>(rec.home));
    add(static_cast<std::uint64_t>(rec.sharers));
    add(rec.start);
    add(rec.end);
  }
  h.records_hash = hash;
  return h;
}

/// A short contended stream: write-heavy zipfian accesses from 16-node
/// groups on 8x8 with 4 outstanding per node through svc sessions, 2-flit
/// VC buffers, two 1-flit consumption channels and one i-ack entry per
/// router, so heads wait on output VCs, consumption channels and i-ack
/// banks, flits wait behind full VCs, and an absorbing head can fail on its
/// consumption channel one cycle and on its output VC the next.
/// The block pool fits the cache (one block per line), which keeps a node
/// from evicting and re-requesting a block with its Writeback in flight.
/// With `home` set, the homes pipeline and coalesce their invalidations, the
/// pool and the cache grow together, and `counts` receives what they did.
Fingerprint run_contended(const ContendedCase& c, bool full_sweep,
                          noc::TickWork* work = nullptr,
                          const std::optional<CoalescingHome>& home = {},
                          HomeCounts* counts = nullptr) {
  const std::uint32_t blocks = home ? home->blocks : 64;
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 8;
  p.scheme = c.scheme;
  p.adaptive_unicast = c.adaptive_unicast;
  p.cache_lines = static_cast<int>(blocks);
  if (home) {
    p.svc = home->svc;
    p.eager_exclusive_reply = home->eager_exclusive_reply;
  }
  p.noc.vc_buffer_flits = 2;
  p.noc.consumption_channels = 2;
  p.noc.cons_buffer_flits = 1;
  p.noc.iack_entries = 1;
  p.noc.full_sweep = full_sweep;
  dsm::Machine m(p);
  m.set_record_txns(counts != nullptr);
  workload::GenConfig g;
  g.kind = workload::GenKind::Zipfian;
  g.nprocs = m.num_nodes();
  g.nblocks = blocks;
  g.write_fraction = 0.6;
  g.group = 16;
  g.ops_per_proc = 20;
  g.seed = 17;
  const auto src = workload::make_generator(g, m.network().mesh());
  workload::StreamRunnerOptions opt;
  opt.outstanding = 4;
  // One i-ack entry per router deadlocks under enough load (EXPERIMENTS.md
  // E9; 40 ops per node here under WF-SC-SG with coalescing homes).  Such a
  // run must fail, not spin to the default 2e9-cycle budget.  The pinned
  // runs end before cycle 40,000.
  opt.max_cycles = 1'000'000;
  workload::StreamRunner runner(m, *src, opt);
  const workload::StreamResult r = runner.run();
  EXPECT_TRUE(r.completed) << r.describe_stalls();
  if (work != nullptr) {
    for (NodeId id = 0; id < m.num_nodes(); ++id) {
      const noc::TickWork& t = m.network().router(id).tick_work();
      work->head_parks += t.head_parks;
      work->vc_parks += t.vc_parks;
    }
  }
  if (counts != nullptr) *counts = home_counts_of(m);
  return fingerprint_of(m);
}

TEST(Determinism, ContendedStallCountersAcrossKernels) {
  // Parking skips retries whose only effect is a stall counter, so the
  // counters must come out exactly as when every retry runs: in the default
  // mode and in the exhaustive full sweep (which never parks).  The pins
  // were captured before parking existed.
  const struct {
    ContendedCase c;
    Fingerprint golden;
  } pins[] = {
      {{core::Scheme::UiUa, false},
       {4776, 4776, 0, 591664, 0, 0, 243, 46252, 151428, 31257,
        {33007, 4899, 0, 591664, 28108}}},
      {{core::Scheme::EcCmHg, false},
       {4604, 4448, 62, 579400, 36, 156, 245, 47345, 144606, 30566,
        {35906, 4743, 716, 579400, 30447}}},
      {{core::Scheme::WfScSg, true},
       {4295, 4295, 305, 591119, 3, 0, 250, 53344, 142458, 37021,
        {117318, 927, 416, 591119, 115975}}},
  };
  for (const auto& pin : pins) {
    const std::string_view name = core::scheme_name(pin.c.scheme);
    noc::TickWork work;
    EXPECT_EQ(run_contended(pin.c, /*full_sweep=*/false, &work), pin.golden)
        << name;
    EXPECT_EQ(run_contended(pin.c, /*full_sweep=*/true), pin.golden)
        << name << " (full sweep)";
    // Every stall kind occurs (i-ack banks only exist under gathers), and
    // the default mode both parks heads and parks VCs.
    EXPECT_GT(pin.golden.stalls.alloc_stall_cycles, 0u) << name;
    EXPECT_GT(pin.golden.stalls.cons_blocked_cycles, 0u) << name;
    EXPECT_GT(pin.golden.stalls.heatmap_stalls, 0u) << name;
    if (pin.c.scheme != core::Scheme::UiUa) {
      EXPECT_GT(pin.golden.stalls.bank_blocked_cycles, 0u) << name;
    }
    EXPECT_GT(work.head_parks, 0u) << name;
    EXPECT_GT(work.vc_parks, 0u) << name;
  }
}

TEST(Determinism, CoalescingHomeGoldensAcrossKernels) {
  // The contended stream through pipelined (depth 2), coalescing (128-cycle
  // window) homes, so every scheme launches two-block groups beside
  // one-block ones, with and without the eager exclusive grant.  No home
  // here ever holds three invalidations at once, so the queue counters pin
  // at zero.  The pins were captured before one-block and multi-block
  // launches shared one code path; both scheduling modes must land on them
  // exactly.
  const dsm::SvcParams svc{.pipeline_depth = 2, .coalesce_window = 128};
  const struct {
    ContendedCase c;
    bool eager;
    Fingerprint golden;
    HomeCounts home;
  } pins[] = {
      {{core::Scheme::UiUa, false}, false,
       {4402, 4402, 0, 539088, 0, 0, 199, 44173, 137018, 22995,
        {70228, 4876, 0, 539088, 65352}},
       {7, 14, 0, 0, 0x507cb84ca085ad44}},
      {{core::Scheme::UiUa, false}, true,
       {4072, 4072, 0, 494080, 0, 0, 187, 47118, 126328, 17588,
        {76876, 4415, 0, 494080, 72461}},
       {5, 10, 0, 0, 0xc011f3be9f31555e}},
      {{core::Scheme::EcCmHg, false}, false,
       {4310, 4203, 50, 534701, 18, 107, 207, 49687, 133108, 23497,
        {69158, 4871, 2838, 534701, 61449}},
       {4, 8, 0, 0, 0x58e655c8dccff2b2}},
      {{core::Scheme::EcCmHg, false}, true,
       {3974, 3881, 43, 483378, 24, 93, 196, 47474, 122586, 15456,
        {74844, 4686, 585, 483378, 69573}},
       {5, 10, 0, 0, 0xf9002a17dac6fdcc}},
      {{core::Scheme::WfScSg, true}, false,
       {4087, 4087, 239, 549636, 0, 0, 210, 53489, 131822, 29512,
        {204484, 853, 80, 549636, 203551}},
       {2, 4, 0, 0, 0xd10b820b2b44431a}},
      {{core::Scheme::WfScSg, true}, true,
       {3834, 3834, 212, 505392, 1, 0, 194, 50562, 123040, 23188,
        {194763, 704, 55, 505392, 194004}},
       {1, 2, 0, 0, 0xe3dd25a863169f52}},
  };
  for (const auto& pin : pins) {
    const std::string name = std::string(core::scheme_name(pin.c.scheme)) +
                             (pin.eager ? " eager" : "");
    const CoalescingHome home{256, svc, pin.eager};
    for (bool full_sweep : {false, true}) {
      HomeCounts counts;
      EXPECT_EQ(run_contended(pin.c, full_sweep, nullptr, home, &counts),
                pin.golden)
          << name << (full_sweep ? " (full sweep)" : "");
      EXPECT_EQ(counts, pin.home) << name << (full_sweep ? " (full sweep)" : "");
      EXPECT_GT(counts.svc_groups, 0u) << name;
    }
  }
}

TEST(Determinism, MeasureInvalidationsInvariantUnderScheduler) {
  for (core::Scheme s : kSchemes) {
    analysis::InvalExperimentConfig cfg;
    cfg.mesh = 8;
    cfg.scheme = s;
    cfg.d = 6;
    cfg.repetitions = 3;
    cfg.seed = 5;
    const analysis::InvalMeasurement active = measure_invalidations(cfg);
    cfg.base.noc.full_sweep = true;
    const analysis::InvalMeasurement sweep = measure_invalidations(cfg);
    EXPECT_EQ(active.inval_latency, sweep.inval_latency);
    EXPECT_EQ(active.write_latency, sweep.write_latency);
    EXPECT_EQ(active.traffic_flits, sweep.traffic_flits);
    EXPECT_EQ(active.occupancy, sweep.occupancy);
    EXPECT_EQ(active.messages, sweep.messages);
    EXPECT_EQ(active.deferred_gathers, sweep.deferred_gathers);
  }
}

TEST(Determinism, MeasureHotspotInvariantUnderScheduler) {
  // Concurrency exercises mid-tick wakes: flits forwarded into routers the
  // sweep has already passed, and deferred-gather reinjection.
  analysis::HotspotConfig cfg;
  cfg.mesh = 8;
  cfg.scheme = core::Scheme::EcCmHg;
  cfg.d = 8;
  cfg.concurrent = 4;
  cfg.rounds = 2;
  cfg.seed = 3;
  const analysis::HotspotMeasurement active = measure_hotspot(cfg);
  cfg.base.noc.full_sweep = true;
  const analysis::HotspotMeasurement sweep = measure_hotspot(cfg);
  ASSERT_TRUE(active.completed);
  ASSERT_TRUE(sweep.completed);
  EXPECT_EQ(active.inval_latency, sweep.inval_latency);
  EXPECT_EQ(active.makespan, sweep.makespan);
  EXPECT_EQ(active.traffic_flits, sweep.traffic_flits);
  EXPECT_EQ(active.deferred_gathers, sweep.deferred_gathers);
  EXPECT_EQ(active.bank_blocked_cycles, sweep.bank_blocked_cycles);
}

} // namespace
} // namespace mdw
