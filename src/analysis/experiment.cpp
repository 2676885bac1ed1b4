#include "analysis/experiment.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace mdw::analysis {

namespace {

constexpr Cycle kBudget = 50'000'000;

/// Prime the sharer set: every sharer reads the block (sequentially, so no
/// transient races inflate the baseline state).
void prime_sharers(dsm::Machine& m, BlockAddr a,
                   const std::vector<NodeId>& sharers) {
  for (NodeId s : sharers) {
    bool done = false;
    m.node(s).read(a, [&](std::uint64_t) { done = true; });
    const bool ok = m.engine().run_until([&] { return done; }, kBudget);
    assert(ok);
    (void)ok;
  }
  (void)m.engine().run_to_quiescence(1'000'000);
}

/// Run one write and wait for completion + network quiescence.
Cycle run_write(dsm::Machine& m, NodeId writer, BlockAddr a) {
  bool done = false;
  Cycle lat = 0;
  const Cycle t0 = m.engine().now();
  m.node(writer).write(a, 1, [&] {
    done = true;
    lat = m.engine().now() - t0;
  });
  const bool ok = m.engine().run_until([&] { return done; }, kBudget);
  assert(ok);
  (void)ok;
  (void)m.engine().run_to_quiescence(1'000'000);
  return lat;
}

} // namespace

InvalMeasurement measure_invalidations(const InvalExperimentConfig& cfg) {
  dsm::SystemParams p = cfg.base;
  p.mesh_w = p.mesh_h = cfg.mesh;
  p.scheme = cfg.scheme;

  dsm::Machine m(p, cfg.metrics);
  if (cfg.trace) m.set_trace_writer(cfg.trace);
  sim::Rng rng(cfg.seed);
  const noc::MeshShape& mesh = m.network().mesh();
  const int n = m.num_nodes();

  InvalMeasurement out;
  double lat_sum = 0, wlat_sum = 0, msg_sum = 0, traffic_sum = 0,
         occ_sum = 0, worms_sum = 0, acks_sum = 0, defer_sum = 0;

  for (int rep = 0; rep < cfg.repetitions; ++rep) {
    const auto home = static_cast<NodeId>(rng.next_below(n));
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    // A fresh block homed at `home` each repetition.
    const BlockAddr a =
        static_cast<BlockAddr>(rep + 1) * static_cast<BlockAddr>(n) + home;
    const auto sharers = workload::make_sharers(rng, mesh, home, writer,
                                                cfg.d, cfg.pattern);
    prime_sharers(m, a, sharers);

    const auto traffic0 = m.network().stats().link_flit_hops;
    const auto occ0 = m.node(home).stats().occupancy_cycles;
    const auto txns0 = m.stats().inval_txns;
    const auto worms0 = m.stats().inval_request_worms;
    const auto acks0 = m.stats().inval_ack_messages;
    const auto total_acks0 = m.stats().inval_total_ack_worms;
    const auto defer0 = m.network().stats().gather_deferred;
    const double lat0 = m.stats().inval_latency.sum();

    const Cycle wlat = run_write(m, writer, a);

    assert(m.stats().inval_txns == txns0 + 1);
    (void)txns0;
    lat_sum += m.stats().inval_latency.sum() - lat0;
    wlat_sum += static_cast<double>(wlat);
    const auto worms = m.stats().inval_request_worms - worms0;
    const auto acks = m.stats().inval_ack_messages - acks0;
    const auto total_acks = m.stats().inval_total_ack_worms - total_acks0;
    worms_sum += static_cast<double>(worms);
    acks_sum += static_cast<double>(acks);
    msg_sum += static_cast<double>(worms + total_acks);
    traffic_sum +=
        static_cast<double>(m.network().stats().link_flit_hops - traffic0);
    occ_sum +=
        static_cast<double>(m.node(home).stats().occupancy_cycles - occ0);
    defer_sum +=
        static_cast<double>(m.network().stats().gather_deferred - defer0);
  }

  const double r = cfg.repetitions;
  out.inval_latency = lat_sum / r;
  // The machine-lifetime histogram holds exactly the measured transactions
  // (priming is read-only), so its percentiles are the experiment's.
  out.inval_latency_p50 = m.stats().inval_latency.quantile(0.50);
  out.inval_latency_p90 = m.stats().inval_latency.quantile(0.90);
  out.inval_latency_p99 = m.stats().inval_latency.quantile(0.99);
  out.write_latency = wlat_sum / r;
  out.messages = msg_sum / r;
  out.traffic_flits = traffic_sum / r;
  out.occupancy = occ_sum / r;
  out.request_worms = worms_sum / r;
  out.ack_messages = acks_sum / r;
  out.deferred_gathers = defer_sum / r;
  if (cfg.heatmap) (void)cfg.heatmap->merge_from(m.network().heatmap());
  if (cfg.metrics) m.snapshot_metrics();
  return out;
}

HotspotMeasurement measure_hotspot(const HotspotConfig& cfg) {
  // Each round draws distinct homes and distinct writers, no writer its own
  // home: with at most n - 1 transactions every draw has a free node.
  assert(cfg.concurrent >= 1 && cfg.concurrent <= cfg.mesh * cfg.mesh - 1);
  dsm::SystemParams p = cfg.base;
  p.mesh_w = p.mesh_h = cfg.mesh;
  p.scheme = cfg.scheme;

  dsm::Machine m(p, cfg.metrics);
  if (cfg.trace) m.set_trace_writer(cfg.trace);
  sim::Rng rng(cfg.seed);
  const noc::MeshShape& mesh = m.network().mesh();
  const int n = m.num_nodes();

  double makespan_sum = 0, traffic_sum = 0;
  double lat0 = 0;
  std::uint64_t lat_count0 = 0;

  for (int round = 0; round < cfg.rounds; ++round) {
    // Pick `concurrent` distinct homes, one block each, prime sharers.
    std::vector<NodeId> homes, writers;
    std::vector<BlockAddr> blocks;
    std::vector<std::vector<NodeId>> sharer_sets;
    while (static_cast<int>(homes.size()) < cfg.concurrent) {
      const auto h = static_cast<NodeId>(rng.next_below(n));
      bool dup = false;
      for (NodeId e : homes) dup |= (e == h);
      if (dup) continue;
      homes.push_back(h);
      // Writers must be pairwise distinct: each issues one outstanding op.
      NodeId w = h;
      for (bool ok = false; !ok;) {
        w = static_cast<NodeId>(rng.next_below(n));
        ok = (w != h);
        for (NodeId e : writers) ok &= (e != w);
      }
      writers.push_back(w);
      blocks.push_back(
          static_cast<BlockAddr>(round * cfg.concurrent + homes.size()) *
              static_cast<BlockAddr>(n) +
          h);
      sharer_sets.push_back(workload::make_sharers(
          rng, mesh, h, w, cfg.d, workload::SharerPattern::Uniform));
    }
    for (int i = 0; i < cfg.concurrent; ++i) {
      prime_sharers(m, blocks[i], sharer_sets[i]);
    }

    const auto traffic0 = m.network().stats().link_flit_hops;
    lat0 = m.stats().inval_latency.sum();
    lat_count0 = m.stats().inval_latency.count();

    int done = 0;
    const Cycle t0 = m.engine().now();
    for (int i = 0; i < cfg.concurrent; ++i) {
      m.node(writers[i]).write(blocks[i], 1, [&] { ++done; });
    }
    // An undersized i-ack bank can genuinely deadlock concurrent
    // transactions (the deadlock the paper's 2-4 entry sizing prevents);
    // detect it instead of asserting.
    const bool ok = m.engine().run_until(
        [&] { return done == cfg.concurrent; }, 1'000'000);
    if (!ok) {
      HotspotMeasurement out;
      out.completed = false;
      out.deferred_gathers =
          static_cast<double>(m.network().stats().gather_deferred);
      std::uint64_t blocked = 0;
      for (NodeId r = 0; r < static_cast<NodeId>(m.num_nodes()); ++r) {
        blocked += m.network().router(r).stats().bank_blocked_cycles;
      }
      out.bank_blocked_cycles = static_cast<double>(blocked);
      out.heatmap = m.network().heatmap();
      if (cfg.metrics) m.snapshot_metrics();
      return out;
    }
    (void)m.engine().run_to_quiescence(1'000'000);
    makespan_sum += static_cast<double>(m.engine().now() - t0);
    traffic_sum +=
        static_cast<double>(m.network().stats().link_flit_hops - traffic0);
  }

  HotspotMeasurement out;
  const auto new_count = m.stats().inval_latency.count() - lat_count0;
  out.inval_latency =
      new_count ? (m.stats().inval_latency.sum() - lat0) /
                      static_cast<double>(new_count)
                : 0.0;
  out.inval_latency_p50 = m.stats().inval_latency.quantile(0.50);
  out.inval_latency_p90 = m.stats().inval_latency.quantile(0.90);
  out.inval_latency_p99 = m.stats().inval_latency.quantile(0.99);
  out.makespan = makespan_sum / cfg.rounds;
  out.traffic_flits = traffic_sum / cfg.rounds;
  out.deferred_gathers =
      static_cast<double>(m.network().stats().gather_deferred);
  std::uint64_t blocked = 0;
  for (NodeId r = 0; r < static_cast<NodeId>(m.num_nodes()); ++r) {
    blocked += m.network().router(r).stats().bank_blocked_cycles;
  }
  out.bank_blocked_cycles = static_cast<double>(blocked);
  out.heatmap = m.network().heatmap();
  if (cfg.metrics) m.snapshot_metrics();
  return out;
}

LinkLoadProfile measure_link_load(core::Scheme scheme, int mesh_k,
                                  NodeId home, int d, int rounds,
                                  std::uint64_t seed) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = scheme;
  dsm::Machine m(p);
  sim::Rng rng(seed);
  const noc::MeshShape& mesh = m.network().mesh();
  const int n = m.num_nodes();

  // Prime + write, `rounds` times, all against the same home; count only
  // the write-phase traffic (snapshot around the write).
  std::vector<std::array<std::uint64_t, noc::kNumLinkDirs>> before(
      static_cast<std::size_t>(n));
  auto snapshot = [&] {
    for (NodeId node = 0; node < n; ++node) {
      for (int dir = 0; dir < noc::kNumLinkDirs; ++dir) {
        before[node][dir] = m.network().link_flits(node, static_cast<noc::Dir>(dir));
      }
    }
  };
  std::vector<double> write_phase(static_cast<std::size_t>(n) *
                                  noc::kNumLinkDirs);
  for (int round = 0; round < rounds; ++round) {
    const BlockAddr a =
        static_cast<BlockAddr>(round + 1) * static_cast<BlockAddr>(n) + home;
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    prime_sharers(m, a,
                  workload::make_sharers(rng, mesh, home, writer, d,
                                         workload::SharerPattern::Uniform));
    snapshot();
    (void)run_write(m, writer, a);
    for (NodeId node = 0; node < n; ++node) {
      for (int dir = 0; dir < noc::kNumLinkDirs; ++dir) {
        write_phase[static_cast<std::size_t>(node) * noc::kNumLinkDirs + dir] +=
            static_cast<double>(
                m.network().link_flits(node, static_cast<noc::Dir>(dir)) -
                before[node][dir]);
      }
    }
  }

  LinkLoadProfile out;
  const noc::Coord h = mesh.coord_of(home);
  double adj_sum = 0, row_sum = 0, col_sum = 0, other_sum = 0;
  int adj_n = 0, row_n = 0, col_n = 0, other_n = 0;
  for (NodeId node = 0; node < n; ++node) {
    const noc::Coord c = mesh.coord_of(node);
    for (int dir = 0; dir < noc::kNumLinkDirs; ++dir) {
      if (mesh.neighbor(node, static_cast<noc::Dir>(dir)) == kInvalidNode)
        continue;
      const double v =
          write_phase[static_cast<std::size_t>(node) * noc::kNumLinkDirs + dir];
      out.max_link = std::max(out.max_link, v);
      const bool x_dir = static_cast<noc::Dir>(dir) == noc::Dir::East ||
                         static_cast<noc::Dir>(dir) == noc::Dir::West;
      const bool touches_home =
          node == home ||
          mesh.neighbor(node, static_cast<noc::Dir>(dir)) == home;
      if (touches_home) {
        adj_sum += v;
        ++adj_n;
      } else if (c.y == h.y && x_dir) {
        row_sum += v;
        ++row_n;
      } else if (c.x == h.x && !x_dir) {
        col_sum += v;
        ++col_n;
      } else {
        other_sum += v;
        ++other_n;
      }
    }
  }
  out.home_adjacent_mean = adj_n ? adj_sum / adj_n : 0;
  out.home_row_mean = row_n ? row_sum / row_n : 0;
  out.home_col_mean = col_n ? col_sum / col_n : 0;
  out.elsewhere_mean = other_n ? other_sum / other_n : 0;
  return out;
}

SingleTxnResult measure_single_txn(dsm::SystemParams params, NodeId home,
                                   NodeId writer,
                                   const std::vector<NodeId>& sharers) {
  dsm::Machine m(params);
  const BlockAddr a = static_cast<BlockAddr>(m.num_nodes()) + home;
  assert(m.home_of(a) == home);
  prime_sharers(m, a, sharers);

  const auto traffic0 = m.network().stats().link_flit_hops;
  const auto occ0 = m.node(home).stats().occupancy_cycles;
  const auto worms0 = m.stats().inval_request_worms;
  const auto acks0 = m.stats().inval_total_ack_worms;

  (void)run_write(m, writer, a);

  SingleTxnResult out;
  out.inval_latency = m.stats().inval_latency.sum();
  out.messages = static_cast<double>(
      (m.stats().inval_request_worms - worms0) +
      (m.stats().inval_total_ack_worms - acks0));
  out.traffic_flits =
      static_cast<double>(m.network().stats().link_flit_hops - traffic0);
  out.occupancy =
      static_cast<double>(m.node(home).stats().occupancy_cycles - occ0);
  return out;
}

} // namespace mdw::analysis
