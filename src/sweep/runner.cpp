#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "dsm/machine.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

namespace mdw::sweep {

namespace {

/// Streaming point: replay a synthetic generator stream on a full machine
/// and report the steady-state window (the harness behind the e10s grid).
/// `d` is reinterpreted as the per-block accessor-group size and `pattern`
/// as the group placement geometry; `repetitions`/`rounds` are unused.
PointResult run_stream_point(const SweepPoint& pt,
                             obs::MetricsRegistry& registry) {
  PointResult out;
  out.ran = true;

  dsm::Machine m(pt.params, &registry);
  workload::GenConfig cfg;
  cfg.kind = pt.gen;
  cfg.nprocs = m.num_nodes();
  cfg.nblocks = pt.gen_blocks;
  cfg.ops_per_proc = pt.gen_ops;
  cfg.seed = pt.seed;
  cfg.pattern = pt.pattern;
  cfg.group = pt.d;
  const auto src = workload::make_generator(cfg, m.network().mesh());

  workload::StreamRunnerOptions opt;
  opt.warmup_accesses = pt.gen_warmup;
  // For streaming points the concurrency axis is the CLIENT load knob:
  // ops each processor keeps in flight through its svc::Session (0 runs the
  // blocking processor, a window of 1).  Hot-spot semantics apply only to
  // gen == None points.
  opt.outstanding = pt.concurrent > 0 ? pt.concurrent : 1;
  workload::StreamRunner runner(m, *src, opt);
  const workload::StreamResult r = runner.run();

  out.completed = r.completed;
  out.m.inval_latency = r.lat_mean;
  out.m.inval_latency_p50 = r.lat_p50;
  out.m.inval_latency_p90 = r.lat_p90;
  out.m.inval_latency_p99 = r.lat_p99;
  out.m.occupancy = static_cast<double>(m.total_occupancy());
  out.makespan = static_cast<double>(r.cycles);
  out.accesses_per_kcycle = r.accesses_per_kcycle;
  out.txns_per_kcycle = r.txns_per_kcycle;
  out.steady_accesses = r.steady_accesses;
  for (NodeId id = 0; id < m.num_nodes(); ++id) {
    const dsm::NodeStats& ns = m.node(id).stats();
    out.home_occupancy_peak = std::max(
        out.home_occupancy_peak, static_cast<double>(ns.occupancy_cycles));
    out.svc_pipeline_peak = std::max(
        out.svc_pipeline_peak, static_cast<double>(ns.svc_pipeline_peak));
    out.svc_queue_peak = std::max(out.svc_queue_peak,
                                  static_cast<double>(ns.svc_queue_peak));
    out.svc_queue_wait += static_cast<double>(ns.svc_queue_wait_cycles);
    out.svc_coalesced_txns += static_cast<double>(ns.svc_coalesced_txns);
  }
  runner.snapshot_metrics(registry);
  m.snapshot_metrics();
  return out;
}

} // namespace

PointResult run_point(const SweepPoint& pt, obs::MetricsRegistry& registry,
                      obs::LinkHeatmap& heatmap) {
  if (pt.gen != workload::GenKind::None) {
    return run_stream_point(pt, registry);
  }
  PointResult out;
  out.ran = true;
  if (pt.concurrent == 0) {
    analysis::InvalExperimentConfig cfg;
    cfg.mesh = pt.mesh;
    cfg.scheme = pt.scheme;
    cfg.pattern = pt.pattern;
    cfg.d = pt.d;
    cfg.repetitions = pt.repetitions;
    cfg.seed = pt.seed;
    cfg.base = pt.params;
    cfg.metrics = &registry;
    cfg.heatmap = &heatmap;
    out.m = analysis::measure_invalidations(cfg);
  } else {
    analysis::HotspotConfig cfg;
    cfg.mesh = pt.mesh;
    cfg.scheme = pt.scheme;
    cfg.d = pt.d;
    cfg.concurrent = pt.concurrent;
    cfg.rounds = pt.rounds;
    cfg.seed = pt.seed;
    cfg.base = pt.params;
    cfg.metrics = &registry;
    const analysis::HotspotMeasurement h = analysis::measure_hotspot(cfg);
    out.completed = h.completed;
    out.m.inval_latency = h.inval_latency;
    out.m.inval_latency_p50 = h.inval_latency_p50;
    out.m.inval_latency_p90 = h.inval_latency_p90;
    out.m.inval_latency_p99 = h.inval_latency_p99;
    out.m.traffic_flits = h.traffic_flits;
    out.m.deferred_gathers = h.deferred_gathers;
    out.makespan = h.makespan;
    out.bank_blocked_cycles = h.bank_blocked_cycles;
    (void)heatmap.merge_from(h.heatmap);
  }
  return out;
}

int ThreadPoolRunner::effective_jobs() const {
  if (opt_.jobs > 0) return opt_.jobs;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc ? static_cast<int>(hc) : 1;
}

SweepReport ThreadPoolRunner::run(const std::vector<SweepPoint>& points) const {
  return run(points, run_point);
}

SweepReport ThreadPoolRunner::run(const std::vector<SweepPoint>& points,
                                  const PointFn& fn) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = points.size();

  SweepReport report;
  report.results.resize(n);
  // One private registry/heatmap per POINT (not per worker): merging them in
  // index order below makes the merged contents independent of which worker
  // ran what, and the point functions never share mutable state.
  std::vector<obs::MetricsRegistry> registries(n);
  std::vector<obs::LinkHeatmap> heatmaps(n);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancel{false};
  std::mutex mu;  // guards report.error and the progress line

  auto progress = [&](std::size_t completed) {
    if (!opt_.progress) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double eta =
        completed ? elapsed / static_cast<double>(completed) *
                        static_cast<double>(n - completed)
                  : 0.0;
    std::fprintf(stderr, "\rsweep: %zu/%zu points  %5.1fs elapsed  eta %5.1fs",
                 completed, n, elapsed, eta);
    if (completed == n) std::fputc('\n', stderr);
    std::fflush(stderr);
  };

  auto worker = [&] {
    while (!cancel.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        report.results[i] = fn(points[i], registries[i], heatmaps[i]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        if (report.ok) {
          report.ok = false;
          report.error = "point " + std::to_string(i) + ": " + e.what();
        }
        cancel.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t completed = done.fetch_add(1) + 1;
      std::lock_guard<std::mutex> lock(mu);
      progress(completed);
    }
  };

  const int jobs =
      static_cast<int>(std::min<std::size_t>(effective_jobs(), n ? n : 1));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  // Deterministic fold: point-index order, skipping points that never ran.
  for (std::size_t i = 0; i < n; ++i) {
    if (!report.results[i].ran) continue;
    (void)report.metrics.merge_from(registries[i]);
    obs::LinkHeatmap& hm = heatmaps[i];
    if (hm.num_nodes() > 0) {
      (void)report.heatmaps[{hm.width(), hm.height()}].merge_from(hm);
    }
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

} // namespace mdw::sweep
