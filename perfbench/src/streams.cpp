// Streaming workloads: a synthetic generator replayed on a full machine
// through workload::StreamRunner (blocking closed loop, or svc::Session
// windows when outstanding > 1).
//
// One repetition runs the stream for a fixed set of sub-seeds derived from
// the benchmark seed, one fresh machine each.  A single stream's tail
// latency and length hinge on where its few hottest blocks land, so one
// seed alone swings p99 by tens of percent; the median over sub-runs is a
// property of the workload rather than of one placement.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "dsm/machine.h"
#include "probes.h"
#include "sim/rng.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

namespace perfbench {

namespace {

namespace wl = mdw::workload;
using mdw::core::Scheme;

struct StreamSpec {
  int mesh = 16;
  Scheme scheme = Scheme::UiUa;
  wl::GenKind gen = wl::GenKind::Zipfian;
  std::uint64_t ops = 0;         // per sub-run, across all processors
  std::uint32_t blocks = 4096;   // shared-block pool
  std::uint64_t warmup = 4096;   // accesses before the steady window
  int outstanding = 1;           // > 1: svc::Session windows
  mdw::dsm::SvcParams svc{};
  int sub_runs = 1;              // sub-seeds per repetition
};

/// Raw outcome of one sub-run, summed or ranked across sub-runs later.
struct SubRun {
  std::string error;
  std::uint64_t accesses = 0;
  double setup_s = 0;
  // Steady window: warmup cutoff to the first processor running dry.
  double window_s = 0, window_accesses = 0, window_txns = 0,
         window_cycles = 0;
  double cycles = 0;
  double lat_p50 = 0, lat_p99 = 0;  // over txns started after the cutoff
  double inval_txns = 0, inval_msgs = 0, flit_hops = 0, occupancy = 0;
  // Traced sub-runs only.
  std::uint64_t steps = 0;
  LayerClock run, deliver, next;
  double tail_s = 0;
  double pipeline_peak = 0;
  ReplayResult replay;
};

/// Fold the simulated outcome of a stream run into `f`.
void add_stream_fingerprint(mdw::dsm::Machine& m, const wl::StreamResult& r,
                            Fingerprint& f) {
  f.add(static_cast<std::uint64_t>(r.cycles));
  f.add(static_cast<std::uint64_t>(r.accesses));
  f.add(r.steady_accesses);
  f.add(r.steady_txns);
  f.add(r.lat_mean);
  const mdw::dsm::MachineStats& s = m.stats();
  f.add(s.inval_txns);
  f.add(s.inval_request_worms);
  f.add(s.inval_ack_messages);
  f.add(s.inval_total_ack_worms);
  const mdw::noc::NetworkStats& ns = m.network().stats();
  f.add(ns.worms_injected);
  f.add(ns.worms_delivered);
  f.add(ns.absorb_deliveries);
  f.add(ns.link_flit_hops);
  f.add(ns.gather_deferred);
  f.add(ns.gather_deposits);
  for (mdw::NodeId id = 0; id < m.num_nodes(); ++id) {
    const mdw::dsm::NodeStats& n = m.node(id).stats();
    f.add(n.occupancy_cycles);
    f.add(n.msgs_sent);
    f.add(n.msgs_received);
    f.add(n.svc_enqueued);
    f.add(n.svc_queue_wait_cycles);
    f.add(n.svc_coalesced_txns);
  }
  for (const mdw::dsm::InvalTxnRecord& rec : s.records) {
    f.add(rec.addr);
    f.add(static_cast<std::uint64_t>(rec.home));
    f.add(static_cast<std::uint64_t>(rec.sharers));
    f.add(static_cast<std::uint64_t>(rec.start));
    f.add(static_cast<std::uint64_t>(rec.end));
  }
}

SubRun run_one(const StreamSpec& spec, std::uint64_t seed, bool traced,
               mdw::obs::MetricsRegistry& registry, Fingerprint& fp) {
  SubRun out;
  const Clock::time_point t0 = Clock::now();

  // --- set-up: generator, machine, runner (and its sessions) -------------
  const int n = spec.mesh * spec.mesh;
  wl::GenConfig cfg;
  cfg.kind = spec.gen;
  cfg.nprocs = n;
  cfg.ops_per_proc =
      (spec.ops + static_cast<std::uint64_t>(n) - 1) / static_cast<std::uint64_t>(n);
  cfg.seed = seed;
  cfg.nblocks = spec.blocks;
  const std::unique_ptr<wl::StreamSource> gen =
      wl::make_generator(cfg, mdw::noc::MeshShape(spec.mesh, spec.mesh));

  mdw::dsm::SystemParams params;
  params.mesh_w = params.mesh_h = spec.mesh;
  params.scheme = spec.scheme;
  params.svc = spec.svc;
  mdw::dsm::Machine m(params, &registry);
  m.set_record_txns(true);

  StepProbe steps;
  std::unique_ptr<DeliveryProbe> deliveries;
  if (traced) {
    m.engine().register_tickable(&steps);  // after the network's own
    deliveries = std::make_unique<DeliveryProbe>(m, out.deliver);
  }
  WindowSource src(*gen, m, spec.warmup, traced ? &out.next : nullptr);

  wl::StreamRunnerOptions opt;
  opt.warmup_accesses = spec.warmup;
  opt.outstanding = spec.outstanding;
  wl::StreamRunner runner(m, src, opt);
  out.setup_s = seconds_between(t0, Clock::now());

  // --- run ----------------------------------------------------------------
  wl::StreamResult r;
  Clock::time_point t_end;
  {
    const LayerScope scope(out.run);
    r = runner.run();
    t_end = Clock::now();
  }

  // --- verification -------------------------------------------------------
  out.accesses = r.accesses;
  const WindowSource::Mark& w0 = src.window_start();
  const WindowSource::Mark& w1 = src.window_end();
  if (!r.completed) {
    out.error = "stream did not complete: " + r.describe_stalls();
  } else if (const std::string bad = m.check_coherence(); !bad.empty()) {
    out.error = "coherence check failed: " + bad.substr(0, 200);
  } else if (!m.all_idle()) {
    out.error = "processor operations still pending at quiescence";
  } else if (!w0.set || !w1.set || w1.issued <= w0.issued ||
             w1.host <= w0.host) {
    out.error = "no steady window: the first processor ran dry before the "
                "warmup cutoff";
  }
  add_stream_fingerprint(m, r, fp);

  out.window_s = seconds_between(w0.host, w1.host);
  out.window_accesses = static_cast<double>(w1.issued - w0.issued);
  out.window_txns = static_cast<double>(w1.txns - w0.txns);
  out.window_cycles = static_cast<double>(w1.cycle - w0.cycle);
  out.cycles = static_cast<double>(r.cycles);
  std::vector<double> lat;
  for (const mdw::dsm::InvalTxnRecord& rec : m.stats().records) {
    if (rec.start >= w0.cycle) {
      lat.push_back(static_cast<double>(rec.end - rec.start));
    }
  }
  out.lat_p50 = quantile_of(lat, 0.50);
  out.lat_p99 = quantile_of(lat, 0.99);
  const mdw::dsm::MachineStats& s = m.stats();
  out.inval_txns = static_cast<double>(s.inval_txns);
  out.inval_msgs =
      static_cast<double>(s.inval_request_worms + s.inval_total_ack_worms);
  out.flit_hops = static_cast<double>(m.network().stats().link_flit_hops);
  out.occupancy = static_cast<double>(m.total_occupancy());

  if (traced) {
    m.snapshot_metrics();
    out.steps = steps.steps;
    out.tail_s = seconds_between(w1.host, t_end);
    for (mdw::NodeId id = 0; id < m.num_nodes(); ++id) {
      out.pipeline_peak = std::max(
          out.pipeline_peak,
          static_cast<double>(m.node(id).stats().svc_pipeline_peak));
    }
    out.replay = replay_plans(deliveries->captured(), params.scheme,
                              m.network().mesh(), params.sizing,
                              params.plan_cache_entries);
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

UnitResult run_stream(const StreamSpec& spec, std::uint64_t seed,
                      const TraceCtx* trace) {
  SpanLog* spans = trace ? trace->spans : nullptr;
  const std::uint64_t req = trace ? trace->request : 0;
  UnitResult out;
  const Clock::time_point t_unit = Clock::now();
  const SpanScope unit_span(spans, "unit", "bench", -1, req);

  mdw::obs::MetricsRegistry merged;  // traced: counts over all sub-runs
  Fingerprint fp;
  std::vector<SubRun> subs;
  for (int i = 0; i < spec.sub_runs; ++i) {
    const SpanScope sub_span(spans, "stream sub-run " + std::to_string(i),
                             "sim", unit_span.id(), req);
    mdw::obs::MetricsRegistry registry;
    subs.push_back(run_one(spec,
                           mdw::sim::split_seed(seed, static_cast<std::uint64_t>(i)),
                           trace != nullptr, registry, fp));
    if (trace != nullptr) (void)merged.merge_from(registry);
  }

  // --- pooled result --------------------------------------------------------
  std::vector<double> p50, p99;
  double txns = 0, msgs = 0, hops = 0, occ = 0;
  for (const SubRun& s : subs) {
    out.attempted += s.accesses;
    if (!s.error.empty()) {
      out.failed += s.accesses;
      if (out.error.empty()) out.error = s.error;
    }
    out.setup_samples.push_back(s.setup_s);
    out.rate_s += s.window_s;
    out.rate_accesses += s.window_accesses;
    out.rate_txns += s.window_txns;
    out.rate_cycles += s.window_cycles;
    out.sim_cycles += s.cycles;
    p50.push_back(s.lat_p50);
    p99.push_back(s.lat_p99);
    txns += s.inval_txns;
    msgs += s.inval_msgs;
    hops += s.flit_hops;
    occ += s.occupancy;
  }
  out.fingerprint = fp.value();
  out.lat_p50 = quantile_of(p50, 0.5);
  out.lat_p99 = quantile_of(p99, 0.5);
  out.msgs_per_inval = ratio(msgs, txns);
  out.flit_hops_per_inval = ratio(hops, txns);
  out.occupancy_per_inval = ratio(occ, txns);
  char line[256];
  std::snprintf(line, sizeof line,
                "%d sub-runs: %" PRIu64 " accesses, %.0f inval txns, %.0f "
                "cycles; steady windows %.0f accesses over %.0f cycles",
                spec.sub_runs, out.attempted, txns, out.sim_cycles,
                out.rate_accesses, out.rate_cycles);
  out.detail = line;

  // --- traced extras: layer counts, planner replay -------------------------
  if (trace != nullptr) {
    std::uint64_t steps = 0;
    double run_ns = 0, run_self = 0, tail = 0, peak = 0;
    LayerClock deliver, next;
    ReplayResult rp;
    for (const SubRun& s : subs) {
      steps += s.steps;
      run_ns += static_cast<double>(s.run.total_ns);
      run_self += static_cast<double>(s.run.self_ns());
      tail += s.tail_s;
      peak = std::max(peak, s.pipeline_peak);
      deliver += s.deliver;
      next += s.next;
      rp += s.replay;
    }
    Metrics& L = out.layers;
    const double step_count = static_cast<double>(steps);
    L.push_back({"sim.steps", step_count, ""});
    L.push_back({"sim.step_ratio", ratio(step_count, out.sim_cycles), ""});
    L.push_back({"sim.ns_per_step", ratio(run_ns, step_count), ""});
    L.push_back({"sim.self_ns", run_self, ""});
    const bool svc = spec.outstanding > 1;
    add_registry_layers(merged, svc, L);
    // A peak does not add across machines: the largest one.
    if (svc) L.push_back({"svc.pipeline_peak", peak, ""});
    L.push_back({"dsm.deliver_calls", static_cast<double>(deliver.calls), ""});
    L.push_back({"dsm.deliver_ns", static_cast<double>(deliver.self_ns()), ""});
    L.push_back({"workload.next_calls", static_cast<double>(next.calls), ""});
    L.push_back({"workload.next_ns", static_cast<double>(next.self_ns()), ""});
    L.push_back({"workload.tail_s", tail, ""});
    add_replay_layers(rp, L);
    out.replay_s = rp.wall_s;
    out.absent.push_back("sweep");
    if (!svc) out.absent.push_back("svc");
  }
  out.wall_s = seconds_between(t_unit, Clock::now());
  return out;
}

}  // namespace

UnitResult run_zipf_32x32_mima(std::uint64_t seed, const TraceCtx* trace) {
  StreamSpec s;
  s.mesh = 32;
  s.scheme = Scheme::EcCmHg;
  s.gen = wl::GenKind::Zipfian;
  s.ops = 24'576;
  s.sub_runs = 3;
  return run_stream(s, seed, trace);
}

UnitResult run_svc_write_16x16_uiua(std::uint64_t seed,
                                    const TraceCtx* trace) {
  StreamSpec s;
  s.mesh = 16;
  s.scheme = Scheme::UiUa;
  s.gen = wl::GenKind::WriteHeavy;
  s.ops = 24'576;
  s.outstanding = 4;
  s.svc.pipeline_depth = 8;
  s.svc.coalesce_window = 32;
  // One shared block per line of the 1024-line direct-mapped cache: two
  // outstanding accesses at one node to blocks sharing a line can lose a
  // completion and stall the stream (README, "Known simulator defect").
  s.blocks = 1024;
  s.sub_runs = 4;
  return run_stream(s, seed, trace);
}

}  // namespace perfbench
