// mdw_workload — drive a streaming workload (synthetic generator, recorded
// app kernel, or saved binary trace) through the cycle-level machine and
// report steady-state windowed statistics plus the home-side service-layer
// picture (invalidation queueing, pipeline occupancy, coalescing).
//
//   mdw_workload --gen=zipfian --mesh=32x32            # 1M-access stream
//   mdw_workload --gen=producer-consumer --scheme=EC-CM-HG --ops=200000
//   mdw_workload --app=barnes --save-trace=barnes.mdwt # record to binary
//   mdw_workload --load-trace=barnes.mdwt --mesh=8x8   # replay it
//   mdw_workload --gen=write-heavy --outstanding=4 --depth=4 --coalesce=32
//
// --ops is the TOTAL access budget: each of the k*k logical processors
// streams ceil(ops / k^2) operations, so the default one million coherence
// transactions holds at any mesh size.  --outstanding is each processor's
// window of in-flight accesses (1: the blocking processor); --depth caps
// concurrent invalidation transactions per home (0 = unbounded); --coalesce
// holds an admitted invalidation up to N cycles so back-to-back writes
// hitting the same home merge into one multidestination worm wave.  All
// randomness derives from --seed via SplitMix64 sub-streams
// (sim::split_seed); two runs with identical flags produce identical
// machines, streams, and statistics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "dsm/machine.h"
#include "obs/metrics.h"
#include "sim/cli.h"
#include "workload/apps.h"
#include "workload/binary_trace.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

using namespace mdw;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "workload selection (default: --gen=zipfian):\n"
      "  --gen=G             zipfian | read-mostly | write-heavy | migratory\n"
      "                      | producer-consumer | false-sharing\n"
      "  --app=A             barnes (128 bodies, 2 steps) | lu (128x128,\n"
      "                      8x8 blocks) | apsp (64 vertices)\n"
      "  --load-trace=PATH   replay a saved binary trace (.mdwt)\n"
      "\n"
      "generator knobs:\n"
      "  --ops=N             total accesses across all procs (default 1000000)\n"
      "  --blocks=N          shared-block pool size (default 4096)\n"
      "  --alpha=F           zipf popularity skew (default 0.9)\n"
      "  --write-frac=F      zipfian write fraction (default 0.25)\n"
      "  --group=N           accessor-group size per block (default 8)\n"
      "  --pattern=P         uniform | cluster | same-column | same-row\n"
      "\n"
      "machine / replay:\n"
      "  --mesh=KxK | K      mesh size (default 16x16)\n"
      "  --scheme=S          invalidation scheme (default UI-UA)\n"
      "  --think=N           cycles between accesses (default 4)\n"
      "  --warmup=N          warmup accesses before steady state\n"
      "                      (default 4096; 0 = none)\n"
      "  --window=N          steady-state window width, cycles (default 10000)\n"
      "  --max-cycles=N      cycle budget (default 2000000000)\n"
      "  --seed=S            base seed (default 1)\n"
      "\n"
      "service layer:\n"
      "  --outstanding=N     accesses each processor keeps in flight\n"
      "                      (default 1: the blocking processor)\n"
      "  --depth=K           per-home invalidation pipeline depth\n"
      "                      (0 = unbounded, 1 = serialized; default 0)\n"
      "  --coalesce=W        coalescing window, cycles (0 = off; default 0;\n"
      "                      ineffective at --depth=1)\n"
      "  --require-coalesce  exit nonzero unless at least one merged\n"
      "                      transaction was launched (CI smoke)\n"
      "\n"
      "output:\n"
      "  --save-trace=PATH   materialize the workload to a binary trace and\n"
      "                      exit (no simulation)\n"
      "  --metrics-json=PATH write the machine + stream metrics registry\n"
      "  --no-windows        suppress the per-window table\n",
      argv0);
}

struct Options {
  workload::GenConfig gen;          // kind/knobs for --gen mode
  std::string app;                  // barnes | lu | apsp ("" = generator)
  std::string load_trace, save_trace, metrics_json;
  std::uint64_t total_ops = 1'000'000;
  int mesh_w = 16, mesh_h = 16;
  core::Scheme scheme = core::Scheme::UiUa;
  dsm::SvcParams svc;
  workload::StreamRunnerOptions run;
  bool print_windows = true;
  bool require_coalesce = false;
};

Options parse_cli(int argc, char** argv) {
  Options opt;
  opt.run.warmup_accesses = 4096;
  bool gen_given = false;
  const cli::FlagParser cli(argv[0], usage);

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    // Flags stored as given: nothing to check beyond a strict parse.
    if (cli.flag(a, "--load-trace", opt.load_trace) ||
        cli.flag(a, "--save-trace", opt.save_trace) ||
        cli.flag(a, "--metrics-json", opt.metrics_json) ||
        cli.flag(a, "--coalesce", opt.svc.coalesce_window) ||
        cli.flag(a, "--alpha", opt.gen.zipf_alpha) ||
        cli.flag(a, "--seed", opt.gen.seed) ||
        cli.flag(a, "--think", opt.run.think) ||
        cli.flag(a, "--warmup", opt.run.warmup_accesses) ||
        cli.flag(a, "--max-cycles", opt.run.max_cycles)) {
      continue;
    }
    if (cli.flag(a, "--outstanding", opt.run.outstanding)) {
      if (opt.run.outstanding <= 0) cli.die("--outstanding must be positive");
    } else if (cli.flag(a, "--depth", opt.svc.pipeline_depth)) {
      if (opt.svc.pipeline_depth < 0) cli.die("--depth must be >= 0");
    } else if (a == "--require-coalesce") {
      opt.require_coalesce = true;
    } else if (cli.flag(a, "--gen", v)) {
      if (!workload::gen_from_name(v, opt.gen.kind)) {
        cli.die("unknown generator '" + v + "'");
      }
      gen_given = true;
    } else if (cli.flag(a, "--app", v)) {
      if (v != "barnes" && v != "lu" && v != "apsp") {
        cli.die("unknown app '" + v + "' (barnes | lu | apsp)");
      }
      opt.app = v;
    } else if (cli.flag(a, "--ops", opt.total_ops)) {
      if (opt.total_ops == 0) cli.die("--ops must be positive");
    } else if (cli.flag(a, "--blocks", opt.gen.nblocks)) {
      if (opt.gen.nblocks == 0) cli.die("--blocks must be positive");
    } else if (cli.flag(a, "--write-frac", opt.gen.write_fraction)) {
      if (opt.gen.write_fraction < 0 || opt.gen.write_fraction > 1) {
        cli.die("--write-frac must lie in [0, 1]");
      }
    } else if (cli.flag(a, "--group", opt.gen.group)) {
      if (opt.gen.group <= 0) cli.die("--group must be positive");
    } else if (cli.flag(a, "--pattern", v)) {
      bool ok = false;
      for (auto p : {workload::SharerPattern::Uniform,
                     workload::SharerPattern::Cluster,
                     workload::SharerPattern::SameColumn,
                     workload::SharerPattern::SameRow}) {
        if (v == workload::pattern_name(p)) {
          opt.gen.pattern = p;
          ok = true;
        }
      }
      if (!ok) cli.die("unknown pattern '" + v + "'");
    } else if (cli.flag(a, "--mesh", v)) {
      if (!cli::parse_mesh(v, opt.mesh_w, opt.mesh_h)) {
        cli.die("bad --mesh '" + v + "' (use K or WxH)");
      }
    } else if (cli.flag(a, "--scheme", v)) {
      bool ok = false;
      for (core::Scheme s : core::kAllSchemes) {
        if (v == core::scheme_name(s)) {
          opt.scheme = s;
          ok = true;
        }
      }
      if (!ok) cli.die("unknown scheme '" + v + "'");
    } else if (cli.flag(a, "--window", opt.run.window_cycles)) {
      if (opt.run.window_cycles == 0) cli.die("--window must be positive");
    } else if (a == "--no-windows") {
      opt.print_windows = false;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      cli.die("unknown option '" + a + "'");
    }
  }
  if ((gen_given && !opt.app.empty()) ||
      (gen_given && !opt.load_trace.empty()) ||
      (!opt.app.empty() && !opt.load_trace.empty())) {
    cli.die("--gen, --app, and --load-trace are mutually exclusive");
  }
  return opt;
}

} // namespace

int main(int argc, char** argv) {
  Options opt = parse_cli(argc, argv);
  const int nprocs = opt.mesh_w * opt.mesh_h;
  const noc::MeshShape mesh(opt.mesh_w, opt.mesh_h);

  // Assemble the stream: a synthetic generator, a freshly recorded app
  // kernel trace, or a binary trace off disk.
  workload::Trace trace;  // backing storage for trace-based sources
  std::unique_ptr<workload::StreamSource> src;
  std::string label;
  if (!opt.load_trace.empty()) {
    std::string err;
    if (!workload::load_trace(opt.load_trace, trace, &err)) {
      std::fprintf(stderr, "failed to load %s: %s\n", opt.load_trace.c_str(),
                   err.c_str());
      return 1;
    }
    if (trace.nprocs > nprocs) {
      std::fprintf(stderr,
                   "trace has %d procs but the %dx%d mesh has only %d nodes\n",
                   trace.nprocs, opt.mesh_w, opt.mesh_h, nprocs);
      return 1;
    }
    label = "trace:" + opt.load_trace;
    src = std::make_unique<workload::TraceSource>(trace, label.c_str());
  } else if (!opt.app.empty()) {
    if (opt.app == "barnes") {
      trace = workload::barnes_hut_trace(nprocs, 128, 2, opt.gen.seed);
    } else if (opt.app == "lu") {
      trace = workload::lu_trace(nprocs, 128, 8, opt.gen.seed);
    } else {
      trace = workload::apsp_trace(nprocs, 64, opt.gen.seed);
    }
    label = "app:" + opt.app;
    src = std::make_unique<workload::TraceSource>(trace, label.c_str());
  } else {
    opt.gen.nprocs = nprocs;
    opt.gen.ops_per_proc =
        (opt.total_ops + static_cast<std::uint64_t>(nprocs) - 1) /
        static_cast<std::uint64_t>(nprocs);
    src = workload::make_generator(opt.gen, mesh);
    label = src->name();
  }

  if (!opt.save_trace.empty()) {
    // Record mode: materialize and write the versioned binary format.
    // Trace-based sources are drained fully; generators are bounded by
    // their per-proc op budget already.
    const workload::Trace out =
        workload::materialize(*src, static_cast<std::size_t>(-1));
    if (!workload::save_trace(out, opt.save_trace)) {
      std::fprintf(stderr, "failed to write %s\n", opt.save_trace.c_str());
      return 1;
    }
    std::printf("saved %s: %d procs, %zu ops, %d barriers -> %s\n",
                label.c_str(), out.nprocs, out.total_ops(), out.num_barriers,
                opt.save_trace.c_str());
    return 0;
  }

  dsm::SystemParams params;
  params.mesh_w = opt.mesh_w;
  params.mesh_h = opt.mesh_h;
  params.scheme = opt.scheme;
  params.svc = opt.svc;
  obs::MetricsRegistry registry;
  dsm::Machine machine(params, &registry);

  std::printf("mdw_workload: %s on %dx%d mesh, scheme %s, %d procs, "
              "outstanding %d, depth %d, coalesce %" PRIu64 "\n",
              label.c_str(), opt.mesh_w, opt.mesh_h,
              std::string(core::scheme_name(opt.scheme)).c_str(), nprocs,
              opt.run.outstanding, opt.svc.pipeline_depth,
              static_cast<std::uint64_t>(opt.svc.coalesce_window));

  workload::StreamRunner runner(machine, *src, opt.run);
  const workload::StreamResult r = runner.run();

  if (!r.completed) {
    std::fprintf(stderr, "%s: %s\n",
                 r.describe_stop(opt.run.max_cycles).c_str(),
                 r.describe_stalls().c_str());
    return 1;
  }

  std::printf("\ncompleted: %zu coherence transactions (%" PRIu64
              " invalidation txns) in %" PRIu64 " cycles\n",
              r.accesses, machine.stats().inval_txns,
              static_cast<std::uint64_t>(r.cycles));
  std::printf("  warmup end: cycle %" PRIu64 "   steady cycles: %" PRIu64
              "\n",
              static_cast<std::uint64_t>(r.warmup_end),
              static_cast<std::uint64_t>(r.steady_cycles));
  std::printf("  steady accesses: %" PRIu64 " (%.1f per kcycle)\n",
              r.steady_accesses, r.accesses_per_kcycle);
  std::printf("  steady inval txns: %" PRIu64 " (%.1f per kcycle)\n",
              r.steady_txns, r.txns_per_kcycle);
  std::printf("  steady inval latency: mean %.1f  p50 %.1f  p90 %.1f  "
              "p99 %.1f cycles\n",
              r.lat_mean, r.lat_p50, r.lat_p90, r.lat_p99);

  // Home-side service-layer picture, aggregated over every node.
  std::uint64_t enq = 0, wait = 0, qpeak = 0, ppeak = 0, groups = 0,
                coalesced = 0, occ_peak = 0;
  for (NodeId id = 0; id < machine.num_nodes(); ++id) {
    const dsm::NodeStats& ns = machine.node(id).stats();
    enq += ns.svc_enqueued;
    wait += ns.svc_queue_wait_cycles;
    qpeak = std::max(qpeak, ns.svc_queue_peak);
    ppeak = std::max(ppeak, ns.svc_pipeline_peak);
    groups += ns.svc_groups;
    coalesced += ns.svc_coalesced_txns;
    occ_peak = std::max(occ_peak, ns.occupancy_cycles);
  }
  std::printf("\nservice layer (per-home pipeline + coalescing):\n");
  std::printf("  queued invals: %" PRIu64 "  (total wait %" PRIu64
              " cycles, queue peak %" PRIu64 ")\n",
              enq, wait, qpeak);
  std::printf("  pipeline occupancy peak: %" PRIu64 "\n", ppeak);
  std::printf("  merged launches: %" PRIu64 "  covering %" PRIu64
              " member txns\n",
              groups, coalesced);
  std::printf("  peak home occupancy: %" PRIu64 " cycles\n", occ_peak);

  if (opt.print_windows && !r.windows.empty()) {
    std::printf("\n%12s %10s %10s %10s %8s %8s %8s %8s\n", "window", "cycles",
                "accesses", "invals", "lat", "p50", "p90", "p99");
    for (const obs::WindowRow& w : r.windows) {
      std::printf("%12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                  " %8.1f %8.1f %8.1f %8.1f\n",
                  static_cast<std::uint64_t>(w.start),
                  static_cast<std::uint64_t>(w.length), w.accesses,
                  w.inval_txns, w.lat_mean, w.lat_p50, w.lat_p90, w.lat_p99);
    }
  }

  if (!opt.metrics_json.empty()) {
    machine.snapshot_metrics();
    runner.snapshot_metrics(registry);
    if (!obs::write_metrics_json_file(opt.metrics_json, registry, nullptr)) {
      std::fprintf(stderr, "failed to write %s\n", opt.metrics_json.c_str());
      return 1;
    }
    std::printf("\nwrote metrics to %s\n", opt.metrics_json.c_str());
  }

  if (opt.require_coalesce && groups == 0) {
    std::fprintf(stderr,
                 "--require-coalesce: no merged transactions were launched\n");
    return 1;
  }
  return 0;
}
