// mdw_service — drive a synthetic workload through the asynchronous
// coherence service layer (svc::Session) and report the home-side pipeline
// and coalescing behaviour next to the usual steady-state stream stats.
//
//   mdw_service --mesh=16x16 --outstanding=4 --depth=4 --coalesce=32
//   mdw_service --gen=write-heavy --mesh=32x32 --outstanding=8 --depth=8
//   mdw_service --outstanding=1 --depth=1          # serialized baseline
//
// --outstanding is the per-client window (ops each node keeps in flight);
// --depth caps concurrent invalidation transactions per home (0 = unbounded);
// --coalesce holds an admitted invalidation up to N cycles so back-to-back
// writes hitting the same home merge into one multidestination worm wave.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "dsm/machine.h"
#include "obs/metrics.h"
#include "sim/cli.h"
#include "svc/service.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

using namespace mdw;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "service-layer knobs:\n"
      "  --outstanding=N     ops each client keeps in flight (default 4)\n"
      "  --depth=K           per-home invalidation pipeline depth\n"
      "                      (0 = unbounded, 1 = serialized baseline;\n"
      "                      default 0)\n"
      "  --coalesce=W        coalescing window, cycles (0 = off; default 0;\n"
      "                      ineffective at --depth=1)\n"
      "  --require-coalesce  exit nonzero unless at least one merged\n"
      "                      transaction was launched (CI smoke)\n"
      "\n"
      "workload (synthetic generators only):\n"
      "  --gen=G             zipfian | read-mostly | write-heavy | migratory\n"
      "                      | producer-consumer | false-sharing\n"
      "                      (default write-heavy)\n"
      "  --ops=N             total accesses across all procs (default 200000)\n"
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
      "  --warmup=N          warmup accesses (default 4096; 0 = none)\n"
      "  --window=N          steady-state window width (default 10000)\n"
      "  --max-cycles=N      cycle budget (default 2000000000)\n"
      "  --seed=S            base seed (default 1)\n"
      "\n"
      "output:\n"
      "  --metrics-json=PATH write the machine + stream metrics registry\n",
      argv0);
}

struct Options {
  workload::GenConfig gen;
  std::uint64_t total_ops = 200'000;
  int mesh_w = 16, mesh_h = 16;
  core::Scheme scheme = core::Scheme::UiUa;
  dsm::SvcParams svc;
  workload::StreamRunnerOptions run;
  std::string metrics_json;
  bool require_coalesce = false;
};

Options parse_cli(int argc, char** argv) {
  Options opt;
  opt.gen.kind = workload::GenKind::WriteHeavy;
  opt.run.warmup_accesses = 4096;
  opt.run.use_service = true;
  opt.run.outstanding = 4;
  const cli::FlagParser cli(argv[0], usage);

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    // Flags stored as given: nothing to check beyond a strict parse.
    if (cli.flag(a, "--coalesce", opt.svc.coalesce_window) ||
        cli.flag(a, "--metrics-json", opt.metrics_json) ||
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
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      cli.die("unknown option '" + a + "'");
    }
  }
  return opt;
}

} // namespace

int main(int argc, char** argv) {
  Options opt = parse_cli(argc, argv);
  const int nprocs = opt.mesh_w * opt.mesh_h;
  const noc::MeshShape mesh(opt.mesh_w, opt.mesh_h);

  opt.gen.nprocs = nprocs;
  opt.gen.ops_per_proc =
      (opt.total_ops + static_cast<std::uint64_t>(nprocs) - 1) /
      static_cast<std::uint64_t>(nprocs);
  std::unique_ptr<workload::StreamSource> src =
      workload::make_generator(opt.gen, mesh);

  dsm::SystemParams params;
  params.mesh_w = opt.mesh_w;
  params.mesh_h = opt.mesh_h;
  params.scheme = opt.scheme;
  params.svc = opt.svc;
  obs::MetricsRegistry registry;
  dsm::Machine machine(params, &registry);

  std::printf(
      "mdw_service: %s on %dx%d mesh, scheme %s, outstanding %d, "
      "depth %d, coalesce %" PRIu64 "\n",
      src->name(), opt.mesh_w, opt.mesh_h,
      std::string(core::scheme_name(opt.scheme)).c_str(), opt.run.outstanding,
      params.svc.pipeline_depth,
      static_cast<std::uint64_t>(params.svc.coalesce_window));

  workload::StreamRunner runner(machine, *src, opt.run);
  const workload::StreamResult r = runner.run();

  if (!r.completed) {
    std::fprintf(stderr, "%s: %s\n",
                 r.describe_stop(opt.run.max_cycles).c_str(),
                 r.describe_stalls().c_str());
    return 1;
  }

  std::printf("\ncompleted: %zu accesses (%" PRIu64
              " invalidation txns) in %" PRIu64 " cycles\n",
              r.accesses, machine.stats().inval_txns,
              static_cast<std::uint64_t>(r.cycles));
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
