// mdw_sweep — run a named experiment grid (e3, e4, e5, e8, e10s) or an
// inline axis spec across a thread pool, printing the classic bench tables
// and (optionally) machine-readable per-point JSON.
//
//   mdw_sweep e4 --jobs=8
//   mdw_sweep e8 --points-json=e8.json --metrics-json=e8-metrics.json
//   mdw_sweep --schemes=UI-UA,EC-CM-CG --mesh=8,16 --d=4,8 --reps=4 --seed=9
//
// Per-point results are bit-identical for any --jobs value: each point owns
// its RNG (seeded from the grid, never the clock), machine, registry, and
// heatmap, and merges happen in point-index order (DESIGN.md section 10).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/cli.h"
#include "sweep/named_grids.h"

using namespace mdw;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <grid> [options]\n"
      "       %s [axis options] [options]\n"
      "\n"
      "named grids: %s\n"
      "\n"
      "axis options (inline grids):\n"
      "  --schemes=A,B,...    scheme names (default: all seven)\n"
      "  --mesh=K,...         mesh sizes k (k x k meshes; default 16)\n"
      "  --d=N,...            sharers per transaction; 0 means d = k\n"
      "  --pattern=P,...      uniform | cluster | same-column | same-row\n"
      "  --gens=G,...         streaming generators (zipfian, read-mostly,\n"
      "                       write-heavy, migratory, producer-consumer,\n"
      "                       false-sharing); replaces the controlled-\n"
      "                       invalidation harness with StreamRunner, with\n"
      "                       --d as the accessor-group size\n"
      "  --gen-ops=N          stream ops per processor (default 200)\n"
      "  --gen-warmup=N       stream warmup accesses (default 2048)\n"
      "  --gen-blocks=N       stream shared-block pool size (default 512)\n"
      "  --concurrent=N,...   concurrent transactions; 0 = isolated (default),\n"
      "                       at most k*k - 1\n"
      "  --rounds=N           hot-spot rounds (default 3)\n"
      "  --reps=N             repetitions per point (default 8)\n"
      "  --seed=S             base seed for per-point SplitMix64 derivation\n"
      "\n"
      "options:\n"
      "  --jobs=N             worker threads (default: hardware concurrency)\n"
      "  --format=F           table output: plain (default) | csv | json\n"
      "  --points-json=PATH   write per-point results + merged metrics JSON\n"
      "  --metrics-json=PATH  write merged registry (+ heatmap) JSON\n"
      "  --heatmap            print the merged link heatmap(s) as ASCII\n"
      "  --no-progress        suppress the stderr progress line\n",
      argv0, argv0, sweep::named_grid_list().c_str());
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// A comma-separated list of integers, each at least `min`.
std::vector<int> parse_int_list(const cli::FlagParser& cli, const char* flag,
                                const std::string& val, int min) {
  std::vector<int> out;
  for (const std::string& tok : split_csv(val)) {
    cli.number(flag, tok, out.emplace_back());
    if (out.back() < min) {
      cli.die(std::string(flag) + " values must be >= " +
              std::to_string(min) + " (got " + tok + ")");
    }
  }
  return out;
}

struct CliOptions {
  sweep::NamedGrid job;  // the grid to run (named or assembled inline)
  int jobs = 0;
  std::string format = "plain";
  std::string points_json, metrics_json;
  bool heatmap = false;
  bool progress = true;
};

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  sweep::SweepGrid& grid = opt.job.grid;
  opt.job.name = "inline";
  opt.job.description = "inline axis sweep";
  bool named = false, has_axes = false;
  const cli::FlagParser cli(argv[0], usage);

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    // Flags stored as given: nothing to check beyond a strict parse.
    if (cli.flag(a, "--jobs", opt.jobs) ||
        cli.flag(a, "--points-json", opt.points_json) ||
        cli.flag(a, "--metrics-json", opt.metrics_json)) {
      continue;
    }
    if (a.rfind("--", 0) != 0) {
      const sweep::NamedGrid* g = sweep::named_grid(a);
      if (g == nullptr) {
        cli.die("unknown grid '" + a + "' (have: " +
                sweep::named_grid_list() + ")");
      }
      if (named || has_axes) {
        cli.die("a named grid cannot be combined with another grid or "
                "inline axis options");
      }
      opt.job = *g;
      named = true;
    } else if (cli.flag(a, "--schemes", v)) {
      has_axes = true;
      grid.schemes.clear();
      for (const std::string& name : split_csv(v)) {
        core::Scheme s;
        if (!sweep::scheme_from_name(name, s)) {
          cli.die("unknown scheme '" + name + "'");
        }
        grid.schemes.push_back(s);
      }
    } else if (cli.flag(a, "--mesh", v)) {
      has_axes = true;
      grid.meshes = parse_int_list(cli, "--mesh", v, 1);
    } else if (cli.flag(a, "--d", v)) {
      has_axes = true;
      grid.sharers = parse_int_list(cli, "--d", v, 0);
    } else if (cli.flag(a, "--pattern", v)) {
      has_axes = true;
      grid.patterns.clear();
      for (const std::string& name : split_csv(v)) {
        workload::SharerPattern p;
        if (!sweep::pattern_from_name(name, p)) {
          cli.die("unknown pattern '" + name + "'");
        }
        grid.patterns.push_back(p);
      }
    } else if (cli.flag(a, "--gens", v)) {
      has_axes = true;
      grid.gens.clear();
      for (const std::string& name : split_csv(v)) {
        workload::GenKind g;
        if (!workload::gen_from_name(name, g)) {
          cli.die("unknown generator '" + name + "'");
        }
        grid.gens.push_back(g);
      }
    } else if (cli.flag(a, "--gen-ops", grid.gen_ops_per_proc) ||
               cli.flag(a, "--gen-warmup", grid.gen_warmup_accesses) ||
               cli.flag(a, "--gen-blocks", grid.gen_blocks) ||
               cli.flag(a, "--rounds", grid.rounds) ||
               cli.flag(a, "--seed", grid.base_seed)) {
      has_axes = true;
    } else if (cli.flag(a, "--concurrent", v)) {
      has_axes = true;
      grid.concurrency = parse_int_list(cli, "--concurrent", v, 0);
    } else if (cli.flag(a, "--reps", grid.repetitions)) {
      has_axes = true;
      if (grid.repetitions <= 0) cli.die("--reps must be positive");
    } else if (cli.flag(a, "--format", v)) {
      if (v != "plain" && v != "csv" && v != "json") {
        cli.die("bad --format '" + v + "' (plain | csv | json)");
      }
      opt.format = v;
    } else if (a == "--heatmap") {
      opt.heatmap = true;
    } else if (a == "--no-progress") {
      opt.progress = false;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      cli.die("unknown option '" + a + "'");
    }
  }
  if (named && has_axes) {
    cli.die("a named grid cannot be combined with inline axis options");
  }
  if (grid.rounds <= 0) cli.die("--rounds must be positive");
  if (grid.gen_ops_per_proc == 0) cli.die("--gen-ops must be positive");
  if (grid.gen_blocks == 0) cli.die("--gen-blocks must be positive");

  if (!named) {
    // Row axis: the axis that actually varies (gens > concurrency > mesh
    // > d).
    if (grid.gens.size() > 1) {
      opt.job.axis = sweep::RowAxis::Generator;
    } else if (grid.concurrency.size() > 1) {
      opt.job.axis = sweep::RowAxis::Concurrency;
    } else if (grid.meshes.size() > 1) {
      opt.job.axis = sweep::RowAxis::Mesh;
    } else {
      opt.job.axis = sweep::RowAxis::Sharers;
    }
    const bool stream = grid.gens.size() > 1 ||
                        grid.gens[0] != workload::GenKind::None;
    const bool hotspot = grid.concurrency.size() > 1 || grid.concurrency[0] > 0;
    if (stream && hotspot) {
      cli.die("--gens and --concurrent > 0 are mutually exclusive "
                   "(stream points replay generators, not hot-spot rounds)");
    }
    if (stream) {
      opt.job.metrics = {
          {"steady inval latency (cycles)",
           +[](const sweep::PointResult& r) { return r.m.inval_latency; }, 1},
          {"steady accesses per kcycle",
           +[](const sweep::PointResult& r) { return r.accesses_per_kcycle; },
           1},
          {"steady inval txns per kcycle",
           +[](const sweep::PointResult& r) { return r.txns_per_kcycle; }, 1}};
    } else if (hotspot) {
      opt.job.metrics = {
          {"mean inval latency (cycles)",
           +[](const sweep::PointResult& r) { return r.m.inval_latency; }, 1},
          {"round makespan (cycles)",
           +[](const sweep::PointResult& r) { return r.makespan; }, 1}};
    } else {
      opt.job.metrics = {
          {"invalidation latency (cycles)",
           +[](const sweep::PointResult& r) { return r.m.inval_latency; }, 1},
          {"messages per transaction",
           +[](const sweep::PointResult& r) { return r.m.messages; }, 1},
          {"flit-hops per transaction",
           +[](const sweep::PointResult& r) { return r.m.traffic_flits; }, 1}};
    }
  }
  return opt;
}

} // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_cli(argc, argv);
  const sweep::SweepGrid& grid = opt.job.grid;
  const std::vector<sweep::SweepPoint> points = grid.expand();
  // Stream points clamp --d (the accessor-group size) themselves.  A
  // controlled-invalidation point needs d sharers besides the home and the
  // writer, whichever node writes: at most n - 2 scattered over the mesh,
  // k - 2 on the home's row or column.  Hot-spot points place their sharers
  // uniformly whatever the pattern axis says, and their concurrent
  // transactions need distinct homes and distinct writers, no writer its
  // own home: at most n - 1 of them.
  const cli::FlagParser cli(argv[0], usage);
  for (const sweep::SweepPoint& pt : points) {
    if (pt.gen != workload::GenKind::None) continue;
    const std::string k = std::to_string(pt.mesh);
    if (pt.concurrent > pt.mesh * pt.mesh - 1) {
      cli.die("--concurrent " + std::to_string(pt.concurrent) + " on a " +
              k + "x" + k + " mesh is above the " +
              std::to_string(pt.mesh * pt.mesh - 1) +
              " transactions with distinct homes and writers it can place");
    }
    const workload::SharerPattern pattern =
        pt.concurrent > 0 ? workload::SharerPattern::Uniform : pt.pattern;
    const bool line = pattern == workload::SharerPattern::SameRow ||
                      pattern == workload::SharerPattern::SameColumn;
    const int limit = std::max(0, line ? pt.mesh - 2 : pt.mesh * pt.mesh - 2);
    if (pt.d > limit) {
      cli.die("--d resolves to " + std::to_string(pt.d) + " on a " + k + "x" +
              k + " mesh, above the " + std::to_string(limit) +
              " sharers pattern " + workload::pattern_name(pattern) +
              " can hold there");
    }
  }

  sweep::RunnerOptions ro;
  ro.jobs = opt.jobs;
  ro.progress = opt.progress && isatty(fileno(stderr));
  const sweep::ThreadPoolRunner runner(ro);

  std::printf("sweep %s — %s\n%zu points, %d worker thread(s), "
              "%d repetitions per point\n\n",
              opt.job.name, opt.job.description, points.size(),
              runner.effective_jobs(), grid.repetitions);

  const sweep::SweepReport report = runner.run(points);
  if (!report.ok) {
    std::fprintf(stderr, "sweep failed: %s\n", report.error.c_str());
    return 1;
  }

  // A pivot table needs singleton non-row axes; fall back to JSON rows
  // for grids (multi-pattern, multi-variant, two varying axes) that do not
  // pivot cleanly.
  const bool pivotable =
      grid.variants.size() == 1 && grid.patterns.size() == 1 &&
      (opt.job.axis == sweep::RowAxis::Generator || grid.gens.size() == 1) &&
      (opt.job.axis == sweep::RowAxis::Concurrency ||
       grid.concurrency.size() == 1) &&
      (opt.job.axis == sweep::RowAxis::Mesh || grid.meshes.size() == 1) &&
      (opt.job.axis == sweep::RowAxis::Sharers || grid.sharers.size() == 1);
  if (pivotable) {
    for (const sweep::MetricColumn& mc : opt.job.metrics) {
      std::printf("--- %s ---\n", mc.title);
      const analysis::Table t =
          sweep::pivot_by_scheme(grid, points, report.results, opt.job.axis,
                                 mc.value, mc.precision);
      if (opt.format == "csv") {
        t.print_csv(std::cout);
      } else if (opt.format == "json") {
        t.print_json(std::cout);
      } else {
        t.print(std::cout);
      }
      std::printf("\n");
    }
  } else {
    std::printf("--- per-point results (grid does not pivot to one table) "
                "---\n");
    sweep::write_points_json(std::cout, points, report.results);
    std::printf("\n\n");
  }

  if (opt.heatmap) {
    for (const auto& [dims, hm] : report.heatmaps) {
      std::printf("--- link heatmap %dx%d ---\n", dims.first, dims.second);
      hm.render_ascii(std::cout);
    }
  }

  std::printf("wall time %.2fs (%zu points, %d thread(s))\n",
              report.wall_seconds, points.size(), runner.effective_jobs());

  if (!opt.points_json.empty()) {
    if (sweep::write_sweep_json_file(opt.points_json, points, report)) {
      std::printf("wrote per-point JSON to %s\n", opt.points_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.points_json.c_str());
      return 1;
    }
  }
  if (!opt.metrics_json.empty()) {
    if (obs::write_metrics_json_file(opt.metrics_json, report.metrics,
                                     report.sole_heatmap())) {
      std::printf("wrote metrics JSON to %s\n", opt.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.metrics_json.c_str());
      return 1;
    }
  }
  return 0;
}
