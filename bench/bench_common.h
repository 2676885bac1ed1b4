// Shared helpers for the bench binaries (experiments E1..E11; see DESIGN.md
// section 5 for the experiment index and EXPERIMENTS.md for results).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/experiment.h"
#include "analysis/table.h"
#include "core/scheme.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "sim/cli.h"

namespace mdw::bench {

inline std::string S(core::Scheme s) {
  return std::string(core::scheme_name(s));
}

inline void banner(const char* exp_id, const char* what) {
  std::printf("==============================================================="
              "=\n%s — %s\n(all latencies in 5 ns network cycles)\n"
              "==============================================================="
              "=\n\n",
              exp_id, what);
}

/// Bench command-line options.  Every bench binary parses its argv through
/// parse_options (strictly, via sim/cli.h), and any unrecognized or
/// misspelled `--` flag (e.g. `--metric-json=` for `--metrics-json=`) or
/// malformed value is a usage error (exit 2) — flags are never silently
/// dropped.
///
/// All benches:
///   --metrics-json=<path>   write the metrics registry + per-link heatmap
///   --trace=<path>          write a Chrome trace (chrome://tracing, Perfetto)
/// Sweep-migrated benches (E3, E4, E5, E8) additionally accept:
///   --jobs=N                sweep worker threads, N >= 1 (default: hw
///                           concurrency)
///   --points-json=<path>    write per-point sweep results as JSON
///   --no-progress           suppress the stderr progress line
struct BenchOptions {
  std::string metrics_json;
  std::string trace;
  std::string points_json;
  int jobs = 0;          // 0 = hardware_concurrency
  bool progress = true;  // sweeps show progress only when stderr is a tty
  [[nodiscard]] bool enabled() const {
    return !metrics_json.empty() || !trace.empty();
  }
  [[nodiscard]] bool tracing() const { return !trace.empty(); }
};

inline void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--metrics-json=<path>] [--trace=<path>]\n",
               argv0);
}

inline void sweep_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics-json=<path>] [--trace=<path>] "
               "[--jobs=N] [--points-json=<path>] [--no-progress]\n",
               argv0);
}

/// `sweep`: accept the sweep-runner flags too (the migrated grid benches).
inline BenchOptions parse_options(int argc, char** argv, bool sweep = false) {
  BenchOptions opt;
  const cli::FlagParser cli(argv[0], sweep ? sweep_usage : usage);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (cli.flag(a, "--metrics-json", opt.metrics_json) ||
        cli.flag(a, "--trace", opt.trace) ||
        (sweep && (cli.positive_flag(a, "--jobs", opt.jobs) ||
                   cli.flag(a, "--points-json", opt.points_json)))) {
      continue;
    }
    if (sweep && a == "--no-progress") {
      opt.progress = false;
    } else {
      cli.die("unknown option '" + a + "'");
    }
  }
  return opt;
}

/// Write whatever the options selected; prints one line per file written.
inline void write_observability(const BenchOptions& opt,
                                const obs::MetricsRegistry& registry,
                                const obs::LinkHeatmap* heatmap,
                                const obs::TraceWriter* trace) {
  if (!opt.metrics_json.empty()) {
    if (obs::write_metrics_json_file(opt.metrics_json, registry, heatmap)) {
      std::printf("wrote metrics JSON to %s\n", opt.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.metrics_json.c_str());
      std::exit(1);
    }
  }
  if (!opt.trace.empty() && trace != nullptr) {
    if (trace->write_file(opt.trace)) {
      std::printf("wrote Chrome trace (%zu events) to %s — open in "
                  "chrome://tracing or https://ui.perfetto.dev\n",
                  trace->num_events(), opt.trace.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.trace.c_str());
      std::exit(1);
    }
  }
}

} // namespace mdw::bench
