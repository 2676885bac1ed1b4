// perfbench — the repository's end-to-end benchmark driver (README.md).
//
//   perfbench --workload zipf-32x32-mima --seed 1 --seconds 20 --trace 0
//
// Repeats one workload unit until --seconds have elapsed, checks every
// repetition (completion, coherence at quiescence, identical simulated
// fingerprint), and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of the outside-in traced run (--trace 1).  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

struct Workload {
  const char* name;
  UnitResult (*run)(std::uint64_t seed, const TraceCtx* trace);
  int jobs;  // host threads the workload runs on
};

const Workload kWorkloads[] = {
    {"zipf-32x32-mima", run_zipf_32x32_mima, 1},
    {"svc-write-16x16-uiua", run_svc_write_16x16_uiua, 1},
    {"paper-grids", run_paper_grids, paper_grids_jobs()},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"accesses_per_s", "1/s"},
    {"inval_txns_per_s", "1/s"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"},
    {"inval_latency_p50_cycles", "cycles"},
    {"msgs_per_inval", "count"},
    {"flit_hops_per_inval", "count"},
    {"home_occupancy_per_inval_cycles", "cycles"},
};

const MetricDef kLayers[] = {
    {"sim.steps", "count"},
    {"sim.step_ratio", "ratio"},
    {"sim.ns_per_step", "ns"},
    {"sim.self_ns", "ns"},
    {"noc.worms_injected", "count"},
    {"noc.flit_hops", "count"},
    {"noc.gather_deferred", "count"},
    {"noc.alloc_stall_cycles", "cycles"},
    {"noc.cons_blocked_cycles", "cycles"},
    {"noc.bank_blocked_cycles", "cycles"},
    {"noc.ff_cycles", "cycles"},
    {"noc.route_cache.hit_ratio", "ratio"},
    {"noc.route_cache.lookups", "count"},
    {"dsm.deliver_calls", "count"},
    {"dsm.deliver_ns", "ns"},
    {"dsm.msgs_sent", "count"},
    {"dsm.occupancy_cycles", "cycles"},
    {"svc.enqueued", "count"},
    {"svc.queue_wait_cycles", "cycles"},
    {"svc.coalesced_txns", "count"},
    {"svc.pipeline_peak", "count"},
    {"core.plan_cache.hit_ratio", "ratio"},
    {"core.plan_cache.lookups", "count"},
    {"core.replay_txns", "count"},
    {"core.plan_ns_per_txn", "ns"},
    {"core.plan_cached_ns_per_txn", "ns"},
    {"core.replay_cache.hit_ratio", "ratio"},
    {"workload.next_calls", "count"},
    {"workload.next_ns", "ns"},
    {"workload.tail_s", "s"},
    {"sweep.points", "count"},
    {"sweep.point_ms_p50", "ms"},
    {"sweep.point_ms_p90", "ms"},
    {"sweep.busy_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

/// Any of these switches a default code path off (sharded kernel, full
/// sweep, no memo caches, no fast-forward): numbers taken under them do not
/// measure what users run.
constexpr const char* kForbiddenEnv[] = {"MDW_SHARDS", "MDW_FULL_SWEEP",
                                         "MDW_NO_MEMO", "MDW_NO_FF"};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage_exit(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "workloads: zipf-32x32-mima, svc-write-16x16-uiua, "
               "paper-grids\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage_exit(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_exit("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || a.seconds <= 0) {
        usage_exit("bad --seconds");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage_exit("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage_exit(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage_exit("--workload is required");
  return a;
}

double median(std::vector<double> v) { return quantile_of(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string metrics_json(const Metrics& ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << ms[i].name << "\": {\"value\": " << ms[i].value
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

bool is_absent(const std::string& metric,
               const std::vector<std::string>& absent) {
  for (const std::string& prefix : absent) {
    if (metric.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

}  // namespace

bool SpanLog::write(const std::string& path,
                    const std::string& layers_json) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(15);
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ",";
    os << "\n{\"name\": \"" << s.name << "\", \"cat\": \""
       << s.layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(ns_between(epoch_, s.start)) / 1e3
       << ", \"dur\": " << static_cast<double>(ns_between(s.start, s.end)) / 1e3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
  }
  os << "\n], \"layers\": " << layers_json << "}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);

  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage_exit(("unknown workload " + args.workload).c_str());
  for (const char* var : kForbiddenEnv) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s=%s set: every number "
                   "must measure the default code path\n",
                   var, v);
      return 3;
    }
  }

  std::printf("perfbench run: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              wl->name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("  host: cpus=%u affinity_cpus=%d  build: %s  compiler: %s  "
              "jobs=%d  kernel=sequential\n",
              std::thread::hardware_concurrency(), affinity_cpus(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, wl->jobs);
  std::fflush(stdout);

  SpanLog spans;
  std::vector<UnitResult> plain, traced;
  const Clock::time_point t0 = Clock::now();
  auto elapsed = [&] { return seconds_between(t0, Clock::now()); };
  // Untraced runs repeat until the next repetition would overrun the
  // budget; traced runs alternate untraced and traced repetitions so the
  // trace overhead is measured under the same host conditions.
  std::vector<double> cpu_share;  // process CPU time / wall, per repetition
  for (std::uint64_t rep = 0;; ++rep) {
    const double cpu0 = process_cpu_s();
    plain.push_back(wl->run(args.seed, nullptr));
    double per_round = plain.back().wall_s;
    cpu_share.push_back((process_cpu_s() - cpu0) / per_round);
    if (args.trace) {
      const TraceCtx ctx{&spans, rep};
      traced.push_back(wl->run(args.seed, &ctx));
      per_round += traced.back().wall_s;
    }
    if (elapsed() + per_round > args.seconds) break;
  }

  // --- correctness over every repetition -------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  const std::uint64_t fp = plain.front().fingerprint;
  for (const std::vector<UnitResult>* set : {&plain, &traced}) {
    for (const UnitResult& r : *set) {
      attempted += r.attempted;
      std::uint64_t bad = r.failed;
      std::string err = r.error;
      if (r.fingerprint != fp) {
        bad = r.attempted;
        if (err.empty()) err = "simulated fingerprint differs between repetitions";
      }
      failed += bad;
      if (first_error.empty()) first_error = err;
    }
  }
  const bool correct = failed == 0 && first_error.empty();

  const UnitResult& first = plain.front();
  std::printf("  %s\n", first.detail.c_str());
  std::printf("  repetitions: %zu untraced, %zu traced; untraced unit "
              "wall_s:",
              plain.size(), traced.size());
  for (const UnitResult& r : plain) std::printf(" %.3f", r.wall_s);
  // Below 1.0, the host took the CPU away from this run (oversubscribed).
  std::printf("; cpu/wall median %.3f\n", median(cpu_share));
  std::printf("sim_fingerprint 0x%016" PRIx64 "\n", fp);
  std::printf("ops_failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 1.0,
              failed, attempted);
  if (!first_error.empty()) {
    std::printf("FAILED: %s\n", first_error.c_str());
  }

  Metrics out;
  if (!args.trace) {
    std::map<std::string, double> v;
    auto med = [&](auto field) {
      std::vector<double> xs;
      for (const UnitResult& r : plain) xs.push_back(field(r));
      return median(std::move(xs));
    };
    v["wall_s"] = med([](const UnitResult& r) { return r.wall_s; });
    std::vector<double> setups;
    for (const UnitResult& r : plain) {
      setups.insert(setups.end(), r.setup_samples.begin(), r.setup_samples.end());
    }
    v["setup_s"] = median(setups);
    // A failed repetition may have no rate window: keep the JSON finite.
    auto per_s = [](double n, double s) { return s > 0 ? n / s : 0.0; };
    v["accesses_per_s"] = med(
        [&](const UnitResult& r) { return per_s(r.rate_accesses, r.rate_s); });
    v["inval_txns_per_s"] =
        med([&](const UnitResult& r) { return per_s(r.rate_txns, r.rate_s); });
    v["sim_cycles_per_s"] = med(
        [&](const UnitResult& r) { return per_s(r.rate_cycles, r.rate_s); });
    v["peak_rss_mb"] = peak_rss_mb();
    v["sim_cycles"] = first.sim_cycles;
    v["inval_latency_p50_cycles"] = first.lat_p50;
    // Printed but not in the JSON result: a stream's p99 hinges on where
    // its hottest blocks land, so it swings 15-30% between seeds (README).
    std::printf("  %-34s %16.6g cycles  (reported, not gated)\n",
                "inval_latency_p99_cycles", first.lat_p99);
    v["msgs_per_inval"] = first.msgs_per_inval;
    v["flit_hops_per_inval"] = first.flit_hops_per_inval;
    v["home_occupancy_per_inval_cycles"] = first.occupancy_per_inval;
    for (const MetricDef& d : kEndToEnd) out.push_back({d.name, v[d.name], d.unit});
  } else {
    // Per-layer values: the median over the traced repetitions (counts
    // repeat exactly; times vary).
    std::map<std::string, std::vector<double>> vals;
    for (const UnitResult& r : traced) {
      for (const Metric& m : r.layers) vals[m.name].push_back(m.value);
    }
    std::vector<double> pw, tw;
    for (const UnitResult& r : plain) pw.push_back(r.wall_s);
    for (const UnitResult& r : traced) tw.push_back(r.wall_s - r.replay_s);
    vals["bench.trace_overhead_frac"] = {median(tw) / median(pw) - 1.0};
    const std::vector<std::string>& absent = traced.front().absent;
    for (const MetricDef& d : kLayers) {
      const auto it = vals.find(d.name);
      if (it == vals.end() && !is_absent(d.name, absent)) {
        std::fprintf(stderr, "perfbench: layer metric %s missing\n", d.name);
        return 4;
      }
      out.push_back(
          {d.name, it == vals.end() ? 0.0 : median(it->second), d.unit});
    }
    std::string absent_list;
    for (const std::string& a : absent) {
      absent_list += (absent_list.empty() ? "" : ", ") + a;
    }
    std::printf("absent layers (not exercised by this workload; reported "
                "as 0): %s\n",
                absent_list.empty() ? "none" : absent_list.c_str());
    if (!args.trace_out.empty()) {
      std::string layers = "{\"workload\": \"" + std::string(wl->name) +
                           "\", \"absent\": [";
      for (std::size_t i = 0; i < absent.size(); ++i) {
        layers += (i ? ", \"" : "\"") + absent[i] + "\"";
      }
      layers += "], \"metrics\": " + metrics_json(out) + "}";
      if (!spans.write(args.trace_out, layers)) {
        std::fprintf(stderr, "perfbench: failed to write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace spans written to %s\n", args.trace_out.c_str());
    }
  }

  for (const Metric& m : out) {
    const bool absent_metric =
        args.trace && is_absent(m.name, traced.front().absent);
    std::printf("  %-34s %16.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), absent_metric ? "  (absent)" : "");
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(out).c_str());
  return correct ? 0 : 1;
}
