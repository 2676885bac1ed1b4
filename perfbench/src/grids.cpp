// paper-grids: the named evaluation grids e3, e4, e5 and e8 through
// sweep::ThreadPoolRunner — the "regenerate the paper" path.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "probes.h"
#include "sim/rng.h"
#include "sweep/named_grids.h"
#include "sweep/runner.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

namespace sw = mdw::sweep;

constexpr const char* kGrids[] = {"e3", "e4", "e5", "e8"};

/// One worker: the steadiest setting on a shared host, and the one whose
/// per-point timing is not perturbed by sibling workers.
constexpr int kJobs = 1;

/// EXPERIMENTS.md values the default seed must reproduce (mean invalidation
/// latency, cycles, rounded): E3 at d = 64 and E4 at 16x16.
struct Golden {
  const char* grid;
  mdw::core::Scheme scheme;
  int mesh;
  int d;
  long latency;
};
constexpr Golden kGolden[] = {
    {"e3", mdw::core::Scheme::UiUa, 16, 64, 1303},
    {"e3", mdw::core::Scheme::EcCmHg, 16, 64, 526},
    {"e4", mdw::core::Scheme::UiUa, 16, 16, 445},
    {"e4", mdw::core::Scheme::EcCmHg, 16, 16, 349},
};

struct GridRun {
  const char* name;
  std::vector<sw::SweepPoint> points;
};

/// Linear interpolation inside the histogram bucket holding quantile q (the
/// registry's own quantile() returns bucket upper edges, which would make
/// the figure jump by a whole bucket between seeds).
double interpolated_quantile(const mdw::sim::Histogram& h, double q) {
  const std::vector<std::uint64_t>& b = h.buckets();
  std::uint64_t total = 0;
  for (std::uint64_t c : b) total += c;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  const double lo = h.sampler().min();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] == 0) continue;
    if (seen + static_cast<double>(b[i]) >= target) {
      const double width = 64.0;  // the machine's inval_latency layout
      const double left = std::max(lo, width * static_cast<double>(i));
      const double frac = (target - seen) / static_cast<double>(b[i]);
      return left + frac * (width * static_cast<double>(i + 1) - left);
    }
    seen += static_cast<double>(b[i]);
  }
  return h.sampler().max();
}

std::uint64_t count_of(const mdw::obs::MetricsRegistry& reg, const char* name) {
  const mdw::obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0;
}

/// The (home, sharer set) stream measure_invalidations draws for an
/// isolated point, regenerated through the same public make_sharers.
std::vector<PlanInput> isolated_point_inputs(const sw::SweepPoint& pt) {
  std::vector<PlanInput> out;
  mdw::sim::Rng rng(pt.seed);
  const mdw::noc::MeshShape mesh(pt.mesh, pt.mesh);
  const int n = pt.mesh * pt.mesh;
  for (int rep = 0; rep < pt.repetitions; ++rep) {
    const auto home = static_cast<mdw::NodeId>(rng.next_below(n));
    mdw::NodeId writer = home;
    while (writer == home) writer = static_cast<mdw::NodeId>(rng.next_below(n));
    PlanInput in;
    in.txn = static_cast<mdw::TxnId>(rep + 1);
    in.home = home;
    for (mdw::NodeId s : mdw::workload::make_sharers(rng, mesh, home, writer,
                                                     pt.d, pt.pattern)) {
      in.sharers.insert(s);
    }
    out.push_back(std::move(in));
  }
  return out;
}

}  // namespace

int paper_grids_jobs() { return kJobs; }

UnitResult run_paper_grids(std::uint64_t seed, const TraceCtx* trace) {
  SpanLog* spans = trace ? trace->spans : nullptr;
  const std::uint64_t req = trace ? trace->request : 0;
  UnitResult out;
  const Clock::time_point t_unit = Clock::now();
  const SpanScope unit_span(spans, "unit", "bench", -1, req);

  // --- set-up: expand the grids, and build one machine of every mesh size
  // they use (the construction each point pays again inside the sweep).
  std::vector<GridRun> runs;
  {
    const SpanScope setup_span(spans, "setup", "bench", unit_span.id(), req);
    std::set<int> meshes;
    for (const char* name : kGrids) {
      const sw::NamedGrid* g = sw::named_grid(name);
      if (g == nullptr) {
        out.error = std::string("named grid ") + name + " not found";
        return out;
      }
      sw::SweepGrid grid = g->grid;
      if (seed != kDefaultSeed) {
        grid.seed_fn = nullptr;
        grid.base_seed = seed;
      }
      runs.push_back(GridRun{name, grid.expand()});
      meshes.insert(grid.meshes.begin(), grid.meshes.end());
    }
    for (int k : meshes) {
      mdw::dsm::SystemParams p;
      p.mesh_w = p.mesh_h = k;
      const mdw::dsm::Machine m(p);
    }
  }
  out.setup_samples.push_back(seconds_between(t_unit, Clock::now()));

  // --- run ------------------------------------------------------------------
  sw::RunnerOptions ro;
  ro.jobs = kJobs;
  const sw::ThreadPoolRunner runner(ro);
  mdw::obs::MetricsRegistry merged;
  std::vector<sw::SweepReport> reports;
  std::vector<double> point_ms;
  double sweep_s = 0;
  for (const GridRun& gr : runs) {
    const SpanScope grid_span(spans, std::string("sweep ") + gr.name, "sweep",
                              unit_span.id(), req);
    sw::SweepReport rep;
    if (trace == nullptr) {
      rep = runner.run(gr.points);
    } else {
      // PointFn wrapper around the default harness: one span per point.
      std::vector<double> ms(gr.points.size(), 0.0);
      const int parent = grid_span.id();
      // Spans are appended from the worker thread(s); with one worker the
      // log sees no concurrent use.
      static_assert(kJobs == 1, "SpanLog is single-threaded");
      rep = runner.run(gr.points, [&](const sw::SweepPoint& pt,
                                      mdw::obs::MetricsRegistry& reg,
                                      mdw::obs::LinkHeatmap& hm) {
        const SpanScope point_span(spans, "point", "sweep", parent, req);
        const Clock::time_point t0 = Clock::now();
        sw::PointResult r = sw::run_point(pt, reg, hm);
        ms[pt.index] = seconds_between(t0, Clock::now()) * 1e3;
        return r;
      });
      point_ms.insert(point_ms.end(), ms.begin(), ms.end());
    }
    sweep_s += rep.wall_seconds;
    (void)merged.merge_from(rep.metrics);
    reports.push_back(std::move(rep));
  }

  // --- verification ---------------------------------------------------------
  Fingerprint f;
  double accesses = 0, iso_txns = 0, msgs = 0, hops = 0, occ = 0;
  {
    const SpanScope verify_span(spans, "verify", "bench", unit_span.id(), req);
    for (std::size_t g = 0; g < runs.size(); ++g) {
      const sw::SweepReport& rep = reports[g];
      if (!rep.ok && out.error.empty()) {
        out.error = std::string("sweep ") + runs[g].name + ": " + rep.error;
      }
      for (std::size_t i = 0; i < runs[g].points.size(); ++i) {
        const sw::SweepPoint& pt = runs[g].points[i];
        const sw::PointResult& r = rep.results[i];
        ++out.attempted;
        const bool good = r.ran && r.completed && r.m.inval_latency > 0;
        if (!good) {
          ++out.failed;
          if (out.error.empty()) {
            out.error = std::string(runs[g].name) + " point " +
                        std::to_string(i) + " did not complete";
          }
        }
        for (double v : {r.m.inval_latency, r.m.inval_latency_p50,
                         r.m.inval_latency_p99, r.m.write_latency,
                         r.m.messages, r.m.traffic_flits, r.m.occupancy,
                         r.m.deferred_gathers, r.makespan,
                         r.bank_blocked_cycles}) {
          f.add(v);
        }
        // Processor accesses the harness issues: d priming reads plus the
        // write, per transaction.
        const double per_txn = static_cast<double>(pt.d + 1);
        if (pt.concurrent == 0) {
          const double reps = static_cast<double>(pt.repetitions);
          accesses += reps * per_txn;
          iso_txns += reps;
          msgs += reps * r.m.messages;
          hops += reps * r.m.traffic_flits;
          occ += reps * r.m.occupancy;
        } else {
          accesses += static_cast<double>(pt.rounds * pt.concurrent) * per_txn;
        }
        if (seed == kDefaultSeed && pt.concurrent == 0) {
          for (const Golden& gold : kGolden) {
            if (runs[g].name == std::string(gold.grid) &&
                pt.scheme == gold.scheme && pt.mesh == gold.mesh &&
                pt.d == gold.d &&
                std::lround(r.m.inval_latency) != gold.latency) {
              ++out.failed;
              out.error = std::string(gold.grid) + " latency " +
                          std::to_string(r.m.inval_latency) +
                          " differs from EXPERIMENTS.md " +
                          std::to_string(gold.latency);
            }
          }
        }
      }
    }
    for (const char* c : {"inval_txns", "inval_request_worms",
                          "inval_total_ack_worms", "worms_injected",
                          "worms_delivered", "link_flit_hops",
                          "gather_deferred", "node.occupancy_cycles",
                          "node.msgs_sent"}) {
      f.add(count_of(merged, c));
    }
  }
  out.fingerprint = f.value();

  const mdw::obs::Gauge* cycles = merged.find_gauge("cycles");
  const mdw::obs::HistogramMetric* lat = merged.find_histogram("inval_latency");
  const std::uint64_t txns = count_of(merged, "inval_txns");
  out.sim_cycles = cycles ? cycles->value() : 0;
  out.lat_p50 = lat ? interpolated_quantile(lat->histogram(), 0.50) : 0;
  out.lat_p99 = lat ? interpolated_quantile(lat->histogram(), 0.99) : 0;
  out.msgs_per_inval = iso_txns > 0 ? msgs / iso_txns : 0;
  out.flit_hops_per_inval = iso_txns > 0 ? hops / iso_txns : 0;
  out.occupancy_per_inval = iso_txns > 0 ? occ / iso_txns : 0;
  out.rate_s = sweep_s;
  out.rate_accesses = accesses;
  out.rate_txns = static_cast<double>(txns);
  out.rate_cycles = out.sim_cycles;
  char line[256];
  std::snprintf(line, sizeof line,
                "%" PRIu64 " points, %" PRIu64 " inval txns, %.0f cycles, "
                "%d sweep worker(s)",
                out.attempted, txns, out.sim_cycles, kJobs);
  out.detail = line;

  // --- traced extras ----------------------------------------------------------
  if (trace != nullptr) {
    Metrics& L = out.layers;
    add_registry_layers(merged, /*svc_present=*/false, L);
    double point_sum_ms = 0;
    for (double v : point_ms) point_sum_ms += v;
    L.push_back({"sweep.points", static_cast<double>(point_ms.size()), ""});
    std::vector<double> sorted = point_ms;
    L.push_back({"sweep.point_ms_p50", quantile_of(sorted, 0.50), ""});
    L.push_back({"sweep.point_ms_p90", quantile_of(sorted, 0.90), ""});
    L.push_back({"sweep.busy_frac",
                 point_sum_ms / 1e3 / (sweep_s * static_cast<double>(kJobs)),
                 ""});

    const SpanScope replay_span(spans, "planner-replay", "core",
                                unit_span.id(), req);
    ReplayResult total;
    for (const GridRun& gr : runs) {
      for (const sw::SweepPoint& pt : gr.points) {
        if (pt.concurrent != 0) continue;  // hot-spot points: not replayed
        total += replay_plans(isolated_point_inputs(pt), pt.scheme,
                              mdw::noc::MeshShape(pt.mesh, pt.mesh),
                              pt.params.sizing, pt.params.plan_cache_entries);
      }
    }
    add_replay_layers(total, L);
    out.replay_s = total.wall_s;
    out.absent = {"sim", "dsm.deliver", "svc", "workload"};
  }
  out.wall_s = seconds_between(t_unit, Clock::now());
  return out;
}

}  // namespace perfbench
