// E8: hot-spot / contention study [47] — many concurrent invalidation
// transactions.  Shows the congestion relief around the home nodes that
// multidestination worms provide under load.  The (concurrent, scheme) grid
// lives in sweep::named_grid("e8") and runs across --jobs worker threads;
// the adaptive-routing comparison is a second small grid over a
// SystemParams variant axis.  The link-load profile and the instrumented
// observability pass are single-machine harnesses and stay serial.
#include "bench_sweep_common.h"

using namespace mdw;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv, true);
  const sweep::NamedGrid& g = *sweep::named_grid("e8");
  bench::banner("E8", g.description);

  const std::vector<sweep::SweepPoint> points = g.grid.expand();
  const sweep::SweepReport rep = bench::run_grid(points, opt);
  for (const sweep::MetricColumn& mc : g.metrics) {
    std::printf("--- %s ---\n", mc.title);
    sweep::pivot_by_scheme(g.grid, points, rep.results, g.axis, mc.value,
                           mc.precision)
        .print(std::cout);
    std::printf("\n");
  }

  std::printf("--- dynamic adaptive unicast routing (turn-model schemes, "
              "16 concurrent, d=16) ---\n");
  {
    sweep::SweepGrid ag;
    ag.schemes = {core::Scheme::WfScUa, core::Scheme::WfP2Sg};
    ag.meshes = {16};
    ag.sharers = {16};
    ag.concurrency = {16};
    ag.rounds = 3;
    dsm::SystemParams adaptive;
    adaptive.adaptive_unicast = true;
    ag.variants = {{"deterministic", dsm::SystemParams{}},
                   {"adaptive", adaptive}};
    ag.seed_fn = [](const sweep::SweepGrid&, const sweep::SweepPoint&) {
      return std::uint64_t{29};
    };
    const std::vector<sweep::SweepPoint> apoints = ag.expand();
    const sweep::SweepReport arep = bench::run_grid(apoints, opt);
    analysis::Table t({"scheme", "deterministic lat", "adaptive lat"});
    for (std::size_t ix = 0; ix < ag.schemes.size(); ++ix) {
      const sweep::PointResult& det =
          arep.results[ag.flat_index(0, 0, 0, 0, 0, 0, ix)];
      const sweep::PointResult& ada =
          arep.results[ag.flat_index(0, 1, 0, 0, 0, 0, ix)];
      t.add_row({bench::S(ag.schemes[ix]),
                 analysis::Table::num(det.m.inval_latency),
                 analysis::Table::num(ada.m.inval_latency)});
    }
    t.print(std::cout);
    std::printf("\n");
  }

  std::printf("--- link load around one hot home (16x16, d=32, 6 txns; "
              "mean flits per link, write phase only) ---\n");
  {
    analysis::Table t({"scheme", "home-adjacent", "home row (X links)",
                       "home col (Y links)", "elsewhere", "hottest link"});
    const noc::MeshShape mesh(16, 16);
    const NodeId home = mesh.id_of({8, 8});
    for (core::Scheme s : g.grid.schemes) {
      const auto lp = analysis::measure_link_load(s, 16, home, 32, 6, 3);
      t.add_row({bench::S(s), analysis::Table::num(lp.home_adjacent_mean),
                 analysis::Table::num(lp.home_row_mean),
                 analysis::Table::num(lp.home_col_mean),
                 analysis::Table::num(lp.elsewhere_mean),
                 analysis::Table::num(lp.max_link, 0)});
    }
    t.print(std::cout);
  }
  std::printf("\nExpected shape: under load, UI-UA latency degrades fastest "
              "(2d unicasts per txn congest the links around each home); "
              "the MI-MA schemes hold latency much flatter.  The link "
              "profile shows the paper's hot-spot anatomy: UI-UA loads the "
              "home row (request fan-out) and home column (ack fan-in) far "
              "above the mesh average; MI-MA flattens both.\n");

  if (!opt.points_json.empty()) {
    if (sweep::write_sweep_json_file(opt.points_json, points, rep)) {
      std::printf("\nwrote per-point JSON to %s\n", opt.points_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.points_json.c_str());
      return 1;
    }
  }
  if (opt.enabled()) {
    // Instrumented pass: one UI-UA hot-spot run with the registry (and,
    // when requested, the tracer) attached; dumps metrics + heatmap + trace.
    // Kept single-machine so --trace still produces one coherent timeline.
    std::printf("\n--- observability pass (UI-UA, 16 concurrent, d=16) ---\n");
    obs::MetricsRegistry registry;
    obs::TraceWriter trace;
    analysis::HotspotConfig cfg;
    cfg.mesh = 16;
    cfg.scheme = core::Scheme::UiUa;
    cfg.d = 16;
    cfg.concurrent = 16;
    cfg.rounds = 3;
    cfg.seed = 27;
    cfg.metrics = &registry;
    cfg.trace = opt.tracing() ? &trace : nullptr;
    const auto m = analysis::measure_hotspot(cfg);
    analysis::Table t({"inval latency mean", "p50", "p90", "p99"});
    t.add_row({analysis::Table::num(m.inval_latency),
               analysis::Table::num(m.inval_latency_p50),
               analysis::Table::num(m.inval_latency_p90),
               analysis::Table::num(m.inval_latency_p99)});
    t.print(std::cout);
    m.heatmap.render_ascii(std::cout);
    bench::write_observability(opt, registry, &m.heatmap, &trace);
  }
  return 0;
}
