// E10 (paper Table 6 + application results): Barnes-Hut (128 bodies, 4
// steps), blocked LU (128x128, 8x8 blocks), and All Pairs Shortest Path,
// replayed on a 16-node machine under every scheme.
#include "bench_common.h"

#include "workload/apps.h"
#include "workload/stream_runner.h"

using namespace mdw;

namespace {

struct App {
  const char* name;
  workload::Trace trace;
};

void run_app(const App& app) {
  std::printf("--- %s (%zu shared accesses, %d barriers) ---\n", app.name,
              app.trace.total_accesses(), app.trace.num_barriers);
  analysis::Table t({"scheme", "exec cycles", "norm.", "inval txns",
                     "avg d", "avg inval lat", "flit-hops"});
  double base_cycles = 0;
  for (core::Scheme s : core::kAllSchemes) {
    dsm::SystemParams p;
    p.mesh_w = p.mesh_h = 4;
    p.scheme = s;
    dsm::Machine m(p);
    workload::TraceSource src(app.trace);
    workload::StreamRunner runner(m, src);
    const auto r = runner.run();
    if (!r.completed) {
      std::fprintf(stderr, "replay failed for %s\n", bench::S(s).c_str());
      std::exit(1);
    }
    if (s == core::Scheme::UiUa) base_cycles = static_cast<double>(r.cycles);
    t.add_row({bench::S(s), analysis::Table::integer(r.cycles),
               analysis::Table::num(
                   static_cast<double>(r.cycles) / base_cycles, 3),
               analysis::Table::integer(m.stats().inval_txns),
               analysis::Table::num(m.stats().inval_sharers.mean()),
               analysis::Table::num(m.stats().inval_latency.mean()),
               analysis::Table::integer(m.network().stats().link_flit_hops)});
  }
  t.print(std::cout);
  std::printf("\n");
}

} // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::banner("E10 (Table 6)", "application workloads on 16 processors "
                                 "(4x4 mesh); norm. = execution time relative "
                                 "to UI-UA");

  run_app({"Barnes-Hut, 128 bodies, 4 steps",
           workload::barnes_hut_trace(16, 128, 4, 42)});
  run_app({"Blocked LU, 128x128, 8x8 blocks",
           workload::lu_trace(16, 128, 8, 42)});
  run_app({"APSP (Floyd-Warshall), 64 vertices",
           workload::apsp_trace(16, 64, 42)});

  std::printf("Expected shape: gains track each application's invalidation "
              "intensity — largest for APSP (every pivot-row write "
              "invalidates all readers), modest for LU (small sharer "
              "counts).\n");

  if (opt.enabled()) {
    // Instrumented pass: Barnes-Hut under UI-UA with registry/tracer on.
    std::printf("\n--- observability pass (Barnes-Hut, UI-UA) ---\n");
    obs::MetricsRegistry registry;
    obs::TraceWriter trace;
    dsm::SystemParams p;
    p.mesh_w = p.mesh_h = 4;
    p.scheme = core::Scheme::UiUa;
    dsm::Machine m(p, &registry);
    if (opt.tracing()) m.set_trace_writer(&trace);
    const workload::Trace barnes = workload::barnes_hut_trace(16, 128, 4, 42);
    workload::TraceSource src(barnes);
    workload::StreamRunner runner(m, src);
    const auto r = runner.run();
    if (!r.completed) {
      std::fprintf(stderr, "instrumented replay failed\n");
      return 1;
    }
    m.snapshot_metrics();
    analysis::Table o({"exec cycles", "inval lat p50", "p90", "p99"});
    o.add_row({analysis::Table::integer(r.cycles),
               analysis::Table::num(m.stats().inval_latency.quantile(0.50)),
               analysis::Table::num(m.stats().inval_latency.quantile(0.90)),
               analysis::Table::num(m.stats().inval_latency.quantile(0.99))});
    o.print(std::cout);
    m.network().heatmap().render_ascii(std::cout);
    bench::write_observability(opt, registry, &m.network().heatmap(), &trace);
  }
  return 0;
}
