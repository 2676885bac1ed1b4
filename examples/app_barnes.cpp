// Run the Barnes-Hut application trace (the paper's first workload: 128
// bodies, 4 time steps) on the DSM machine and report execution time and
// invalidation behaviour for a chosen scheme.
//
//   $ ./app_barnes               # UI-UA vs EC-CM-HG on 16 nodes
//   $ ./app_barnes 64 2 WF-SC-SG # bodies steps scheme
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/table.h"
#include "workload/apps.h"
#include "workload/stream_runner.h"

using namespace mdw;

int main(int argc, char** argv) {
  const int bodies = argc > 1 ? std::atoi(argv[1]) : 128;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 4;

  std::vector<core::Scheme> schemes;
  if (argc > 3) {
    for (core::Scheme s : core::kAllSchemes) {
      if (core::scheme_name(s) == std::string(argv[3])) schemes.push_back(s);
    }
    if (schemes.empty()) {
      std::fprintf(stderr, "unknown scheme %s\n", argv[3]);
      return 1;
    }
  } else {
    schemes = {core::Scheme::UiUa, core::Scheme::EcCmHg};
  }

  workload::BarnesHutResult result;
  const workload::Trace trace =
      workload::barnes_hut_trace(16, bodies, steps, /*seed=*/42, &result);
  std::printf("Barnes-Hut: %d bodies, %d steps, 16 processors; %zu shared "
              "accesses, %zu tree nodes built\n\n",
              bodies, steps, trace.total_accesses(),
              result.tree_nodes_built);

  analysis::Table t({"scheme", "exec cycles", "exec ms (5ns cyc)",
                     "inval txns", "avg sharers", "avg inval latency",
                     "link flit-hops"});
  for (core::Scheme s : schemes) {
    dsm::SystemParams p;
    p.mesh_w = p.mesh_h = 4;
    p.scheme = s;
    dsm::Machine m(p);
    workload::TraceSource src(trace);
    workload::StreamRunner runner(m, src);
    const auto r = runner.run();
    if (!r.completed) {
      std::fprintf(stderr, "replay did not complete\n");
      return 1;
    }
    t.add_row({std::string(core::scheme_name(s)),
               analysis::Table::integer(r.cycles),
               analysis::Table::num(static_cast<double>(r.cycles) * 5e-6, 3),
               analysis::Table::integer(m.stats().inval_txns),
               analysis::Table::num(m.stats().inval_sharers.mean()),
               analysis::Table::num(m.stats().inval_latency.mean()),
               analysis::Table::integer(m.network().stats().link_flit_hops)});
  }
  t.print(std::cout);
  return 0;
}
