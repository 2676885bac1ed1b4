// Microbenchmarks (google-benchmark): throughput of the simulator's hot
// components — the invalidation planner and end-to-end protocol operations
// (a clean read miss, a whole EC-CM-HG invalidation).  These are engineering
// benchmarks for the simulator itself, not paper experiments; the dense
// network is perfbench's zipf-32x32-mima workload.
#include <benchmark/benchmark.h>

#include "core/inval_planner.h"
#include "dsm/machine.h"
#include "noc/worm_builder.h"
#include "sim/rng.h"
#include "workload/synthetic.h"

using namespace mdw;

namespace {

void BM_PlanInvalidation(benchmark::State& state) {
  const auto scheme = static_cast<core::Scheme>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const noc::MeshShape mesh(16, 16);
  sim::Rng rng(1);
  const NodeId home = mesh.id_of({7, 7});
  const auto sharers = workload::make_sharers(
      rng, mesh, home, home, d, workload::SharerPattern::Uniform);
  TxnId txn = 0;
  for (auto _ : state) {
    auto plan = core::plan_invalidation(scheme, mesh, home, sharers, ++txn,
                                        noc::WormSizing{});
    benchmark::DoNotOptimize(plan.request_worms.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanInvalidation)
    ->Args({static_cast<int>(core::Scheme::UiUa), 32})
    ->Args({static_cast<int>(core::Scheme::EcCmHg), 32})
    ->Args({static_cast<int>(core::Scheme::WfScSg), 32});

void BM_ProtocolReadMiss(benchmark::State& state) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 8;
  dsm::Machine m(p);
  BlockAddr a = 1000;
  NodeId requester = 0;
  for (auto _ : state) {
    bool done = false;
    m.node(requester).read(a, [&](std::uint64_t) { done = true; });
    m.engine().run_until([&] { return done; }, 1'000'000);
    a += 64;  // fresh block each time: always a clean remote miss
    requester = (requester + 1) % 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolReadMiss);

void BM_InvalidationTxn(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = 8;
  p.scheme = core::Scheme::EcCmHg;
  dsm::Machine m(p);
  sim::Rng rng(5);
  BlockAddr a = 64;
  for (auto _ : state) {
    state.PauseTiming();
    const NodeId home = m.home_of(a);
    const auto sharers = workload::make_sharers(
        rng, m.network().mesh(), home, 0, d,
        workload::SharerPattern::Uniform);
    for (NodeId s : sharers) {
      bool done = false;
      m.node(s).read(a, [&](std::uint64_t) { done = true; });
      m.engine().run_until([&] { return done; }, 1'000'000);
    }
    state.ResumeTiming();
    bool done = false;
    m.node(0).write(a, 1, [&] { done = true; });
    m.engine().run_until([&] { return done; }, 1'000'000);
    a += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvalidationTxn)->Arg(8)->Arg(32);

} // namespace

BENCHMARK_MAIN();
