// Simulator-throughput benchmark (engineering metric, not a paper figure):
// how fast the cycle kernel itself runs, in simulated-cycles/sec and
// flit-hops/sec, across mesh sizes and invalidation schemes.
//
// Two workloads:
//   SingleTxn/<k>x<k>/<scheme>  one invalidation transaction at a time
//                               (priming untimed) — the sparse-activity
//                               regime of the latency experiments, where
//                               <2% of routers hold flits on a 16x16 mesh.
//   Burst/<k>x<k>               a burst of random unicasts driven to
//                               quiescence — the dense-activity regime.
//   Gather/<k>x<k>              planner micro-benchmark: one high-degree
//                               EC-CM-HG invalidation per iteration, whose
//                               planning of d = 3k sharers competes with
//                               the kernel for wall time.
//   TxnSetup/<k>x<k>            planner micro-benchmark over a tiny repeated
//                               pool: 32 (block, home, sharer-set) patterns
//                               invalidated over and over, every one
//                               planned and routed from scratch.
//   Stream/<k>x<k>              a zipfian synthetic workload stream replayed
//                               through StreamRunner on every node at once —
//                               the full-machine steady-state regime the
//                               streaming workload engine sustains.
//   Svc/<k>x<k>                 a write-heavy stream with 4 outstanding ops
//                               per node through svc::Session over the
//                               pipelined (depth 8), coalescing home — the
//                               service-layer regime.
//
// Usage:
//   bench_simspeed [--label=<s>] [--metrics-json=<path>] [--repeat=<n>]
//                  [gbench flags]
//
// --repeat=N (default 1) runs every scenario N times and reports the median
// of each rate counter, which is what lands in --metrics-json; use it on
// noisy boxes where one run can catch a scheduling hiccup.
//
// --metrics-json= writes one trajectory point: {"label", "cpus",
// "results": [{name, sim_cycles_per_sec, flit_hops_per_sec}]}.  Points are
// accumulated by hand in BENCH_simspeed.json (see README "Simulator
// throughput"); check_simspeed.py compares the newest point against the
// earlier ones for regressions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dsm/machine.h"
#include "noc/worm_builder.h"
#include "sim/rng.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"
#include "workload/synthetic.h"

using namespace mdw;

namespace {

/// Prime `sharers` on block `a` so the next write triggers one invalidation
/// transaction of degree d.  Mirrors analysis::measure_invalidations.
void prime(dsm::Machine& m, BlockAddr a, const std::vector<NodeId>& sharers) {
  for (NodeId s : sharers) {
    bool done = false;
    m.node(s).read(a, [&](std::uint64_t) { done = true; });
    m.engine().run_until([&] { return done; }, 50'000'000);
  }
  (void)m.engine().run_to_quiescence(1'000'000);
}

void BM_SingleTxn(benchmark::State& state, int mesh_k, core::Scheme scheme) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = scheme;
  dsm::Machine m(p);
  sim::Rng rng(7);
  const int n = m.num_nodes();
  const int d = 8;
  std::uint64_t cycles = 0, hops = 0;
  BlockAddr a = 0;
  for (auto _ : state) {
    state.PauseTiming();
    a += static_cast<BlockAddr>(n) + 1;  // fresh block, rotating home
    const NodeId home = m.home_of(a);
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    prime(m, a,
          workload::make_sharers(rng, m.network().mesh(), home, writer, d,
                                 workload::SharerPattern::Uniform));
    const Cycle c0 = m.engine().now();
    const std::uint64_t h0 = m.network().stats().link_flit_hops;
    state.ResumeTiming();
    bool done = false;
    m.node(writer).write(a, 1, [&] { done = true; });
    m.engine().run_until([&] { return done; }, 50'000'000);
    (void)m.engine().run_to_quiescence(1'000'000);
    cycles += m.engine().now() - c0;
    hops += m.network().stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

void BM_Burst(benchmark::State& state, int mesh_k) {
  sim::Engine eng;
  const noc::MeshShape mesh(mesh_k, mesh_k);
  noc::NocParams np;
  noc::Network net(eng, mesh, np);
  net.set_delivery_handler([](NodeId, const noc::WormPtr&) {});
  sim::Rng rng(11);
  const int n = mesh.num_nodes();
  TxnId txn = 0;
  std::uint64_t cycles = 0, hops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Cycle c0 = eng.now();
    const std::uint64_t h0 = net.stats().link_flit_hops;
    state.ResumeTiming();
    for (int i = 0; i < 2 * mesh_k; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(n));
      auto dst = static_cast<NodeId>(rng.next_below(n));
      if (dst == s) dst = (dst + 1) % n;
      net.inject(noc::make_unicast(mesh, noc::RoutingAlgo::EcubeXY,
                                   noc::VNet::Request, s, dst, 16, ++txn,
                                   nullptr));
    }
    (void)eng.run_to_quiescence(1'000'000);
    cycles += eng.now() - c0;
    hops += net.stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

/// Planner micro-benchmark: one high-degree invalidation per timed
/// iteration under the MI-MA hierarchical-gather scheme (EC-CM-HG).  Each
/// transaction plans d = 3k sharers and then runs multidestination gather
/// worms threading column leaders, i-ack posting and deferred pickups, so
/// per-transaction setup competes with the cycle kernel for wall time
/// (DESIGN.md section 12).
void BM_Gather(benchmark::State& state, int mesh_k) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = core::Scheme::EcCmHg;
  dsm::Machine m(p);
  sim::Rng rng(13);
  const int n = m.num_nodes();
  const int d = 3 * mesh_k;  // sharers span most columns: many leader hops
  std::uint64_t cycles = 0, hops = 0;
  BlockAddr a = 0;
  for (auto _ : state) {
    state.PauseTiming();
    a += static_cast<BlockAddr>(n) + 1;
    const NodeId home = m.home_of(a);
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    prime(m, a,
          workload::make_sharers(rng, m.network().mesh(), home, writer, d,
                                 workload::SharerPattern::Uniform));
    const Cycle c0 = m.engine().now();
    const std::uint64_t h0 = m.network().stats().link_flit_hops;
    state.ResumeTiming();
    bool done = false;
    m.node(writer).write(a, 1, [&] { done = true; });
    m.engine().run_until([&] { return done; }, 50'000'000);
    (void)m.engine().run_to_quiescence(1'000'000);
    cycles += m.engine().now() - c0;
    hops += m.network().stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

/// Planner micro-benchmark over a tiny repeated pool: 32 (block, home,
/// sharer-set) patterns are invalidated round after round, each planned
/// and routed from scratch.  It is the one scenario that memoizing plans
/// and routes would speed up (DESIGN.md section 12): no benchmark workload
/// repeats its sharer sets this often.
void BM_TxnSetup(benchmark::State& state, int mesh_k) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = core::Scheme::EcCmHg;
  dsm::Machine m(p);
  sim::Rng rng(17);
  const int n = m.num_nodes();
  const int d = 8;
  constexpr int kPoolSize = 32;
  struct Pattern {
    BlockAddr addr;
    NodeId writer;
    std::vector<NodeId> sharers;
  };
  std::vector<Pattern> pool;
  pool.reserve(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    const auto addr =
        static_cast<BlockAddr>(i + 1) * static_cast<BlockAddr>(n) + i;
    const NodeId home = m.home_of(addr);
    NodeId writer = home;
    while (writer == home) writer = static_cast<NodeId>(rng.next_below(n));
    pool.push_back({addr, writer,
                    workload::make_sharers(rng, m.network().mesh(), home,
                                           writer, d,
                                           workload::SharerPattern::Uniform)});
  }
  // Untimed warm round: the timed loop starts with the pool's directory
  // entries, cache slots and pooled worms already allocated.
  for (const Pattern& pat : pool) {
    prime(m, pat.addr, pat.sharers);
    bool done = false;
    m.node(pat.writer).write(pat.addr, 1, [&] { done = true; });
    m.engine().run_until([&] { return done; }, 50'000'000);
    (void)m.engine().run_to_quiescence(1'000'000);
  }
  std::uint64_t cycles = 0, hops = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Pattern& pat = pool[next];
    next = next + 1 == pool.size() ? 0 : next + 1;
    prime(m, pat.addr, pat.sharers);
    const Cycle c0 = m.engine().now();
    const std::uint64_t h0 = m.network().stats().link_flit_hops;
    state.ResumeTiming();
    bool done = false;
    m.node(pat.writer).write(pat.addr, 1, [&] { done = true; });
    m.engine().run_until([&] { return done; }, 50'000'000);
    (void)m.engine().run_to_quiescence(1'000'000);
    cycles += m.engine().now() - c0;
    hops += m.network().stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

/// Full-machine streaming regime: every node issues from a zipfian
/// generator stream at once, so the simulator sustains hundreds of in-flight
/// coherence transactions — the workload engine's steady state.  The machine
/// and source persist across iterations (warm caches, warm directories);
/// each iteration replays a fresh reset of the same deterministic stream.
void BM_Stream(benchmark::State& state, int mesh_k) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = core::Scheme::EcCmHg;
  dsm::Machine m(p);
  workload::GenConfig cfg;
  cfg.kind = workload::GenKind::Zipfian;
  cfg.nprocs = m.num_nodes();
  cfg.nblocks = 512;
  cfg.ops_per_proc = 20;
  cfg.seed = 23;
  cfg.group = 8;
  const auto src = workload::make_generator(cfg, m.network().mesh());
  workload::StreamRunnerOptions opt;
  opt.windowed = false;  // measure the replay engine, not the stats layer
  std::uint64_t cycles = 0, hops = 0;
  bool first = true;
  for (auto _ : state) {
    state.PauseTiming();
    if (!first) src->reset();
    first = false;
    const Cycle c0 = m.engine().now();
    const std::uint64_t h0 = m.network().stats().link_flit_hops;
    state.ResumeTiming();
    workload::StreamRunner runner(m, *src, opt);
    benchmark::DoNotOptimize(runner.run());
    cycles += m.engine().now() - c0;
    hops += m.network().stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

/// Service-layer regime: every node keeps 4 ops in flight through its
/// svc::Session over a pipelined (depth 8), coalescing (32-cycle window)
/// home on a write-heavy stream — the E11s machinery under full load, where
/// the per-home queues, merged worm waves, and the MSHR map all stay hot.
void BM_Svc(benchmark::State& state, int mesh_k) {
  dsm::SystemParams p;
  p.mesh_w = p.mesh_h = mesh_k;
  p.scheme = core::Scheme::EcCmHg;
  p.svc.pipeline_depth = 8;
  p.svc.coalesce_window = 32;
  dsm::Machine m(p);
  workload::GenConfig cfg;
  cfg.kind = workload::GenKind::WriteHeavy;
  cfg.nprocs = m.num_nodes();
  cfg.nblocks = 512;
  cfg.ops_per_proc = 20;
  cfg.seed = 29;
  cfg.group = 8;
  const auto src = workload::make_generator(cfg, m.network().mesh());
  workload::StreamRunnerOptions opt;
  opt.windowed = false;  // measure the engine, not the stats layer
  opt.outstanding = 4;
  std::uint64_t cycles = 0, hops = 0;
  bool first = true;
  for (auto _ : state) {
    state.PauseTiming();
    if (!first) src->reset();
    first = false;
    const Cycle c0 = m.engine().now();
    const std::uint64_t h0 = m.network().stats().link_flit_hops;
    state.ResumeTiming();
    workload::StreamRunner runner(m, *src, opt);
    benchmark::DoNotOptimize(runner.run());
    cycles += m.engine().now() - c0;
    hops += m.network().stats().link_flit_hops - h0;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["flit_hops_per_sec"] =
      benchmark::Counter(static_cast<double>(hops), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

/// Console output plus capture of the per-benchmark rate counters so main()
/// can emit the --metrics-json trajectory point.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit CapturingReporter(int repeat) : repeat_(repeat) {}

  struct Row {
    std::string name;
    double cycles_per_sec = 0;
    double hops_per_sec = 0;
  };
  std::vector<Row> rows;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& r : runs) {
      if (r.error_occurred) continue;
      // Under --repeat=N each scenario reports aggregates (mean, median,
      // stddev, cv); keep only the median — robust to the occasional
      // scheduling hiccup on a shared box.
      if (repeat_ > 1 && r.aggregate_name != "median") continue;
      Row row;
      row.name = r.run_name.function_name;
      if (auto it = r.counters.find("sim_cycles_per_sec"); it != r.counters.end())
        row.cycles_per_sec = it->second;
      if (auto it = r.counters.find("flit_hops_per_sec"); it != r.counters.end())
        row.hops_per_sec = it->second;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

private:
  int repeat_;
};

bool write_point_json(const std::string& path, const std::string& label,
                      const std::vector<CapturingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"mdw.bench_simspeed.v1\",\n");
  std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"sim_cycles_per_sec\": %.6g, "
                 "\"flit_hops_per_sec\": %.6g}%s\n",
                 rows[i].name.c_str(), rows[i].cycles_per_sec,
                 rows[i].hops_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path, label = "dev";
  int repeat = 1;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--metrics-json=", 0) == 0) {
      json_path = a.substr(15);
    } else if (a.rfind("--label=", 0) == 0) {
      label = a.substr(8);
    } else if (a.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(a.c_str() + 9);
      if (repeat < 1) repeat = 1;
    } else {
      args.push_back(argv[i]);
    }
  }
  // --repeat maps onto gbench repetitions with only the aggregate rows
  // reported; CapturingReporter then keeps the median per scenario.
  const std::string rep_flag =
      "--benchmark_repetitions=" + std::to_string(repeat);
  const std::string agg_flag = "--benchmark_report_aggregates_only=true";
  if (repeat > 1) {
    args.push_back(const_cast<char*>(rep_flag.c_str()));
    args.push_back(const_cast<char*>(agg_flag.c_str()));
  }

  const struct {
    int mesh;
    core::Scheme scheme;
  } single_pts[] = {
      {8, core::Scheme::UiUa},    {16, core::Scheme::UiUa},
      {32, core::Scheme::UiUa},   {8, core::Scheme::EcCmHg},
      {16, core::Scheme::EcCmHg}, {32, core::Scheme::EcCmHg},
      {16, core::Scheme::WfScSg},
  };
  for (const auto& pt : single_pts) {
    const std::string name = "SingleTxn/" + std::to_string(pt.mesh) + "x" +
                             std::to_string(pt.mesh) + "/" +
                             std::string(core::scheme_name(pt.scheme));
    benchmark::RegisterBenchmark(name.c_str(), BM_SingleTxn, pt.mesh,
                                 pt.scheme)
        ->UseRealTime();
  }
  for (int mesh : {8, 16, 32, 64}) {
    const std::string name =
        "Burst/" + std::to_string(mesh) + "x" + std::to_string(mesh);
    benchmark::RegisterBenchmark(name.c_str(), BM_Burst, mesh)
        ->UseRealTime();
  }
  for (int mesh : {16, 32}) {
    const std::string name =
        "Gather/" + std::to_string(mesh) + "x" + std::to_string(mesh);
    benchmark::RegisterBenchmark(name.c_str(), BM_Gather, mesh)
        ->UseRealTime();
  }
  for (int mesh : {16, 32}) {
    const std::string name =
        "TxnSetup/" + std::to_string(mesh) + "x" + std::to_string(mesh);
    benchmark::RegisterBenchmark(name.c_str(), BM_TxnSetup, mesh)
        ->UseRealTime();
  }
  for (int mesh : {16, 32, 64}) {
    const std::string name =
        "Stream/" + std::to_string(mesh) + "x" + std::to_string(mesh);
    benchmark::RegisterBenchmark(name.c_str(), BM_Stream, mesh)
        ->UseRealTime();
  }
  for (int mesh : {16, 32}) {
    const std::string name =
        "Svc/" + std::to_string(mesh) + "x" + std::to_string(mesh);
    benchmark::RegisterBenchmark(name.c_str(), BM_Svc, mesh)
        ->UseRealTime();
  }

  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  CapturingReporter reporter(repeat);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!json_path.empty()) {
    if (!write_point_json(json_path, label, reporter.rows)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote throughput point to %s\n", json_path.c_str());
  }
  return 0;
}
