// Sweep subsystem: deterministic seed derivation, grid expansion, the
// observability merge operations (sampler / histogram / registry /
// heatmap), and the headline guarantee — a grid run with 1, 2, and 8
// workers produces bit-identical per-point measurements and identical
// merged registry/heatmap contents (one Rng per point, seeds from point
// coordinates, merges folded in point-index order).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "sim/stats.h"
#include "sweep/named_grids.h"
#include "sweep/report.h"
#include "sweep/runner.h"

using namespace mdw;

namespace {

std::string registry_json(const obs::MetricsRegistry& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

std::string heatmap_json(const obs::LinkHeatmap& h) {
  std::ostringstream os;
  h.write_json(os);
  return os.str();
}

/// Exact (bitwise) equality of every measurement field.
void expect_identical(const sweep::PointResult& a, const sweep::PointResult& b,
                      std::size_t i) {
  EXPECT_EQ(a.ran, b.ran) << "point " << i;
  EXPECT_EQ(a.completed, b.completed) << "point " << i;
  EXPECT_EQ(a.m.inval_latency, b.m.inval_latency) << "point " << i;
  EXPECT_EQ(a.m.inval_latency_p50, b.m.inval_latency_p50) << "point " << i;
  EXPECT_EQ(a.m.inval_latency_p90, b.m.inval_latency_p90) << "point " << i;
  EXPECT_EQ(a.m.inval_latency_p99, b.m.inval_latency_p99) << "point " << i;
  EXPECT_EQ(a.m.write_latency, b.m.write_latency) << "point " << i;
  EXPECT_EQ(a.m.messages, b.m.messages) << "point " << i;
  EXPECT_EQ(a.m.traffic_flits, b.m.traffic_flits) << "point " << i;
  EXPECT_EQ(a.m.occupancy, b.m.occupancy) << "point " << i;
  EXPECT_EQ(a.m.request_worms, b.m.request_worms) << "point " << i;
  EXPECT_EQ(a.m.ack_messages, b.m.ack_messages) << "point " << i;
  EXPECT_EQ(a.m.deferred_gathers, b.m.deferred_gathers) << "point " << i;
  EXPECT_EQ(a.makespan, b.makespan) << "point " << i;
  EXPECT_EQ(a.bank_blocked_cycles, b.bank_blocked_cycles) << "point " << i;
  EXPECT_EQ(a.accesses_per_kcycle, b.accesses_per_kcycle) << "point " << i;
  EXPECT_EQ(a.txns_per_kcycle, b.txns_per_kcycle) << "point " << i;
  EXPECT_EQ(a.steady_accesses, b.steady_accesses) << "point " << i;
}

} // namespace

TEST(SeedDerivation, DeterministicDistinctAndBaseDependent) {
  EXPECT_EQ(sweep::derive_point_seed(1, 0), sweep::derive_point_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(sweep::derive_point_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across indices
  EXPECT_NE(sweep::derive_point_seed(1, 7), sweep::derive_point_seed(2, 7));
}

TEST(SweepGrid, ExpansionOrderSeedsAndProportionalSharers) {
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa, core::Scheme::EcCmCg};
  g.meshes = {4, 8};
  g.sharers = {0, 2};  // 0 resolves to d = k
  g.repetitions = 3;
  g.base_seed = 99;
  const auto points = g.expand();
  ASSERT_EQ(points.size(), g.num_points());
  ASSERT_EQ(points.size(), 8u);

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].seed, sweep::derive_point_seed(99, i));
    EXPECT_EQ(points[i].params.mesh_w, points[i].mesh);
    EXPECT_EQ(points[i].params.scheme, points[i].scheme);
    EXPECT_EQ(i, g.flat_index(0, points[i].i_variant, points[i].i_pattern,
                              points[i].i_concurrency, points[i].i_mesh,
                              points[i].i_sharers, points[i].i_scheme));
  }
  // Scheme innermost, then sharers, then mesh.
  EXPECT_EQ(points[0].scheme, core::Scheme::UiUa);
  EXPECT_EQ(points[1].scheme, core::Scheme::EcCmCg);
  EXPECT_EQ(points[0].d, 4);  // proportional on the 4x4 mesh
  EXPECT_EQ(points[2].d, 2);
  EXPECT_EQ(points[4].mesh, 8);
  EXPECT_EQ(points[4].d, 8);  // proportional on the 8x8 mesh

  // A custom seed rule sees the point's coordinates.
  g.seed_fn = [](const sweep::SweepGrid&, const sweep::SweepPoint& pt) {
    return 1000 + static_cast<std::uint64_t>(pt.d);
  };
  const auto custom = g.expand();
  EXPECT_EQ(custom[0].seed, 1004u);
  EXPECT_EQ(custom[2].seed, 1002u);
}

TEST(SamplerMerge, MatchesCombinedMoments) {
  sim::Sampler a, b, all;
  for (double v : {1.0, 2.0, 3.0}) {
    a.add(v);
    all.add(v);
  }
  for (double v : {10.0, 20.0}) {
    b.add(v);
    all.add(v);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-12);

  // Merging into an empty sampler adopts the other wholesale.
  sim::Sampler empty;
  empty.merge_from(b);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 15.0);
  b.merge_from(sim::Sampler{});  // merging an empty one is a no-op
  EXPECT_EQ(b.count(), 2u);
}

TEST(HistogramMergeTest, BucketsAddAndLayoutMismatchRejected) {
  obs::HistogramMetric a(0.0, 1.0, 16), b(0.0, 1.0, 16);
  a.add(1.5);
  a.add(3.5);
  b.add(1.5);
  b.add(7.5);
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.histogram().buckets()[1], 2u);
  EXPECT_EQ(a.histogram().buckets()[3], 1u);
  EXPECT_EQ(a.histogram().buckets()[7], 1u);
  EXPECT_DOUBLE_EQ(a.mean(), (1.5 + 3.5 + 1.5 + 7.5) / 4.0);
  EXPECT_DOUBLE_EQ(a.p99(), 8.0);

  obs::HistogramMetric other(0.0, 2.0, 16);  // different bucket width
  other.add(1.0);
  EXPECT_FALSE(a.merge_from(other));
  EXPECT_EQ(a.count(), 4u);  // untouched
}

TEST(RegistryMerge, CountersAddGaugesAddHistogramsFold) {
  obs::MetricsRegistry a, b;
  a.counter("hops").inc(3);
  b.counter("hops").inc(4);
  b.counter("only_b").inc(1);
  a.gauge("cycles").set(10.0);
  b.gauge("cycles").set(32.0);
  a.histogram("lat", 0.0, 1.0, 8).add(2.5);
  b.histogram("lat", 0.0, 1.0, 8).add(4.5);
  b.histogram("only_b_h", 0.0, 1.0, 4).add(0.5);

  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.counter("hops").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("cycles").value(), 42.0);
  EXPECT_EQ(a.find_histogram("lat")->count(), 2u);
  EXPECT_EQ(a.find_histogram("only_b_h")->count(), 1u);

  // A layout clash merges everything else and reports false.
  obs::MetricsRegistry c;
  c.histogram("lat", 0.0, 2.0, 8).add(1.0);
  c.counter("hops").inc(1);
  EXPECT_FALSE(a.merge_from(c));
  EXPECT_EQ(a.counter("hops").value(), 8u);
  EXPECT_EQ(a.find_histogram("lat")->count(), 2u);  // untouched
}

TEST(HeatmapMerge, AddsAndAdoptsAndRejects) {
  obs::LinkHeatmap a(3, 2), b(3, 2);
  a.record_hop(0, 2);
  b.record_hop(0, 2);
  b.record_stall(4, 0);
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.hops(0, 2), 2u);
  EXPECT_EQ(a.stalls(4, 0), 1u);

  obs::LinkHeatmap empty;
  ASSERT_TRUE(empty.merge_from(a));  // adopts dimensions
  EXPECT_EQ(empty.width(), 3);
  EXPECT_EQ(empty.total_hops(), 2u);

  obs::LinkHeatmap wrong(2, 2);
  EXPECT_FALSE(a.merge_from(wrong));
}

TEST(ThreadPoolRunner, WorkerCountInvariance) {
  // A small E4-style grid: proportional sharing over two mesh sizes, three
  // schemes spanning all three frameworks.
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa, core::Scheme::EcCmCg,
               core::Scheme::WfScSg};
  g.meshes = {4, 6};
  g.sharers = {0};  // d = k
  g.repetitions = 2;
  g.base_seed = 42;
  const auto points = g.expand();
  ASSERT_EQ(points.size(), 6u);

  std::vector<sweep::SweepReport> reports;
  for (int jobs : {1, 2, 8}) {
    sweep::RunnerOptions ro;
    ro.jobs = jobs;
    reports.push_back(sweep::ThreadPoolRunner(ro).run(points));
    ASSERT_TRUE(reports.back().ok);
  }

  for (std::size_t r = 1; r < reports.size(); ++r) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_identical(reports[0].results[i], reports[r].results[i], i);
    }
    // Merged observability folds in point-index order, so the merged
    // registry and heatmaps are identical too — byte for byte.
    EXPECT_EQ(registry_json(reports[0].metrics),
              registry_json(reports[r].metrics));
    ASSERT_EQ(reports[r].heatmaps.size(), 2u);  // one per mesh size
    for (const auto& [dims, hm] : reports[0].heatmaps) {
      ASSERT_TRUE(reports[r].heatmaps.count(dims));
      EXPECT_EQ(heatmap_json(hm), heatmap_json(reports[r].heatmaps.at(dims)));
    }
  }
  EXPECT_GT(reports[0].metrics.counter("inval_txns").value(), 0u);
}

TEST(ThreadPoolRunner, HotspotModeInvariance) {
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa};
  g.meshes = {4};
  g.sharers = {4};
  g.concurrency = {2};
  g.rounds = 1;
  g.base_seed = 7;
  const auto points = g.expand();
  ASSERT_EQ(points.size(), 1u);

  sweep::RunnerOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  const auto a = sweep::ThreadPoolRunner(one).run(points);
  const auto b = sweep::ThreadPoolRunner(four).run(points);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_TRUE(a.results[0].ran);
  EXPECT_TRUE(a.results[0].completed);
  EXPECT_GT(a.results[0].m.inval_latency, 0.0);
  EXPECT_GT(a.results[0].makespan, 0.0);
  expect_identical(a.results[0], b.results[0], 0);
  EXPECT_EQ(registry_json(a.metrics), registry_json(b.metrics));
}

TEST(ThreadPoolRunner, CancelsOnFirstFailure) {
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa};
  g.sharers = {1, 2, 3, 4};
  const auto points = g.expand();
  ASSERT_EQ(points.size(), 4u);

  sweep::RunnerOptions ro;
  ro.jobs = 1;  // serial: the failure at index 1 must skip indices 2 and 3
  const auto rep = sweep::ThreadPoolRunner(ro).run(
      points, [](const sweep::SweepPoint& pt, obs::MetricsRegistry&,
                 obs::LinkHeatmap&) -> sweep::PointResult {
        if (pt.index == 1) throw std::runtime_error("boom");
        sweep::PointResult r;
        r.ran = true;
        return r;
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("boom"), std::string::npos);
  EXPECT_NE(rep.error.find("point 1"), std::string::npos);
  EXPECT_TRUE(rep.results[0].ran);
  EXPECT_FALSE(rep.results[1].ran);
  EXPECT_FALSE(rep.results[2].ran);
  EXPECT_FALSE(rep.results[3].ran);
}

TEST(SweepGrid, GeneratorAxisExpansion) {
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa, core::Scheme::EcCmHg};
  g.meshes = {4};
  g.sharers = {4};
  g.gens = {workload::GenKind::Zipfian, workload::GenKind::Migratory};
  g.gen_ops_per_proc = 30;
  g.gen_warmup_accesses = 64;
  g.gen_blocks = 32;
  g.base_seed = 5;
  const auto points = g.expand();
  ASSERT_EQ(points.size(), g.num_points());
  ASSERT_EQ(points.size(), 4u);

  // Generators are the outermost axis; scheme stays innermost.
  EXPECT_EQ(points[0].gen, workload::GenKind::Zipfian);
  EXPECT_EQ(points[1].gen, workload::GenKind::Zipfian);
  EXPECT_EQ(points[2].gen, workload::GenKind::Migratory);
  EXPECT_EQ(points[1].scheme, core::Scheme::EcCmHg);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    EXPECT_EQ(pt.gen_ops, 30u);
    EXPECT_EQ(pt.gen_warmup, 64u);
    EXPECT_EQ(pt.gen_blocks, 32u);
    EXPECT_EQ(i, g.flat_index(pt.i_gen, pt.i_variant, pt.i_pattern,
                              pt.i_concurrency, pt.i_mesh, pt.i_sharers,
                              pt.i_scheme));
  }
}

TEST(ThreadPoolRunner, StreamModeInvariance) {
  // Streaming points (gen != None) must honour the same worker-count
  // invariance as trace points: bit-identical per-point results and merged
  // registries at any job count.
  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa, core::Scheme::EcCmHg};
  g.meshes = {4};
  g.sharers = {4};
  g.gens = {workload::GenKind::Zipfian, workload::GenKind::ProducerConsumer};
  g.gen_ops_per_proc = 30;
  g.gen_warmup_accesses = 64;
  g.gen_blocks = 32;
  g.base_seed = 11;
  const auto points = g.expand();
  ASSERT_EQ(points.size(), 4u);

  sweep::RunnerOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  const auto a = sweep::ThreadPoolRunner(one).run(points);
  const auto b = sweep::ThreadPoolRunner(four).run(points);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a.results[i].ran);
    EXPECT_TRUE(a.results[i].completed);
    EXPECT_GT(a.results[i].steady_accesses, 0u);
    EXPECT_GT(a.results[i].accesses_per_kcycle, 0.0);
    expect_identical(a.results[i], b.results[i], i);
  }
  EXPECT_EQ(registry_json(a.metrics), registry_json(b.metrics));
  ASSERT_NE(a.metrics.find_counter("stream.steady_accesses"), nullptr);
  EXPECT_GT(a.metrics.find_counter("stream.steady_accesses")->value(), 0u);

  // e10s is registered and pivots on the generator axis.
  const sweep::NamedGrid* e10s = sweep::named_grid("e10s");
  ASSERT_NE(e10s, nullptr);
  EXPECT_EQ(e10s->axis, sweep::RowAxis::Generator);
  EXPECT_EQ(e10s->grid.gens.size(), 6u);

  // Generator-axis pivot: one row per generator, labelled by name.
  const analysis::Table t = sweep::pivot_by_scheme(
      g, points, a.results, sweep::RowAxis::Generator,
      [](const sweep::PointResult& r) { return r.accesses_per_kcycle; });
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("zipfian"), std::string::npos);
  EXPECT_NE(os.str().find("producer-consumer"), std::string::npos);
  EXPECT_NE(os.str().find("generator"), std::string::npos);
}

TEST(SweepReportOut, PivotAndJson) {
  const sweep::NamedGrid* e3 = sweep::named_grid("e3");
  ASSERT_NE(e3, nullptr);
  EXPECT_EQ(e3->grid.num_points(), 42u);  // 6 d-values x 7 schemes
  EXPECT_EQ(sweep::named_grid("nope"), nullptr);

  sweep::SweepGrid g;
  g.schemes = {core::Scheme::UiUa, core::Scheme::EcCmCg};
  g.sharers = {2, 4};
  g.meshes = {4};
  g.repetitions = 1;
  const auto points = g.expand();
  std::vector<sweep::PointResult> results(points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].ran = true;
    results[i].m.inval_latency = 100.0 + static_cast<double>(i);
  }
  const analysis::Table t = sweep::pivot_by_scheme(
      g, points, results, sweep::RowAxis::Sharers,
      [](const sweep::PointResult& r) { return r.m.inval_latency; });
  std::ostringstream plain, json;
  t.print(plain);
  t.print_json(json);
  EXPECT_NE(plain.str().find("UI-UA"), std::string::npos);
  EXPECT_NE(plain.str().find("100.0"), std::string::npos);
  // print_json: numeric cells bare, row objects keyed by header.
  EXPECT_NE(json.str().find("\"UI-UA\": 100.0"), std::string::npos);
  EXPECT_NE(json.str().find("\"d\": 2"), std::string::npos);

  std::ostringstream pj;
  sweep::write_points_json(pj, points, results);
  EXPECT_NE(pj.str().find("\"scheme\": \"EC-CM-CG\""), std::string::npos);
  EXPECT_NE(pj.str().find("\"inval_latency\": 103"), std::string::npos);
  long depth = 0;
  for (char c : pj.str()) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}
