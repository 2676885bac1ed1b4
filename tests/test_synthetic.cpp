// Synthetic workload primitives: make_sharers geometry invariants across
// every pattern, the stream generators on meshes too small for any accessor
// group, and the SplitMix64 per-processor seed discipline of random_trace
// (shared with the stream generators and the sweep grid).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dsm/machine.h"
#include "noc/geometry.h"
#include "sim/rng.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"
#include "workload/synthetic.h"

namespace mdw::workload {
namespace {

constexpr SharerPattern kAllPatterns[] = {
    SharerPattern::Uniform, SharerPattern::Cluster, SharerPattern::SameColumn,
    SharerPattern::SameRow};

TEST(MakeSharers, DistinctInBoundsAndNeverHomeOrWriter) {
  const noc::MeshShape mesh(6, 6);
  sim::Rng rng(3);
  for (SharerPattern pattern : kAllPatterns) {
    const int max_d = (pattern == SharerPattern::SameColumn ||
                       pattern == SharerPattern::SameRow)
                          ? 4
                          : 12;
    for (int d = 1; d <= max_d; ++d) {
      const NodeId home = 14;   // (2, 2)
      const NodeId writer = 9;  // (3, 1)
      const auto sharers = make_sharers(rng, mesh, home, writer, d, pattern);
      ASSERT_EQ(static_cast<int>(sharers.size()), d)
          << pattern_name(pattern) << " d=" << d;
      std::set<NodeId> seen;
      for (NodeId s : sharers) {
        EXPECT_GE(s, 0);
        EXPECT_LT(s, mesh.num_nodes());
        EXPECT_NE(s, home);
        EXPECT_NE(s, writer);
        EXPECT_TRUE(seen.insert(s).second) << "duplicate sharer " << s;
      }
    }
  }
}

TEST(MakeSharers, LinePatternsStayOnHomeLine) {
  const noc::MeshShape mesh(6, 6);
  sim::Rng rng(5);
  const NodeId home = mesh.id_of({4, 2});
  const auto col = make_sharers(rng, mesh, home, home, 5,
                                SharerPattern::SameColumn);
  for (NodeId s : col) EXPECT_EQ(mesh.coord_of(s).x, 4);
  const auto row =
      make_sharers(rng, mesh, home, home, 5, SharerPattern::SameRow);
  for (NodeId s : row) EXPECT_EQ(mesh.coord_of(s).y, 2);
}

TEST(MakeSharers, ClusterIsSpatiallyCompact) {
  // A cluster of d nodes fits inside the smallest square holding d + 2,
  // so its bounding box never exceeds that side length (8x8 mesh, d = 7:
  // side 3).
  const noc::MeshShape mesh(8, 8);
  sim::Rng rng(7);
  const auto sharers =
      make_sharers(rng, mesh, 0, 1, 7, SharerPattern::Cluster);
  int min_x = 8, max_x = -1, min_y = 8, max_y = -1;
  for (NodeId s : sharers) {
    const auto c = mesh.coord_of(s);
    min_x = std::min(min_x, c.x);
    max_x = std::max(max_x, c.x);
    min_y = std::min(min_y, c.y);
    max_y = std::max(max_y, c.y);
  }
  EXPECT_LE(max_x - min_x, 2);
  EXPECT_LE(max_y - min_y, 2);
}

TEST(Generators, CompleteWhereNoNodeCanJoinAGroup) {
  // Meshes of fewer than three nodes, and a line pattern along a one-wide
  // mesh, leave no node eligible for a block's accessor group: the groups
  // are empty and the coverage rule gives each proc one block.  Every
  // generator must still run to completion with coherent state.
  struct Case {
    int w, h;
    SharerPattern pattern;
  };
  std::vector<Case> cases;
  for (const auto& [w, h] : {std::pair{1, 1}, {2, 1}, {1, 2}}) {
    for (SharerPattern pattern : kAllPatterns) cases.push_back({w, h, pattern});
  }
  cases.push_back({1, 8, SharerPattern::SameRow});
  cases.push_back({8, 1, SharerPattern::SameColumn});

  for (const Case& c : cases) {
    for (GenKind kind : kAllGenKinds) {
      const std::string label = std::to_string(c.w) + "x" +
                                std::to_string(c.h) + " " +
                                pattern_name(c.pattern) + " " + gen_name(kind);
      dsm::SystemParams p;
      p.mesh_w = c.w;
      p.mesh_h = c.h;
      dsm::Machine m(p);
      GenConfig cfg;
      cfg.kind = kind;
      cfg.nprocs = m.num_nodes();
      cfg.nblocks = 16;
      cfg.ops_per_proc = 50;
      cfg.pattern = c.pattern;
      const auto src = make_generator(cfg, m.network().mesh());
      StreamRunner runner(m, *src, StreamRunnerOptions{});
      const StreamResult r = runner.run();
      EXPECT_TRUE(r.completed) << label << ": " << r.describe_stalls();
      EXPECT_EQ(r.accesses, 50u * static_cast<std::size_t>(m.num_nodes()))
          << label;
      EXPECT_EQ(m.check_coherence(), "") << label;
    }
  }
}

TEST(RandomTrace, SameSeedIdenticalDifferentSeedNot) {
  const Trace a = random_trace(4, 50, 8, 0.3, 11);
  const Trace b = random_trace(4, 50, 8, 0.3, 11);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t p = 0; p < a.per_proc.size(); ++p) {
    ASSERT_EQ(a.per_proc[p].size(), b.per_proc[p].size());
    for (std::size_t i = 0; i < a.per_proc[p].size(); ++i) {
      EXPECT_EQ(a.per_proc[p][i].kind, b.per_proc[p][i].kind);
      EXPECT_EQ(a.per_proc[p][i].addr, b.per_proc[p][i].addr);
    }
  }

  const Trace c = random_trace(4, 50, 8, 0.3, 12);
  bool differs = false;
  for (std::size_t p = 0; p < a.per_proc.size() && !differs; ++p) {
    for (std::size_t i = 0; i < a.per_proc[p].size() && !differs; ++i) {
      differs = a.per_proc[p][i].kind != c.per_proc[p][i].kind ||
                a.per_proc[p][i].addr != c.per_proc[p][i].addr;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTrace, PerProcSubStreamsMatchSplitSeedRule) {
  // Processor p's stream depends only on split_seed(seed, p): growing the
  // trace (more procs) must not perturb the earlier processors' streams.
  const Trace small = random_trace(2, 40, 8, 0.3, 21);
  const Trace big = random_trace(6, 40, 8, 0.3, 21);
  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(small.per_proc[p].size(), big.per_proc[p].size());
    for (std::size_t i = 0; i < small.per_proc[p].size(); ++i) {
      EXPECT_EQ(small.per_proc[p][i].kind, big.per_proc[p][i].kind);
      EXPECT_EQ(small.per_proc[p][i].addr, big.per_proc[p][i].addr);
    }
  }
  // And the sub-streams are actually distinct across processors.
  bool p0_ne_p1 = false;
  for (std::size_t i = 0; i < big.per_proc[0].size(); ++i) {
    if (big.per_proc[0][i].addr != big.per_proc[1][i].addr ||
        big.per_proc[0][i].kind != big.per_proc[1][i].kind) {
      p0_ne_p1 = true;
      break;
    }
  }
  EXPECT_TRUE(p0_ne_p1);
}

TEST(SplitSeed, DistinctAndConstexpr) {
  static_assert(sim::split_seed(1, 0) != sim::split_seed(1, 1));
  static_assert(sim::split_seed(1, 0) != sim::split_seed(2, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(sim::split_seed(9, i));
  EXPECT_EQ(seen.size(), 4096u);
}

} // namespace
} // namespace mdw::workload
