#include "workload/synthetic.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace mdw::workload {

const char* pattern_name(SharerPattern p) {
  switch (p) {
    case SharerPattern::Uniform: return "uniform";
    case SharerPattern::Cluster: return "cluster";
    case SharerPattern::SameColumn: return "same-column";
    case SharerPattern::SameRow: return "same-row";
  }
  return "?";
}

std::vector<NodeId> make_sharers(sim::Rng& rng, const noc::MeshShape& mesh,
                                 NodeId home, NodeId writer, int d,
                                 SharerPattern pattern) {
  const int n = mesh.num_nodes();
  std::set<NodeId> picked;
  auto eligible = [&](NodeId c) { return c != home && c != writer; };

  switch (pattern) {
    case SharerPattern::Uniform: {
      assert(d <= std::max(n - 2, 0));
      while (static_cast<int>(picked.size()) < d) {
        const auto c = static_cast<NodeId>(rng.next_below(n));
        if (eligible(c)) picked.insert(c);
      }
      break;
    }
    case SharerPattern::Cluster: {
      // Smallest square region (anchored at a random position) holding d
      // eligible nodes.
      int side = 1;
      while (side * side < d + 2) ++side;
      side = std::min(side, std::min(mesh.width(), mesh.height()));
      const int ax = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(mesh.width() - side + 1)));
      const int ay = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(mesh.height() - side + 1)));
      for (int y = ay; y < ay + side && static_cast<int>(picked.size()) < d;
           ++y) {
        for (int x = ax; x < ax + side && static_cast<int>(picked.size()) < d;
             ++x) {
          const NodeId c = mesh.id_of({x, y});
          if (eligible(c)) picked.insert(c);
        }
      }
      // Fill any remainder uniformly (tiny meshes).
      while (static_cast<int>(picked.size()) < d) {
        const auto c = static_cast<NodeId>(rng.next_below(n));
        if (eligible(c)) picked.insert(c);
      }
      break;
    }
    case SharerPattern::SameColumn: {
      const int hx = mesh.coord_of(home).x;
      std::vector<NodeId> col;
      for (int y = 0; y < mesh.height(); ++y) {
        const NodeId c = mesh.id_of({hx, y});
        if (eligible(c)) col.push_back(c);
      }
      assert(d <= static_cast<int>(col.size()));
      // Closest-first along the column.
      std::sort(col.begin(), col.end(), [&](NodeId a, NodeId b) {
        return mesh.manhattan(a, home) < mesh.manhattan(b, home);
      });
      picked.insert(col.begin(), col.begin() + d);
      break;
    }
    case SharerPattern::SameRow: {
      const int hy = mesh.coord_of(home).y;
      std::vector<NodeId> row;
      for (int x = 0; x < mesh.width(); ++x) {
        const NodeId c = mesh.id_of({x, hy});
        if (eligible(c)) row.push_back(c);
      }
      assert(d <= static_cast<int>(row.size()));
      std::sort(row.begin(), row.end(), [&](NodeId a, NodeId b) {
        return mesh.manhattan(a, home) < mesh.manhattan(b, home);
      });
      picked.insert(row.begin(), row.begin() + d);
      break;
    }
  }
  return {picked.begin(), picked.end()};
}

Trace random_trace(int nprocs, int ops_per_proc, int nblocks,
                   double write_fraction, std::uint64_t seed) {
  TraceBuilder tb(nprocs);
  for (int p = 0; p < nprocs; ++p) {
    // One SplitMix64-derived sub-stream per processor (the same rule the
    // sweep grid uses for per-point seeds), so processor p's stream is a
    // function of (seed, p) alone — independent of nprocs and of any other
    // processor's draws.
    sim::Rng rng(sim::split_seed(seed, static_cast<std::uint64_t>(p)));
    for (int i = 0; i < ops_per_proc; ++i) {
      const BlockAddr a = rng.next_below(static_cast<std::uint64_t>(nblocks));
      if (rng.next_bool(write_fraction)) tb.write(p, a);
      else tb.read(p, a);
    }
  }
  return tb.take();
}

} // namespace mdw::workload
