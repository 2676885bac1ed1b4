// Application kernels (paper Table 6): Barnes-Hut (128 bodies, 4 steps),
// blocked LU (128x128, 8x8 blocks), All Pairs Shortest Path.
//
// Each function runs the real computation, partitioned over `nprocs`
// logical processors exactly as the parallel version would be, and records
// the shared-memory block accesses each processor performs (plus the
// barriers separating phases).  The returned trace is replayed by
// StreamRunner through a TraceSource; the computation's numerical result is
// returned for validation by the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/trace.h"

namespace mdw::workload {

/// Block-address layout used by the app traces: each app gets a disjoint
/// region so multi-app experiments never alias.
inline constexpr BlockAddr kBodyPosBase = 0x1000;
inline constexpr BlockAddr kBodyVelBase = 0x2000;
inline constexpr BlockAddr kBodyAccBase = 0x3000;
inline constexpr BlockAddr kTreeBase = 0x4000;
inline constexpr BlockAddr kLuBase = 0x8000;
inline constexpr BlockAddr kApsBase = 0xC000;

// --- Barnes-Hut ------------------------------------------------------------

struct BarnesHutResult {
  std::vector<double> x, y;       // final positions
  std::size_t tree_nodes_built = 0;
};

/// 2-D Barnes-Hut N-body with a quadtree and theta-criterion force
/// evaluation.  Tree build is performed by processor 0 (writes the shared
/// tree blocks), force evaluation and updates are partitioned over bodies.
[[nodiscard]] Trace barnes_hut_trace(int nprocs, int nbodies, int steps,
                                     std::uint64_t seed,
                                     BarnesHutResult* result = nullptr);

// --- Blocked LU ------------------------------------------------------------

struct LuResult {
  int n = 0;
  std::vector<double> lu;         // packed LU factors
  double residual = 0.0;          // max |A - L*U|
};

/// Right-looking blocked LU factorization (no pivoting; the matrix is made
/// diagonally dominant) with a 2-D cyclic block-owner map.
[[nodiscard]] Trace lu_trace(int nprocs, int n, int block,
                             std::uint64_t seed, LuResult* result = nullptr);

// --- All Pairs Shortest Path ------------------------------------------------

struct ApspResult {
  int n = 0;
  std::vector<std::uint32_t> dist;  // n x n distance matrix
};

/// Floyd-Warshall with row-partitioned ownership: every processor reads the
/// pivot row each iteration (the classic heavy read-sharing pattern).
[[nodiscard]] Trace apsp_trace(int nprocs, int nverts, std::uint64_t seed,
                               ApspResult* result = nullptr);

} // namespace mdw::workload
