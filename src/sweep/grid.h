// Declarative experiment grids for the paper's evaluation sweeps.
//
// A SweepGrid names the axes of a parameter study — grouping schemes, mesh
// sizes, sharer counts, invalidation patterns, concurrency levels, and
// whole-SystemParams variants — and expands their cross product into a flat
// list of SweepPoints.  Every point is an independent simulation: it carries
// a fully resolved dsm::SystemParams and its own seed, derived from the
// grid's base_seed and the point's index (SplitMix64), NEVER from wall-clock
// time or execution order.  Results are therefore identical whether points
// run serially, across 8 threads, or shuffled — the property the
// ThreadPoolRunner and tests/test_sweep.cpp lean on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "dsm/params.h"
#include "workload/generators.h"
#include "workload/synthetic.h"

namespace mdw::sweep {

/// SplitMix64 over (base_seed, index): the default per-point seed rule.
/// Distinct indices give uncorrelated seeds; the result depends only on the
/// two inputs, so per-point streams are independent of worker count and
/// execution order.  The same rule (sim::split_seed) derives per-processor
/// streams inside the workload generators.
[[nodiscard]] constexpr std::uint64_t derive_point_seed(std::uint64_t base_seed,
                                                        std::uint64_t index) {
  return sim::split_seed(base_seed, index);
}

/// A named dsm::SystemParams override (e.g. {"adaptive", params-with-
/// adaptive_unicast}).  The variant's mesh/scheme fields are overwritten by
/// the point's own axes during expansion.
struct ParamsVariant {
  std::string name;
  dsm::SystemParams params{};
};

/// One fully resolved grid cell.  The i_* members are the point's indices
/// into the owning grid's axis vectors (scheme innermost), which is how the
/// pivot helpers find a point without searching.
struct SweepPoint {
  std::size_t index = 0;

  core::Scheme scheme = core::Scheme::UiUa;
  int mesh = 16;  // k (meshes are k x k)
  int d = 8;      // resolved sharer count (a <=0 axis entry resolves to k)
  workload::SharerPattern pattern = workload::SharerPattern::Uniform;
  int concurrent = 0;  // 0: isolated transactions; >0: hot-spot mode
  int rounds = 3;      // hot-spot rounds (ignored when concurrent == 0)
  int repetitions = 8;
  std::uint64_t seed = 0;
  dsm::SystemParams params{};  // variant base with mesh/scheme applied

  /// Streaming-workload mode (gen != None): the point replays a synthetic
  /// generator stream via StreamRunner instead of the controlled
  /// invalidation harnesses.  `d` becomes the accessor-group size and
  /// `pattern` the group placement geometry.
  workload::GenKind gen = workload::GenKind::None;
  std::uint64_t gen_ops = 0;     // ops per processor
  std::uint64_t gen_warmup = 0;  // warmup accesses before steady state
  std::uint32_t gen_blocks = 0;  // shared-block pool size

  std::size_t i_gen = 0, i_variant = 0, i_pattern = 0, i_concurrency = 0,
              i_mesh = 0, i_sharers = 0, i_scheme = 0;
};

/// Axis declaration.  expand() walks the cross product with the generator
/// axis outermost and scheme innermost:
///   gen > variant > pattern > concurrency > mesh > sharers > scheme
/// so a table row (one d or mesh value) is a contiguous run of scheme
/// columns, matching the bench table layout.  The default gens axis is the
/// singleton {None} (controlled-invalidation mode).
struct SweepGrid {
  std::vector<core::Scheme> schemes{std::begin(core::kAllSchemes),
                                    std::end(core::kAllSchemes)};
  std::vector<int> meshes{16};
  std::vector<int> sharers{8};  // entries <= 0 mean "d = k" (proportional)
  std::vector<workload::SharerPattern> patterns{
      workload::SharerPattern::Uniform};
  std::vector<int> concurrency{0};  // 0 = single-transaction mode
  std::vector<ParamsVariant> variants{ParamsVariant{}};
  std::vector<workload::GenKind> gens{workload::GenKind::None};
  int rounds = 3;  // hot-spot rounds for concurrent > 0 points
  int repetitions = 8;
  std::uint64_t base_seed = 1;
  // Streaming-point knobs (gen != None), copied onto every stream point.
  std::uint64_t gen_ops_per_proc = 200;
  std::uint64_t gen_warmup_accesses = 2048;
  std::uint32_t gen_blocks = 512;

  /// Optional seed rule override, evaluated on the otherwise-complete point
  /// (seed not yet set).  Must depend only on the point's coordinates.  The
  /// migrated benches use this to pin their pre-migration seed formulas;
  /// nullptr selects derive_point_seed(base_seed, index).
  std::uint64_t (*seed_fn)(const SweepGrid&, const SweepPoint&) = nullptr;

  [[nodiscard]] std::size_t num_points() const {
    return gens.size() * variants.size() * patterns.size() *
           concurrency.size() * meshes.size() * sharers.size() *
           schemes.size();
  }

  /// Flat index of a cell from its axis indices (expansion nest order).
  [[nodiscard]] std::size_t flat_index(std::size_t i_gen,
                                       std::size_t i_variant,
                                       std::size_t i_pattern,
                                       std::size_t i_concurrency,
                                       std::size_t i_mesh,
                                       std::size_t i_sharers,
                                       std::size_t i_scheme) const {
    return (((((i_gen * variants.size() + i_variant) * patterns.size() +
               i_pattern) *
                  concurrency.size() +
              i_concurrency) *
                 meshes.size() +
             i_mesh) *
                sharers.size() +
            i_sharers) *
               schemes.size() +
           i_scheme;
  }

  /// Cross-product expansion; out[i].index == i.
  [[nodiscard]] std::vector<SweepPoint> expand() const;
};

/// Scheme / pattern names as accepted by the CLI axis specs (the same
/// spellings scheme_name / pattern_name print).  Return false on no match.
bool scheme_from_name(const std::string& name, core::Scheme& out);
bool pattern_from_name(const std::string& name,
                       workload::SharerPattern& out);

} // namespace mdw::sweep
