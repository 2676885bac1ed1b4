// Memoized invalidation plans keyed on (scheme, home, sharer set): a replay
// utility kept for the benchmark's planner probe (perfbench/), which times
// planning through this table against plain plan_invalidation().  The
// simulator does not use it; every transaction is planned from scratch
// (DESIGN.md section 12).
//
// plan_invalidation() is a pure function of (scheme, mesh, home, sharer
// set), so the table stores the immutable product of one planning pass:
//   * the shared InvalPattern (roles, gather blueprints, home, d), and
//   * one WormBlueprint per request-phase worm (kind, path, dests, length).
// A hit stamps a fresh InvalDirective (txn) onto the shared pattern and
// instantiates the request worms via noc::make_from_blueprint, which draws
// worm ids from the same counter in the same per-plan order as fresh
// planning, so a replayed plan is value-identical to a fresh one.
//
// Bounded open-addressed table, short linear probe window, second-chance
// (clock) eviction inside the window, full-key verification (bitmap
// equality, not just hash equality) on every hit.  `entries = 0` disables
// the cache: every call falls through to the planner untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/inval_planner.h"
#include "core/sharer_set.h"

namespace mdw::core {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class PlanCache {
public:
  /// `entries` bounds the table (rounded up to a power of two); 0 disables
  /// memoization entirely (get_or_build always runs the planner and the
  /// stats stay untouched).
  explicit PlanCache(int entries);

  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }

  /// Return the plan for this transaction: replayed from the cache when the
  /// (scheme, home, sharers) key was planned before, freshly planned (and
  /// memoized) otherwise.  Either way the result is value-identical to a
  /// direct plan_invalidation() call with the same txn.
  [[nodiscard]] InvalPlan get_or_build(Scheme scheme,
                                       const noc::MeshShape& mesh, NodeId home,
                                       const SharerBitmap& sharers, TxnId txn,
                                       const noc::WormSizing& sizing);

private:
  static constexpr std::size_t kProbeWindow = 8;

  /// Immutable recipe for one request-phase worm of a memoized plan.
  struct WormBlueprint {
    noc::WormKind kind = noc::WormKind::Unicast;
    std::vector<NodeId> path;
    std::vector<noc::DestSpec> dests;
    int length_flits = 0;
  };

  struct Slot {
    bool used = false;
    bool ref = false;
    std::uint64_t hash = 0;
    Scheme scheme{};
    NodeId home = kInvalidNode;
    SharerBitmap sharers;
    std::shared_ptr<const InvalPattern> pattern;
    std::vector<WormBlueprint> request_worms;
    int expected_ack_messages = 0;
    int total_ack_worms = 0;
  };

  static std::uint64_t key_hash(Scheme scheme, NodeId home,
                                const SharerBitmap& sharers);
  [[nodiscard]] InvalPlan replay(const Slot& s, TxnId txn) const;

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  PlanCacheStats stats_;
};

} // namespace mdw::core
