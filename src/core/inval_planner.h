// Invalidation-transaction planner: maps a directory entry's presence bits
// onto i-reserve worms, sharer roles, and i-gather worm blueprints, for each
// grouping scheme (DESIGN.md section 3).
//
// The planner runs at the home node when a write request finds a block in
// the Shared state.  It is purely combinational (no simulator state): given
// the sharer set it emits
//   * the request-phase worms the home must inject (in order),
//   * a directive telling each sharer what to do after invalidating its
//     copy (unicast an ack / post to the local i-ack bank / launch a
//     planned i-gather worm), and
//   * the number of acknowledgment *messages* the home will receive
//     (completion itself is detected by counting d individual acks).
//
// The plan is a pure function of (scheme, mesh, home, sharer set).  Its
// transaction-independent parts sit in InvalPattern, held by reference from
// the per-transaction InvalDirective (txn id, block address, requester).
// The simulator plans every transaction afresh, so each pattern has one
// directive; the split lets the replay table in plan_cache.h, a utility the
// benchmark times, stamp one memoized pattern onto many transactions.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/scheme.h"
#include "core/sharer_set.h"
#include "noc/worm_builder.h"

namespace mdw::core {

enum class SharerRole : std::uint8_t {
  UnicastAck,    // send a unicast i-ack worm to the home (UA frameworks)
  PostLocal,     // post the i-ack into the local router's i-ack bank
  LaunchGather,  // post is implicit: launch the planned i-gather worm
};

/// Blueprint of an i-gather worm, built by the planner at the home and
/// carried (conceptually, as part of the invalidation message) to the
/// initiating sharer.
struct GatherPlan {
  NodeId initiator = kInvalidNode;
  std::vector<NodeId> path;
  std::vector<noc::DestSpec> dests;
  int length_flits = 0;
  int vc_class = -1;
  /// Acks this worm will deliver if it terminates at the home; informational.
  int covers = 1;
};

/// The immutable product of planning one (scheme, mesh, home, sharer-set)
/// combination: sharer roles, gather blueprints, and the home identity.
/// Held by shared_ptr so that the replay table in plan_cache.h can stamp one
/// pattern onto several directives; a simulated transaction owns its own.
struct InvalPattern {
  NodeId home = kInvalidNode;
  int total_sharers = 0;        // d
  std::unordered_map<NodeId, SharerRole> roles;
  std::unordered_map<NodeId, int> gather_of;  // sharer -> index into gathers
  std::vector<GatherPlan> gathers;
};

/// Shared payload attached to every request-phase worm of one transaction:
/// the per-transaction fields plus a reference to the immutable pattern.
struct InvalDirective final : noc::Payload {
  TxnId txn = 0;
  NodeId requester = kInvalidNode;
  BlockAddr addr = 0;           // filled in by the protocol layer
  /// Coalesced (merged) transaction: every block this worm invalidates.
  /// Empty for the ordinary single-block case (then `addr` is the block).
  /// The pattern's sharer set is the UNION of the member blocks' sharers;
  /// each recipient invalidates every listed block it holds and acks once,
  /// so the home completes all member transactions on one ack wave
  /// (DESIGN.md section 15).
  std::vector<BlockAddr> merged_addrs;
  std::shared_ptr<const InvalPattern> pattern;

  [[nodiscard]] NodeId home() const { return pattern->home; }
  [[nodiscard]] int total_sharers() const { return pattern->total_sharers; }
  [[nodiscard]] const std::unordered_map<NodeId, SharerRole>& roles() const {
    return pattern->roles;
  }
  [[nodiscard]] const std::unordered_map<NodeId, int>& gather_of() const {
    return pattern->gather_of;
  }
  [[nodiscard]] const std::vector<GatherPlan>& gathers() const {
    return pattern->gathers;
  }
  /// The gather blueprint `sharer` must launch (role == LaunchGather).
  [[nodiscard]] const GatherPlan& gather_for(NodeId sharer) const {
    return pattern->gathers[static_cast<std::size_t>(
        pattern->gather_of.at(sharer))];
  }
};

struct InvalPlan {
  /// Request-phase worms in home-injection order (the home's outgoing
  /// controller serializes these sends).
  std::vector<noc::WormPtr> request_worms;
  std::shared_ptr<InvalDirective> directive;
  /// Ack messages that will arrive at the home (d for UA schemes; the
  /// number of home-terminating gather worms for MA schemes).
  int expected_ack_messages = 0;
  /// Total acknowledgment worms in the network, including hierarchical
  /// deposit gathers that never reach the home (d for UA schemes).
  int total_ack_worms = 0;
};

/// Plan one invalidation transaction.  `sharers` must exclude the home and
/// the requester and be non-empty; the vector overload requires ascending
/// order (both forms then produce identical plans).
[[nodiscard]] InvalPlan plan_invalidation(Scheme scheme,
                                          const noc::MeshShape& mesh,
                                          NodeId home,
                                          const SharerBitmap& sharers,
                                          TxnId txn,
                                          const noc::WormSizing& sizing);
[[nodiscard]] InvalPlan plan_invalidation(Scheme scheme,
                                          const noc::MeshShape& mesh,
                                          NodeId home,
                                          const std::vector<NodeId>& sharers,
                                          TxnId txn,
                                          const noc::WormSizing& sizing);

/// Instantiate an i-gather worm from its blueprint (called by the initiating
/// sharer once its own copy is invalidated; the worm starts carrying that
/// sharer's acknowledgment).
[[nodiscard]] noc::WormPtr build_gather_worm(const GatherPlan& plan, TxnId txn);

} // namespace mdw::core
