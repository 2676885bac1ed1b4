// Helpers to assemble validated worms.
//
// All multidestination construction in src/core funnels through
// make_multidest(), which debug-asserts BRCP conformance of the path and
// consistency of the destination list, so a scheme bug cannot silently
// inject an illegal worm.
#pragma once

#include <memory>
#include <vector>

#include "noc/routing.h"
#include "noc/worm.h"

namespace mdw::noc {

/// Flit-length model: headers carry the route; every destination beyond the
/// first adds one header flit (bit-string destination encoding, [37,38]).
struct WormSizing {
  int control_flits = 8;   // base size of a control worm (head+route+tail)
  int data_flits = 40;     // control + one 32-byte cache block
  int per_extra_dest = 1;  // extra header flits per additional destination

  [[nodiscard]] int control_size(int num_dests) const {
    return control_flits + per_extra_dest * (num_dests - 1);
  }
};

/// Base-routed unicast: the hop sequence is derived from (algo, src, dst)
/// and debug-asserted BRCP-conformant on every call.
[[nodiscard]] WormPtr make_unicast(const MeshShape& mesh, RoutingAlgo algo,
                                   VNet vnet, NodeId src, NodeId dst,
                                   int length_flits, TxnId txn,
                                   std::shared_ptr<const Payload> payload);

/// Dynamic adaptive unicast: the path is chosen hop by hop inside the
/// routers, among the directions `algo` permits, by downstream congestion.
/// Only valid for turn-model routings (WestFirst / EastFirst), which stay
/// deadlock-free under per-hop adaptivity without escape channels.
[[nodiscard]] WormPtr make_adaptive_unicast(RoutingAlgo algo, VNet vnet,
                                            NodeId src, NodeId dst,
                                            int length_flits, TxnId txn,
                                            std::shared_ptr<const Payload> payload);

/// Build a multidestination worm over an explicit path.  `dests` must be
/// non-empty, ordered along `path`, unique, and end at path.back().
[[nodiscard]] WormPtr make_multidest(const MeshShape& mesh, RoutingAlgo algo,
                                     WormKind kind, VNet vnet,
                                     std::vector<NodeId> path,
                                     std::vector<DestSpec> dests,
                                     int length_flits, TxnId txn,
                                     std::shared_ptr<const Payload> payload);

/// Instantiate a worm from a previously validated blueprint (a planned
/// i-gather worm, core::build_gather_worm, and the benchmark's planner
/// replay, core/plan_cache.h): identical to make_multidest except that
/// path/dest conformance is NOT re-checked — the blueprint was validated
/// when it was first built.  Every builder here draws its Worm::id from one
/// process-wide counter, so ids are unique.
[[nodiscard]] WormPtr make_from_blueprint(WormKind kind, VNet vnet,
                                          const NodeId* path,
                                          std::size_t path_len,
                                          const DestSpec* dests,
                                          std::size_t num_dests,
                                          int length_flits, TxnId txn,
                                          std::shared_ptr<const Payload> payload);

/// Validation used by make_multidest and the scheme unit tests.
[[nodiscard]] bool worm_is_well_formed(const MeshShape& mesh, RoutingAlgo algo,
                                       const Worm& w);

} // namespace mdw::noc
