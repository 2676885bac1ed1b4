// Input-buffered wormhole router with virtual channels, multidestination
// (forward-and-absorb) support, consumption channels, and an i-ack buffer
// bank at the router interface.
//
// Microarchitecture (per cycle, orchestrated by Network):
//   1. consumption-channel drain: each of the C consumption channels hands
//      one flit per cycle to the node; a drained tail triggers delivery.
//   2. allocation: the head flit at the front of an input VC (after the
//      router pipeline delay) computes its action at this router (forward /
//      absorb / reserve / gather-pickup / consume) and acquires every
//      resource it needs — downstream VC, consumption channel, i-ack buffer
//      entry — atomically (hold-and-wait on the set it cannot get).
//   3. switch traversal: each input port forwards at most one flit; each
//      output link accepts at most one flit (physical channel bandwidth);
//      forward-and-absorb additionally copies the flit into the allocated
//      consumption channel.
//
// Flits become visible to the next pipeline stage one cycle after they move
// (arrival-cycle gating), so a flit advances at most one hop per cycle.
//
// Parking (DESIGN.md section 9): a head whose only missing resource is an
// output VC, and a routed VC whose downstream VC is full, would fail the
// same way every cycle until a neighbour frees that resource.  Both are
// parked — allocate and traverse skip them — and the neighbour wakes them:
// a tail leaving its input port wakes the heads waiting on that port, a pop
// from a downstream VC wakes the VC waiting on it.  A parked head's stall
// counters still advance on each allocate visit, exactly as the retry did.
//
// Router is a thin VIEW: all hot state (VC records, flit rings, consumption
// channels, the per-node scheduling/arbitration words) lives in the
// Network-owned RouterArena (arena.h), reached through span pointers set at
// construction.  The router object itself keeps only cold state: the i-ack
// bank, stats, and the output-link topology.  Downstream accesses in the
// phase code are index arithmetic into the arena — no pointer chase through
// neighbour Router objects.
#pragma once

#include <array>
#include <utility>

#include "noc/arena.h"
#include "noc/flit_ring.h"
#include "noc/geometry.h"
#include "noc/iack_buffer.h"
#include "noc/worm.h"
#include "sim/types.h"

namespace mdw::noc {

struct NocParams {
  // Two VCs per vnet by default: the turn-model schemes segregate
  // west-first-class and east-first-class gather traffic by VC class.
  int vcs_per_vnet = 2;
  int inj_vcs_per_vnet = 2;    // injection (Local-port) VCs per virtual network
  int vc_buffer_flits = 4;     // input VC buffer depth
  int router_delay = 4;        // header pipeline delay per hop, cycles (20 ns)
  int consumption_channels = 4;    // per router interface ([39]: 4 suffice)
  int cons_buffer_flits = 2;       // consumption channel buffer depth
  int iack_entries = 4;            // i-ack buffer entries per interface

  /// Differential-testing reference: tick every router every cycle (the
  /// original O(W*H) sweep) instead of only the active region.  Both modes
  /// produce bit-identical simulations (tests/test_determinism.cpp compares
  /// them); see DESIGN.md "Scheduling model".
  bool full_sweep = false;

  [[nodiscard]] int vcs_total() const { return kNumVNets * vcs_per_vnet; }
  [[nodiscard]] int inj_vcs_total() const { return kNumVNets * inj_vcs_per_vnet; }
};

/// Aggregate activity counters, kept by each router.
struct RouterStats {
  std::uint64_t flits_forwarded = 0;   // flits sent over an output link
  std::uint64_t flits_consumed = 0;    // flits handed to the local node
  std::uint64_t alloc_stall_cycles = 0;
  std::uint64_t cons_blocked_cycles = 0;  // absorb blocked on consumption ch.
  std::uint64_t bank_blocked_cycles = 0;  // reserve/pickup blocked on bank
};

/// Host work the tick spent at one router (published as net.tick.*).  These
/// count simulator effort, not simulated events: they differ between the
/// kernels and scheduling modes, so no fingerprint includes them.
struct TickWork {
  std::uint64_t drain_visits = 0;     // phase-1 visits (posts + drain)
  std::uint64_t inject_visits = 0;    // phase-2 visits
  std::uint64_t alloc_visits = 0;     // phase-3 visits
  std::uint64_t traverse_visits = 0;  // phase-4 visits
  std::uint64_t alloc_attempts = 0;   // try_allocate_head calls
  std::uint64_t grants = 0;           // ... that succeeded
  std::uint64_t move_attempts = 0;    // try_move_flit calls
  std::uint64_t moves = 0;            // ... that moved a flit
  std::uint64_t head_parks = 0;       // heads parked on an output VC
  std::uint64_t vc_parks = 0;         // VCs parked behind a full VC
};

class Network;

class Router {
public:
  /// `arena` must already be initialized for this network's parameters; the
  /// router captures its spans for node `id`.
  Router(Network& net, RouterArena& arena, NodeId id, const NocParams& p);
  Router(Router&&) noexcept = default;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] IAckBufferBank& bank() { return bank_; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  [[nodiscard]] const TickWork& tick_work() const { return work_; }

  /// Phase 1: drain consumption channels (<=1 flit per channel per cycle).
  void drain_consumption(Cycle now);
  /// Phase 2: route + resource allocation for heads at VC fronts.  Only VCs
  /// with a set bit in the per-node pending word are visited (heads set their
  /// bit on arrival, cleared on successful allocation); the ascending bit
  /// scan is port-major, the exact order of the exhaustive port/VC scan.
  void allocate(Cycle now);
  /// Phase 3: switch traversal; moves flits out of input VCs.
  void traverse(Cycle now);

private:
  friend class Network;

  struct OutLink {
    NodeId nbr = kInvalidNode;
    int nbr_port = -1;  // input port index at the neighbour
    // Cached arena spans of the neighbour (set once at wiring): the storage
    // stays in the arena, these just skip the node-stride multiplies on the
    // traverse/allocate hot paths.
    VcHot* nbr_vhot = nullptr;
    Flit* nbr_vflit = nullptr;
    NodeWords* nbr_words = nullptr;
    Router* nbr_router = nullptr;  // its parking state (wakes)
  };

  [[nodiscard]] int slot(int port, int v) const { return port * vmax_ + v; }
  [[nodiscard]] VcHot& vc(int port, int v) { return vhot_[slot(port, v)]; }
  [[nodiscard]] WormPtr& vc_owner(int port, int v) {
    return vowner_[slot(port, v)];
  }
  [[nodiscard]] RingView vc_ring(int s) {
    return RingView(vflit_ + s * vc_cap_, &vhot_[s].ring, vc_cap_);
  }
  [[nodiscard]] RingView cons_ring(int c) {
    return RingView(cflit_ + c * cons_cap_, &chot_[c].ring, cons_cap_);
  }
  [[nodiscard]] int num_vcs(int port) const {
    return port == static_cast<int>(Dir::Local) ? params_->inj_vcs_total()
                                                : params_->vcs_total();
  }
  /// VC-index range [first, last) usable by worms of `vnet` on `port`.
  /// Parameter-derived only, so it answers for any router in the network.
  [[nodiscard]] std::pair<int, int> vc_range(int port, VNet vnet) const;

  bool try_allocate_head(int port, int s, VcHot& v, Cycle now);
  /// Move one flit out of routed VC `v` if its resources permit this cycle;
  /// returns whether a flit moved (checks and move fused in one pass).
  bool try_move_flit(int port, int vidx, VcHot& v, Cycle now);
  int find_free_cons_channel() const;

  /// A head flit was pushed into (port, v) here: register it for allocation
  /// by setting its pending-word bit (bit order == the old sorted list).
  void note_head_arrival(int port, int v);

  /// A tail left input port `port`, so one of its VCs is free: wake the
  /// upstream neighbour's heads parked on the link into that port.
  void wake_heads_on(int port);

  Network& net_;
  RouterArena* arena_;
  const NocParams* params_;
  NodeId id_;
  // Arena spans for this node (see arena.h for the layout).
  VcHot* vhot_;
  Flit* vflit_;
  ConsHot* chot_;
  Flit* cflit_;
  NodeWords* words_;
  WormPtr* vowner_;
  WormPtr* cowner_;
  int vmax_;
  int vc_cap_;
  int cons_cap_;
  int cons_n_;
  std::uint64_t vc_field_mask_;  // low vmax_ bits: one port's slot field
  /// Parking state (see the header comment).  Bit s = slot s.  Written by
  /// this router, and by a link neighbour's traverse (wakes).
  std::uint64_t parked_heads_ = 0;  // pending heads allocate skips
  std::uint64_t parked_vcs_ = 0;    // routed VCs traverse skips
  /// Park blocked heads and VCs.  False in full-sweep (reference) mode,
  /// which retries every head and VC.
  bool work_driven_;
  std::array<OutLink, kNumLinkDirs> out_;
  RouterStats stats_;
  TickWork work_;
  IAckBufferBank bank_;
};

} // namespace mdw::noc
