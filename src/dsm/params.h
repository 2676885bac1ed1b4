// System-wide parameters (paper §6.1.1).
//
// All times are in network cycles of 5 ns: 100 MHz processors (2 cycles per
// processor cycle), 200 Mbyte/s links (one byte-flit per cycle), 20 ns
// router delay (4 cycles).  Controller occupancies and memory latency are
// chosen so the derived clean-read-miss breakdown (bench_miss_latency)
// lands in the DASH / Alewife / FLASH ballpark the paper cites.
#pragma once

#include "core/scheme.h"
#include "noc/router.h"
#include "noc/worm_builder.h"
#include "sim/types.h"

namespace mdw::dsm {

/// Coherence-service-layer knobs (DESIGN.md section 15).  The defaults
/// (0, 0) reproduce the legacy home behaviour exactly: invalidation
/// transactions launch the moment the directory decides one is needed,
/// with no per-home concurrency cap and no merging.
struct SvcParams {
  /// Per-home invalidation pipeline depth: at most this many invalidation
  /// transactions in flight at one home; further writes queue FIFO in the
  /// directory controller.  0 = unbounded (legacy).  1 serializes the home
  /// (the E11s baseline); k > 1 overlaps k transactions.
  int pipeline_depth = 0;
  /// Coalescing window (cycles).  When > 0, an admitted invalidation is
  /// held up to this long; others admitted at the same home in the window
  /// merge with it — one plan over the UNION of their sharer bitmaps, one
  /// multidestination worm wave, one ack wave completing every member.
  /// Effective only with pipeline_depth != 1 (depth 1 admits one at a
  /// time, so there is never a second transaction to merge with).
  Cycle coalesce_window = 0;
};

struct SystemParams {
  int mesh_w = 16;
  int mesh_h = 16;

  core::Scheme scheme = core::Scheme::UiUa;

  /// Consistency model.  false (default): sequential consistency — the home
  /// grants exclusive access only after all invalidation acks arrive [13].
  /// true: release-consistency-style overlap [1] — the exclusive grant is
  /// sent as soon as the i-reserve worms are launched and the acks complete
  /// in the background (the block stays `Waiting` for other requesters
  /// until they do, so writes to one block still serialize).
  bool eager_exclusive_reply = false;

  /// Dynamic per-hop adaptive routing for unicast protocol messages (only
  /// effective under the turn-model schemes, where the base routing offers
  /// a per-hop choice); multidestination worms stay source-planned.
  bool adaptive_unicast = false;

  noc::NocParams noc{};
  noc::WormSizing sizing{};
  SvcParams svc{};

  /// Table size for the benchmark's planner replay (core/plan_cache.h).
  /// The simulator itself plans every transaction from scratch (DESIGN.md
  /// section 12) and never reads this field.
  int plan_cache_entries = 4096;

  double cycle_ns = 5.0;   // one network cycle
  int proc_cycle = 2;      // network cycles per 100 MHz processor cycle

  // Controller / memory latencies (network cycles).
  int cache_access = 4;    // tag + data access at the CC
  int dir_lookup = 6;      // directory read-modify-write at the DC
  int mem_access = 24;     // DRAM block access
  int send_occupancy = 12; // OC cost to compose + launch one message
  int recv_occupancy = 12; // IC cost to accept + decode one message

  // Cache geometry: direct-mapped, 32-byte blocks.
  int cache_lines = 1024;

  [[nodiscard]] int num_nodes() const { return mesh_w * mesh_h; }
  [[nodiscard]] NodeId home_of(BlockAddr a) const {
    return static_cast<NodeId>(a % static_cast<BlockAddr>(num_nodes()));
  }
  [[nodiscard]] noc::RoutingAlgo request_algo() const {
    return core::request_algo_of(scheme);
  }
  [[nodiscard]] noc::RoutingAlgo reply_algo() const {
    return noc::reply_algo_for(request_algo());
  }
  /// VC class for unicast reply worms (east-first traffic must stay in its
  /// own class on the turn-model reply network; see Worm::vc_class).
  [[nodiscard]] int reply_vc_class() const {
    return request_algo() == noc::RoutingAlgo::WestFirst ? 1 : -1;
  }
};

} // namespace mdw::dsm
