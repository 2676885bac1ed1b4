// Flat structure-of-arrays arena backing every router's hot state (DESIGN.md
// section 17).
//
// The cycle kernel's per-tick working set — VC occupancy/route words, flit
// ring storage, consumption-channel state, scheduler/arbitration words — used
// to live scattered across per-Router objects (vectors of InputVc holding
// FlitRings holding unique_ptrs), so a 64x64 tick was dominated by pointer
// chasing.  RouterArena packs it into ONE contiguous 64-byte-aligned
// allocation, split into section-major arrays (all nodes' NodeWords, then all
// nodes' VcHot records, then the VC flit slab, ...), each section's per-node
// stride padded up to a multiple of 64 bytes.  Consequences:
//
//   * every per-(node, port, vc) field is reached by index arithmetic from
//     (node, port, vc): slot = port * vmax + vc, addr = base + node * stride;
//   * each node's records start on a cache line in every section, so no
//     cache line mixes two nodes' records;
//   * the tick loop's state machine words (NodeWords: pending/routed bitmaps,
//     work counters, link bandwidth stamps, round-robin pointers) occupy
//     exactly one cache line per node.
//
// Worm ownership (WormPtr, non-trivial destructor) stays OUTSIDE the byte
// blob in plain per-slot vectors; the hot structs carry a has-owner flag bit
// so the tick loop's free/busy tests never touch the refcounted arrays.
// Router (router.h) is a thin view: a handful of span pointers into this
// arena plus the cold i-ack bank and stats.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "noc/flit_ring.h"
#include "noc/geometry.h"
#include "noc/worm.h"
#include "sim/types.h"

namespace mdw::noc {

struct NocParams;

/// VC state flag bits (VcHot::flags).  The claim bit lives in its own byte
/// (VcHot::claimed), written by the claiming upstream router.
enum : std::uint8_t {
  kVcRouted = 1u << 0,         // head processed at this router
  kVcDrainToBank = 1u << 1,    // deferred gather: flits sink into i-ack bank
  kVcDepositAtTail = 1u << 2,  // GatherDeposit: post count when tail sinks
  kVcDeliverHere = 1u << 3,    // copy flits into the consumption channel
  kVcFinalHere = 1u << 4,      // worm terminates at this router
};

/// Consumption-channel flag bits (ConsHot::flags).
enum : std::uint8_t {
  kConsBusy = 1u << 0,   // a worm is being consumed on this channel
  kConsFinal = 1u << 1,  // consuming at the worm's final destination
};

/// Hot record of one input VC: 16 bytes, four per cache line.  The worm
/// reference itself lives in RouterArena's owner array (same slot index);
/// `claimed` mirrors its null-ness so free() never loads it.  `claimed` is
/// written only by the claiming (upstream) router at allocation commit and
/// cleared at tail departure; `flags` is written only by the owning router.
struct VcHot {
  Cycle ready_at = 0;        // header pipeline gate
  RingIdx ring;              // flit ring occupancy (storage in the flit slab)
  std::int8_t out_port = -1; // allocated output direction (0..3), -1 if none;
                             // a parked head's wanted one (router.h)
  std::int8_t out_vc = -1;
  std::int8_t cons_ch = -1;  // allocated consumption channel, -1 if none
  std::uint8_t flags = 0;    // kVc* bits (owning router only)
  std::uint8_t claimed = 0;  // a worm holds this VC (claim -> tail departure)
  /// 1 + the upstream slot parked until this (full) VC pops a flit; 0 when
  /// none.  Written by the upstream router at park, cleared at the pop, both
  /// in traverse.
  std::uint8_t waiter = 0;

  /// Probed by upstream routers looking for a downstream VC.
  [[nodiscard]] bool free() const { return claimed == 0 && ring.size == 0; }
  [[nodiscard]] bool routed() const { return (flags & kVcRouted) != 0; }
};
static_assert(sizeof(VcHot) == 16);

/// Hot record of one consumption channel (worm reference in the arena's
/// cons-owner array).
struct ConsHot {
  RingIdx ring;
  std::uint8_t flags = 0;  // kCons* bits
  std::uint8_t pad[5] = {};
  [[nodiscard]] bool busy() const { return (flags & kConsBusy) != 0; }
};
static_assert(sizeof(ConsHot) == 8);

/// Per-node tick-loop state machine: exactly one cache line.  Bit s of
/// pending/routed refers to slot s = port * vmax + vc; scanning a word's set
/// bits ascending visits (port, vc) in exactly the port-major order the old
/// sorted pending-head vector and per-port mask array used.
struct alignas(64) NodeWords {
  std::uint64_t pending = 0;  // unrouted head flits awaiting allocation
  std::uint64_t routed = 0;   // VCs holding a worm committed through allocation
  /// Cycle stamp of the last flit sent over each output link (physical
  /// channel bandwidth gate; comparing against `now` replaces a per-cycle
  /// used-this-cycle flag reset).
  Cycle link_used[kNumLinkDirs] = {~Cycle{0}, ~Cycle{0}, ~Cycle{0}, ~Cycle{0}};
  /// Flits resident in this router (input VCs + consumption channels).
  std::int32_t active_work = 0;
  /// Flits buffered in the consumption channels only.
  std::int32_t cons_flits = 0;
  /// Bit p set iff the routed word has a bit in port p's field.
  std::uint8_t ports_mask = 0;
  std::uint8_t rr_port = 0;            // round-robin pointers
  std::uint8_t rr_vc[kNumPorts] = {};
};
static_assert(sizeof(NodeWords) == 64 && alignof(NodeWords) == 64);

/// The arena itself.  Section-major: five parallel arrays indexed by node,
/// each with a 64-byte-multiple per-node stride, in one allocation.
class RouterArena {
public:
  /// Byte offsets/strides of each section; exposed so tests can check the
  /// layout without poking at live networks.
  struct Layout {
    int vmax = 0;            // per-port VC stride (max of link and inj counts)
    int slots = 0;           // slots per node = kNumPorts * vmax
    int vc_cap = 0;          // flits per VC ring
    int cons_n = 0;          // consumption channels per node
    int cons_cap = 0;        // flits per consumption ring
    std::size_t words_off = 0, words_stride = 0;
    std::size_t vc_hot_off = 0, vc_hot_stride = 0;
    std::size_t vc_flit_off = 0, vc_flit_stride = 0;
    std::size_t cons_hot_off = 0, cons_hot_stride = 0;
    std::size_t cons_flit_off = 0, cons_flit_stride = 0;
    std::size_t total_bytes = 0;
  };

  RouterArena() = default;
  RouterArena(const RouterArena&) = delete;
  RouterArena& operator=(const RouterArena&) = delete;
  ~RouterArena() {
    if (buf_ != nullptr) {
      ::operator delete(buf_, std::align_val_t{64});
    }
  }

  /// Pure layout computation (no allocation): lets tests check the layout
  /// for arbitrary mesh/param combinations.
  static Layout compute_layout(int num_nodes, int vcs_total, int inj_vcs_total,
                               int vc_buffer_flits, int consumption_channels,
                               int cons_buffer_flits) {
    const auto round64 = [](std::size_t b) { return (b + 63) & ~std::size_t{63}; };
    Layout l;
    l.vmax = vcs_total > inj_vcs_total ? vcs_total : inj_vcs_total;
    l.slots = kNumPorts * l.vmax;
    l.vc_cap = vc_buffer_flits;
    l.cons_n = consumption_channels;
    l.cons_cap = cons_buffer_flits;
    assert(l.slots <= 64 && "pending/routed are single 64-bit words per node");
    assert(l.vc_cap > 0 && l.vc_cap <= 255 && l.cons_cap > 0 &&
           l.cons_cap <= 255 && "RingIdx indices are 8-bit");
    const auto n = static_cast<std::size_t>(num_nodes);
    l.words_stride = sizeof(NodeWords);
    l.vc_hot_stride = round64(static_cast<std::size_t>(l.slots) * sizeof(VcHot));
    l.vc_flit_stride = round64(static_cast<std::size_t>(l.slots) *
                               static_cast<std::size_t>(l.vc_cap) * sizeof(Flit));
    l.cons_hot_stride =
        round64(static_cast<std::size_t>(l.cons_n) * sizeof(ConsHot));
    l.cons_flit_stride = round64(static_cast<std::size_t>(l.cons_n) *
                                 static_cast<std::size_t>(l.cons_cap) *
                                 sizeof(Flit));
    l.words_off = 0;
    l.vc_hot_off = l.words_off + n * l.words_stride;
    l.vc_flit_off = l.vc_hot_off + n * l.vc_hot_stride;
    l.cons_hot_off = l.vc_flit_off + n * l.vc_flit_stride;
    l.cons_flit_off = l.cons_hot_off + n * l.cons_hot_stride;
    l.total_bytes = l.cons_flit_off + n * l.cons_flit_stride;
    return l;
  }

  /// Allocate and default-construct the hot state for `num_nodes` routers.
  /// Called once at Network construction; never grows afterwards.
  void init(int num_nodes, int vcs_total, int inj_vcs_total,
            int vc_buffer_flits, int consumption_channels,
            int cons_buffer_flits) {
    assert(buf_ == nullptr && "arena is initialized once");
    lay_ = compute_layout(num_nodes, vcs_total, inj_vcs_total, vc_buffer_flits,
                          consumption_channels, cons_buffer_flits);
    num_nodes_ = num_nodes;
    buf_ = static_cast<std::byte*>(
        ::operator new(lay_.total_bytes, std::align_val_t{64}));
    for (NodeId id = 0; id < num_nodes; ++id) {
      new (&words(id)) NodeWords{};
      VcHot* vh = vc_hot(id);
      for (int s = 0; s < lay_.slots; ++s) new (&vh[s]) VcHot{};
      Flit* vf = vc_flits(id);
      for (int i = 0; i < lay_.slots * lay_.vc_cap; ++i) new (&vf[i]) Flit{};
      ConsHot* ch = cons_hot(id);
      for (int c = 0; c < lay_.cons_n; ++c) new (&ch[c]) ConsHot{};
      Flit* cf = cons_flits(id);
      for (int i = 0; i < lay_.cons_n * lay_.cons_cap; ++i) new (&cf[i]) Flit{};
    }
    vc_owner_.assign(
        static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(lay_.slots),
        WormPtr{});
    cons_owner_.assign(static_cast<std::size_t>(num_nodes) *
                           static_cast<std::size_t>(lay_.cons_n),
                       WormPtr{});
  }

  [[nodiscard]] const Layout& layout() const { return lay_; }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int vmax() const { return lay_.vmax; }

  [[nodiscard]] NodeWords& words(NodeId id) {
    return *reinterpret_cast<NodeWords*>(buf_ + lay_.words_off +
                                         stride_mul(id, lay_.words_stride));
  }
  [[nodiscard]] const NodeWords& words(NodeId id) const {
    return *reinterpret_cast<const NodeWords*>(
        buf_ + lay_.words_off + stride_mul(id, lay_.words_stride));
  }
  [[nodiscard]] VcHot* vc_hot(NodeId id) {
    return reinterpret_cast<VcHot*>(buf_ + lay_.vc_hot_off +
                                    stride_mul(id, lay_.vc_hot_stride));
  }
  [[nodiscard]] Flit* vc_flits(NodeId id) {
    return reinterpret_cast<Flit*>(buf_ + lay_.vc_flit_off +
                                   stride_mul(id, lay_.vc_flit_stride));
  }
  [[nodiscard]] ConsHot* cons_hot(NodeId id) {
    return reinterpret_cast<ConsHot*>(buf_ + lay_.cons_hot_off +
                                      stride_mul(id, lay_.cons_hot_stride));
  }
  [[nodiscard]] Flit* cons_flits(NodeId id) {
    return reinterpret_cast<Flit*>(buf_ + lay_.cons_flit_off +
                                   stride_mul(id, lay_.cons_flit_stride));
  }
  [[nodiscard]] WormPtr* vc_owner(NodeId id) {
    return vc_owner_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(lay_.slots);
  }
  [[nodiscard]] WormPtr* cons_owner(NodeId id) {
    return cons_owner_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(lay_.cons_n);
  }

private:
  [[nodiscard]] static std::size_t stride_mul(NodeId id, std::size_t stride) {
    return static_cast<std::size_t>(id) * stride;
  }

  Layout lay_;
  int num_nodes_ = 0;
  std::byte* buf_ = nullptr;
  std::vector<WormPtr> vc_owner_;    // [node * slots + slot]
  std::vector<WormPtr> cons_owner_;  // [node * cons_n + ch]
};

} // namespace mdw::noc
