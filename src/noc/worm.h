// Worm (wormhole message) descriptor and per-destination actions.
//
// Every message in the system is a worm: a header (carrying the
// source-routed path and the destination list), a payload body, and a tail.
// Multidestination worms list several destinations in path order; the action
// performed at each destination's router interface distinguishes the worm
// types of the paper:
//
//   Deliver            ordinary consumption (final dest of any worm, and
//                      forward-and-absorb at intermediate dests of a
//                      multicast worm)
//   DeliverAndReserve  forward-and-absorb + reserve an i-ack buffer entry
//                      (i-reserve worms of the MI-MA frameworks)
//   ReserveOnly        reserve an i-ack buffer entry without delivering to
//                      the node (used at "column leader" routers by the
//                      hierarchical gather scheme; no consumption channel
//                      needed)
//   GatherPickup       pick up the accumulated i-ack count from the i-ack
//                      buffer; defer (virtual cut-through into the buffer)
//                      when it has not been posted yet (i-gather worms)
//
// Memory model (DESIGN.md section 11): worms are reference-counted
// intrusively and recycled through a WormPool.  The refcount is non-atomic —
// a worm lives and dies on the thread that built it (one Machine runs on one
// thread; the sweep runner gives each worker its own thread-local pool) —
// so claiming/releasing a worm on the router hot path is a plain increment,
// not an atomic RMW as with the std::shared_ptr the seed used.
#pragma once

#include <cstdint>
#include <memory>

#include "noc/geometry.h"
#include "noc/routing.h"
#include "sim/small_vec.h"
#include "sim/types.h"

namespace mdw::noc {

enum class VNet : std::uint8_t { Request = 0, Reply = 1 };
inline constexpr int kNumVNets = 2;

enum class DestAction : std::uint8_t {
  Deliver,
  DeliverAndReserve,
  ReserveOnly,
  GatherPickup,
  /// Final destination of a non-trunk i-gather worm in the hierarchical
  /// scheme: the worm sinks into this router's i-ack bank, posting its
  /// accumulated count there instead of delivering to the node.
  GatherDeposit,
};

struct DestSpec {
  NodeId node = kInvalidNode;
  DestAction action = DestAction::Deliver;
  /// For reservation actions: how many i-ack posts this router must see
  /// before its entry is complete (usually 1; >1 at hierarchical leaders).
  std::uint16_t expected_posts = 1;
};

/// Inline destination capacity: covers every scheme's per-worm destination
/// list on the paper's mesh sizes; longer lists spill to a recycled block.
inline constexpr std::size_t kInlineDests = 8;
using DestVec = sim::SmallVec<DestSpec, kInlineDests>;

/// Opaque payload base; the protocol layer derives its message types from it.
struct Payload {
  virtual ~Payload() = default;
};

enum class WormKind : std::uint8_t {
  Unicast,    // single destination
  Multicast,  // i-reserve / plain multicast: forward-and-absorb at dests
  Gather,     // i-gather: picks up i-acks at dests, delivers total at final
};

[[nodiscard]] inline const char* worm_kind_name(WormKind k) {
  static constexpr const char* names[] = {"unicast", "multicast", "gather"};
  return names[static_cast<int>(k)];
}

class WormPool;

struct Worm {
  WormId id = 0;
  WormKind kind = WormKind::Unicast;
  VNet vnet = VNet::Request;
  TxnId txn = 0;
  NodeId src = kInvalidNode;

  /// Full hop sequence, path[0] == src, path.back() == final destination.
  /// Always non-empty; a self-delivery has path == {src}.
  PathVec path;

  /// Destinations in path order; the final destination is dests.back() and
  /// must equal path.back().  For Unicast worms this has exactly one entry.
  DestVec dests;

  /// Total worm length in flits (header + payload + tail).
  int length_flits = 1;

  /// Virtual-channel class within the worm's vnet, or -1 for any VC.  Used
  /// to segregate west-first-conformant and east-first-conformant gather
  /// traffic on the reply network (mixing the two turn models on one VC
  /// class would reintroduce channel-dependency cycles).
  int vc_class = -1;

  /// Dynamic adaptive unicast: the path is extended hop by hop at each
  /// router, choosing among the directions `adaptive_algo` permits by
  /// downstream buffer occupancy.  Only meaningful for Unicast worms under
  /// a turn-model routing (the only base routings with per-hop choice that
  /// stay deadlock-free without escape channels).
  bool adaptive = false;
  RoutingAlgo adaptive_algo = RoutingAlgo::WestFirst;

  std::shared_ptr<const Payload> payload;

  // --- Runtime state (owned by the network while in flight) -------------
  /// Index into `path` of the router currently holding the header.
  std::size_t head_hop = 0;
  /// Index into `dests` of the next destination not yet reached.
  std::size_t next_dest = 0;
  /// Gather worms: acknowledgments accumulated so far.
  int gathered = 0;
  /// Injection / final-delivery timestamps (cycles), for latency stats.
  Cycle inject_cycle = 0;
  Cycle deliver_cycle = 0;

  // --- Pool linkage (managed by WormPtr / WormPool) ---------------------
  /// Intrusive reference count.  Non-atomic by design: see the memory-model
  /// note at the top of this header.
  std::uint32_t refs = 0;
  /// Owning pool; nullptr for worms allocated outside any pool (deleted on
  /// release instead of recycled).
  WormPool* pool = nullptr;

  [[nodiscard]] NodeId final_dest() const { return path.back(); }

  /// Return the worm to its pristine state while KEEPING the heap capacity
  /// of `path` / `dests` (and the refs/pool linkage).  Called by the pool on
  /// recycle, so a reused worm is indistinguishable from a new one.
  void reset_for_reuse() {
    id = 0;
    kind = WormKind::Unicast;
    vnet = VNet::Request;
    txn = 0;
    src = kInvalidNode;
    path.clear();
    dests.clear();
    length_flits = 1;
    vc_class = -1;
    adaptive = false;
    adaptive_algo = RoutingAlgo::WestFirst;
    payload.reset();
    head_hop = 0;
    next_dest = 0;
    gathered = 0;
    inject_cycle = 0;
    deliver_cycle = 0;
  }
};

/// Out-of-line slow path of WormPtr release: recycle into the owning pool,
/// or delete an unpooled worm.  Defined in worm_pool.cpp.
void release_worm(Worm* w) noexcept;

/// Intrusive smart pointer to a Worm.  Replaces std::shared_ptr<Worm>: no
/// separate control block (the count lives in the worm), no atomic refcount
/// traffic, and destruction recycles the worm through its pool instead of
/// freeing path/dests storage.
class WormPtr {
public:
  constexpr WormPtr() noexcept = default;
  constexpr WormPtr(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)
  /// Adopt a raw worm (takes one reference).
  explicit WormPtr(Worm* w) noexcept : p_(w) {
    if (p_ != nullptr) ++p_->refs;
  }

  WormPtr(const WormPtr& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs;
  }
  WormPtr(WormPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  WormPtr& operator=(const WormPtr& o) noexcept {
    if (p_ != o.p_) {
      drop();
      p_ = o.p_;
      if (p_ != nullptr) ++p_->refs;
    }
    return *this;
  }
  WormPtr& operator=(WormPtr&& o) noexcept {
    if (this != &o) {
      drop();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  WormPtr& operator=(std::nullptr_t) noexcept {
    drop();
    return *this;
  }

  ~WormPtr() { drop(); }

  [[nodiscard]] Worm* get() const noexcept { return p_; }
  [[nodiscard]] Worm& operator*() const noexcept { return *p_; }
  [[nodiscard]] Worm* operator->() const noexcept { return p_; }
  [[nodiscard]] explicit operator bool() const noexcept { return p_ != nullptr; }
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return p_ != nullptr ? p_->refs : 0;
  }

  friend bool operator==(const WormPtr& a, const WormPtr& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const WormPtr& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

private:
  void drop() noexcept {
    if (p_ != nullptr && --p_->refs == 0) release_worm(p_);
    p_ = nullptr;
  }

  Worm* p_ = nullptr;
};

} // namespace mdw::noc
