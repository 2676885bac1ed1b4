// Whole-network model: a W x H mesh of wormhole routers plus one network
// interface (NI) per node.
//
// The Network is a sim::Tickable: each cycle it runs the three router phases
// over all routers (with a rotating start index so allocation arbitration is
// fair across nodes) and services the per-node injection queues.  The
// sequential tick is work-driven (DESIGN.md section 9): the drain, injection
// and allocation phases visit only the routers their work masks mark, in the
// exhaustive sweep's order, and the routers park heads and VCs that cannot
// move until a neighbour frees what they wait for (router.h).
//
// With NocParams::shards > 1 the tick runs the sharded parallel kernel
// (DESIGN.md sections 14 and 16): the mesh is cut into row strips, each
// owned by one thread of a persistent sim::ShardPool, with two
// sim::ShardBarrier rounds per tick (after the fused drain/inject/allocate
// block, and after traverse).  Per-shard counter deltas and a per-shard
// delivery mailbox are folded/replayed deterministically in the barrier
// serial sections, and the traverse phase runs in diagonal-front order with
// cross-strip progress waits, so the result is bit-identical to the
// sequential kernel.
//
// Quiescence fast-forward (both kernels): a tick in which nothing acted,
// nothing was blocked on a resource, and every pending flit sits behind a
// known future time gate arms a fast-forward window — simulated time jumps
// to the earliest gate (via an Engine wake request) and the skipped ticks'
// only side effects (rotation and round-robin pointer bumps) are replayed
// arithmetically on resume.  Results are bit-identical with the feature on
// or off (NocParams::fast_forward, MDW_NO_FF).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "noc/arena.h"
#include "noc/route_cache.h"
#include "noc/router.h"
#include "noc/routing.h"
#include "noc/shard_plan.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "sim/engine.h"
#include "sim/ring_queue.h"
#include "sim/shard.h"
#include "sim/stats.h"

namespace mdw::noc {

/// Per-node network interface state.  Both queues are growable rings: the
/// storage follows the occupancy high-water mark and is then retained, so
/// steady-state injection/retry traffic performs no allocation (std::deque
/// churned chunk nodes here on every enqueue/dequeue wave).
struct NetIface {
  /// Worms waiting to enter the router's Local port, per virtual network.
  std::array<sim::RingQueue<WormPtr>, kNumVNets> inject_q;
  /// Worm currently streaming flits into a Local input VC, per Local VC.
  struct Streaming {
    WormPtr worm;
    int flits_pushed = 0;
  };
  std::vector<Streaming> streaming;
  /// i-ack posts that found the bank full and must retry.
  sim::RingQueue<std::pair<TxnId, int>> pending_posts;
  /// Worms queued in inject_q plus worms mid-stream: lets service_injection
  /// and node_has_work skip the per-VC scan when the NI is idle.
  int inj_work = 0;
};

struct NetworkStats {
  std::uint64_t worms_injected = 0;
  std::uint64_t worms_delivered = 0;       // final-destination deliveries
  std::uint64_t absorb_deliveries = 0;     // intermediate-destination copies
  std::uint64_t link_flit_hops = 0;        // flits crossing inter-router links
  std::uint64_t gather_deferred = 0;       // gather worms parked in a bank
  std::uint64_t gather_deposits = 0;       // gather worms ending in a bank
  obs::SamplerHandle worm_latency;         // inject -> final delivery
                                           // (registry histogram "worm_latency")
};

class Network : public sim::Tickable {
public:
  using DeliveryHandler = std::function<void(NodeId where, const WormPtr&)>;

  /// `metrics` is the registry the network publishes into (per-Machine when
  /// protocol-driven); when nullptr the network owns a private one.
  Network(sim::Engine& eng, const MeshShape& mesh, const NocParams& params,
          obs::MetricsRegistry* metrics = nullptr);
  ~Network() override;

  [[nodiscard]] const MeshShape& mesh() const { return mesh_; }
  [[nodiscard]] const NocParams& params() const { return params_; }
  [[nodiscard]] Router& router(NodeId id) {
    return routers_[static_cast<std::size_t>(id)];
  }
  /// The flat hot-state arena every router views into (see arena.h).
  [[nodiscard]] RouterArena& arena() { return arena_; }
  [[nodiscard]] NetworkStats& stats() { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const obs::LinkHeatmap& heatmap() const { return heatmap_; }
  /// Memoized unicast routes (sized by NocParams::route_cache_entries);
  /// shared by every protocol-level make_unicast call on this network.
  [[nodiscard]] RouteCache& route_cache() { return route_cache_; }

  /// Opt-in event tracing (worm spans, i-ack bank occupancy); nullptr off.
  /// Tracing hooks fire on the shard threads, so a non-null writer makes
  /// tick() fall back to the (bit-identical) sequential kernel.
  void set_trace_writer(obs::TraceWriter* t) { tracer_ = t; }
  [[nodiscard]] obs::TraceWriter* tracer() const { return tracer_; }

  /// Called once per final or intermediate `Deliver` completion.
  void set_delivery_handler(DeliveryHandler h) { deliver_ = std::move(h); }

  /// Opt-in parallel mailbox replay for the sharded kernel: each shard runs
  /// the delivery handler over its own mailbox (its strip's nodes) with
  /// engine scheduling staged per delivery; the order-sensitive effects —
  /// latency samples, in-flight accounting, staged-event queue insertion —
  /// are then committed serially in the canonical cross-shard merge order,
  /// so results stay bit-identical.  Callers must guarantee the handler only
  /// touches per-node state and the engine (true for dsm::Machine); the
  /// default (off) runs the whole handler serially in the merge.
  void set_parallel_replay(bool on) { parallel_replay_ = on; }
  [[nodiscard]] bool parallel_replay() const { return parallel_replay_; }

  /// Queue `worm` for injection at its source node.  Self-deliveries
  /// (path == {src}) complete immediately through the delivery handler.
  void inject(const WormPtr& worm);

  /// Post an invalidation acknowledgment into node `at`'s i-ack bank.  If a
  /// deferred gather worm completes, it is re-injected automatically.  Full
  /// banks are retried every cycle by the NI.
  void post_iack(NodeId at, TxnId txn, int count);

  /// Number of worms injected but not yet fully delivered/absorbed.
  [[nodiscard]] std::uint64_t worms_in_flight() const {
    return static_cast<std::uint64_t>(cnt_.in_flight);
  }

  /// Per-link flit counts (for hot-spot analysis): indexed (node, dir).
  [[nodiscard]] std::uint64_t link_flits(NodeId n, Dir d) const {
    return heatmap_.hops(n, static_cast<int>(d));
  }

  bool tick(Cycle now) override;

  // --- sharded-kernel introspection --------------------------------------
  /// Effective shard count after clamping to the mesh height (1 = the
  /// sequential kernel).
  [[nodiscard]] int shards() const { return plan_.shards; }
  /// The shard whose strip owns node `id`'s router.
  [[nodiscard]] int shard_of(NodeId id) const {
    return plan_.shard_of[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ShardPlan& shard_plan() const { return plan_; }
  /// Recompute the strip partition from observed occupancy (heatmap link
  /// traffic + scheduled-router population per row), minimising the hottest
  /// strip via the cost-model compute_shard_plan overload.  Callable only
  /// between ticks; the shard count is unchanged, and since any contiguous
  /// row partition is bit-identical, so is the simulation.  No-op for the
  /// sequential kernel.
  void rebalance_shards();
  /// Publish per-shard tick counters (barrier/order wait spins, routers
  /// traversed), the network fast-forward counters and the routers' summed
  /// tick work (net.tick.*, see TickWork) into the registry.
  void publish_shard_metrics();
  /// Spin iterations shard `s` spent inside tick barriers (shards > 1 only).
  [[nodiscard]] std::uint64_t shard_barrier_spins(int s) const {
    return shard_ctx_[static_cast<std::size_t>(s)].barrier_spins;
  }
  /// Simulated cycles skipped by quiescence fast-forward, and the number of
  /// windows armed.
  [[nodiscard]] std::uint64_t ff_cycles() const { return ff_cycles_; }
  [[nodiscard]] std::uint64_t ff_events() const { return ff_events_; }

  // --- used by Router -----------------------------------------------------
  void count_link_flit(NodeId from, Dir d) {
    if (sharded_active_) {
      ++tls_shard_->delta.link_flit_hops;
    } else {
      ++stats_.link_flit_hops;
    }
    heatmap_.record_hop(from, static_cast<int>(d));
  }
  /// A head flit failed allocation waiting for the outgoing link (from, d).
  void count_link_stall(NodeId from, Dir d) {
    heatmap_.record_stall(from, static_cast<int>(d));
  }
  /// Emit an i-ack bank occupancy counter sample (call only when tracing).
  /// Counter names are precomputed per node: occupancy samples fire on the
  /// allocation path, where a string build per sample would be hot.
  void trace_bank_occupancy(NodeId at, int in_use, Cycle now) {
    tracer_->counter(bank_counter_names_[at], now, at,
                     static_cast<double>(in_use));
  }
  /// Takes the worm by value so a consumption channel can hand over its
  /// reference with zero refcount traffic — required by the sharded kernel,
  /// where copies of a multidestination worm drain on several shard threads
  /// in the same phase and the refcount is deliberately non-atomic.
  void on_delivery(NodeId where, WormPtr worm, bool final_dest, Cycle now);
  void on_gather_deferred() {
    if (sharded_active_) {
      ++tls_shard_->delta.gather_deferred;
    } else {
      ++stats_.gather_deferred;
    }
  }
  /// A tail flit of an intermediate-destination (absorb) copy reached the
  /// consumption channel.
  void on_absorb_delivery() {
    if (sharded_active_) {
      ++tls_shard_->delta.absorb_deliveries;
    } else {
      ++stats_.absorb_deliveries;
    }
  }
  /// A non-trunk gather worm finished by sinking into `at`'s i-ack bank.
  void on_gather_deposit(NodeId at, const WormPtr& worm);
  /// Live-flit accounting, used for cheap global activity detection.
  void on_flit_removed() { --counters().live_flits; }
  void on_flit_copied() { ++counters().live_flits; }
  /// Phase-work accounting: consumption-channel flits and unrouted heads.
  /// Alongside the global totals (tick()'s phase gates) the sharded kernel
  /// keeps per-owner-shard counts, so each shard gates its fused phase
  /// sweeps on its own strip's work alone.  A consumption flit only ever
  /// changes at its own router (executing shard == owner); a pending head
  /// can be created cross-shard during traverse, which routes through the
  /// executor's transfer array, folded at the end-of-tick barrier.
  void on_cons_flit(NodeId id, int delta) {
    counters().cons_flits_total += delta;
    if (delta > 0) mark_work(drain_words_, id);
    if (gates_on_) {
      shard_ctx_[plan_.shard_of[static_cast<std::size_t>(id)]].work_cons +=
          delta;
    }
  }
  void on_pending_head(NodeId id, int delta) {
    counters().pending_heads_total += delta;
    if (delta > 0) mark_work(alloc_words_, id);
    if (!gates_on_) return;
    const auto owner = plan_.shard_of[static_cast<std::size_t>(id)];
    if (sharded_active_ && tls_shard_->index != owner) {
      tls_shard_->heads_xfer[owner] += delta;
    } else {
      shard_ctx_[owner].work_heads += delta;
    }
  }
  // --- quiescence fast-forward hooks (see header comment) ------------------
  /// Network state changed this tick (flit moved, post accepted, allocation
  /// succeeded, ...): the tick is not skippable.
  void ff_note_acted() {
    if (!ff_on_) return;
    if (sharded_active_) {
      tls_shard_->ff_acted = true;
    } else {
      ff_acted_ = true;
    }
  }
  /// An allocation stalled on a resource (not on time): its stall counters
  /// and heatmap records advance every cycle, so the tick cannot be skipped
  /// without diverging stats.
  void ff_note_blocked() {
    if (!ff_on_) return;
    if (sharded_active_) {
      tls_shard_->ff_blocked = true;
    } else {
      ff_blocked_ = true;
    }
  }
  /// Some pending work becomes actionable at cycle `when` (arrival or
  /// pipeline gate): a fast-forward window may jump at most there.
  void ff_gate(Cycle when) {
    if (!ff_on_) return;
    if (sharded_active_) {
      if (when < tls_shard_->ff_next) tls_shard_->ff_next = when;
    } else if (when < ff_next_) {
      ff_next_ = when;
    }
  }
  /// A work counter at node `id` just reached zero: queue it for the
  /// end-of-tick deschedule check.  Only these transition points can turn
  /// node_has_work false, so checking the queued candidates is equivalent to
  /// re-checking every scheduled router each cycle (duplicates are harmless —
  /// the check is idempotent).
  void note_maybe_idle(NodeId id) {
    if (full_sweep_) return;
    if (sharded_active_) {
      tls_shard_->idle_checks.push_back(id);
    } else {
      idle_checks_.push_back(id);
    }
  }
  /// Put router `id` on the active worklist (no-op if already there, or in
  /// full-sweep mode).  Called on injection, incoming flits, and i-ack
  /// posts.  During a tick the router is spliced into the current sweep at
  /// its rotating-arbitration position, so activity discovered mid-cycle is
  /// handled exactly when the exhaustive sweep would have reached it.
  /// Inline two-word fast path: dense traffic re-wakes already-scheduled
  /// routers almost every flit, so the `scheduled` test must not cost a
  /// call.  The overload taking `words` serves callers that already hold
  /// the node's cached NodeWords (Router::try_move_flit via OutLink).
  void wake_router(NodeId id) { wake_router(id, arena_.words(id)); }
  void wake_router(NodeId id, NodeWords& w) {
    if (full_sweep_ || w.scheduled) return;
    // (The scheduled flag needs no atomicity: all of a router's wakers sit
    // within Manhattan distance 1 of it, and the traverse front order
    // separates any two actors within distance 2 with a release/acquire
    // progress edge.)
    w.scheduled = true;
    mark_work(sched_words_, id);
  }

  /// True while the node can make progress without an external wake: flits
  /// resident in the router, posts to retry, or worms queued/streaming at
  /// the NI.  A false return means the router may be descheduled.
  [[nodiscard]] bool node_has_work(NodeId id) const;

  /// Active-region vs exhaustive-sweep scheduling (differential testing).
  [[nodiscard]] bool full_sweep() const { return full_sweep_; }

private:
  static constexpr Cycle kNoGate = std::numeric_limits<Cycle>::max();

  /// Global tick-gate and phase-gate counters.  During a sharded tick every
  /// helper above routes its update into the calling shard's delta block
  /// (via counters()); the deltas are folded into this canonical copy at
  /// each phase barrier, so phase-gate reads see exactly the values the
  /// sequential kernel would.
  struct NetCounters {
    std::int64_t in_flight = 0;        // worms injected, not yet delivered
    std::int64_t live_flits = 0;       // flits resident in any buffer
    std::int64_t queued_worms = 0;     // queued or still streaming in
    std::int64_t pending_posts = 0;
    std::int64_t cons_flits_total = 0;     // flits in consumption channels
    std::int64_t pending_heads_total = 0;  // heads awaiting allocation
    // Stat deltas (folded into NetworkStats, shard mode only).
    std::int64_t link_flit_hops = 0;
    std::int64_t gather_deferred = 0;
    std::int64_t gather_deposits = 0;
    std::int64_t absorb_deliveries = 0;
  };

  /// A consumption-channel delivery deferred to the end-of-phase-block
  /// barrier.  The worm reference is moved in and moved out: no refcount
  /// traffic on the shard threads.
  struct DeliveryRec {
    NodeId where = 0;
    WormPtr worm;
    bool final_dest = false;
  };

  /// Per-shard working state, cache-line separated.  The work_* gate
  /// counters are single-writer: the owning shard's executor during a tick
  /// (cross-shard head arrivals detour through heads_xfer), the main thread
  /// in between.
  struct alignas(64) ShardCtx {
    NetCounters delta;
    int index = 0;
    // Own-strip phase work (gates for the fused phase-1..3 block).
    std::int64_t work_posts = 0;
    std::int64_t work_cons = 0;
    std::int64_t work_qworms = 0;
    std::int64_t work_heads = 0;
    /// Pending heads this executor created in other shards' strips during
    /// traverse, by owner; folded into work_heads at the end-of-tick barrier.
    std::vector<std::int64_t> heads_xfer;
    std::vector<DeliveryRec> deliveries;  // per-tick mailbox, key order
    std::size_t replay_cursor = 0;        // merge cursor into `deliveries`
    /// Worm references released during the fused phase 1-3 block, parked
    /// here by move and dropped in barrier A's serial section: the worm's
    /// refcount is deliberately non-atomic, and a mid-block drop (e.g. the
    /// source NI releasing its queue reference on the tail-injection cycle)
    /// can race the head-holding shard's concurrent reference copy in
    /// allocate on the very same worm.  Increments need no such deferral:
    /// within one tick every incrementing site (injection start, head
    /// allocation) is exclusive to a single shard per worm.
    std::vector<WormPtr> deferred_free;
    // Parallel-replay staging: events scheduled by the delivery handler for
    // deliveries[i] occupy staged[staged_bounds[i-1] .. staged_bounds[i]).
    sim::Engine::StageBuffer staged;
    std::vector<std::uint32_t> staged_bounds;
    std::vector<NodeId> idle_checks;
    // Fast-forward eligibility for this shard's slice of the tick.
    bool ff_acted = false;
    bool ff_blocked = false;
    Cycle ff_next = kNoGate;
    std::uint64_t barrier_spins = 0;  // spin iterations inside barriers
    std::uint64_t order_spins = 0;    // spin iterations in traverse waits
    std::uint64_t ticks = 0;
    std::uint64_t routers_traversed = 0;
  };

  struct alignas(64) PaddedAtomicInt {
    std::atomic<int> v{-1};
  };

  [[nodiscard]] NetCounters& counters() {
    return sharded_active_ ? tls_shard_->delta : cnt_;
  }

  void service_injection(NodeId n, Cycle now);
  void try_pending_posts(NodeId n);
  void reinject(NodeId at, WormPtr worm);
  /// The sequential body of on_delivery (stats, latency, in-flight, the
  /// delivery handler); in sharded mode this runs in the phase-block
  /// barrier's serial section, in key order across all shards' mailboxes.
  void commit_delivery(NodeId where, const WormPtr& worm, bool final_dest,
                       Cycle now);

  // --- quiescence fast-forward ---------------------------------------------
  /// End-of-tick check (sequential kernels): arm a window if eligible.
  /// Returns the tick()'s return value (false when armed: the tick was
  /// provably a no-op and the run loop should jump).
  bool ff_epilogue(Cycle now);
  void arm_fast_forward(Cycle now, Cycle next);
  /// First real tick after a window: replay the skipped ticks' rotation and
  /// round-robin bumps arithmetically, disarm.
  void ff_resume(Cycle now);
  /// Barrier-B serial section: fold the per-shard eligibility and arm.
  void decide_fast_forward(Cycle now);

  // --- sharded kernel (network_shard.cpp side of the class) ---------------
  bool tick_sharded(Cycle now);
  void shard_main(int s);
  void shard_traverse_stage(int s, bool early, int start, Cycle now,
                            PaddedAtomicInt* progress);
  /// Pre-late-stage wait replacing the mid-traverse barrier: a shard whose
  /// late-stage rows reach the rotation seam waits for the full early-stage
  /// completion of the (at most three) shards owning rows start/W .. +2 —
  /// the only rows whose early cells can interact with late cells.
  void seam_wait(int s, int start);
  void fold_shard_deltas();
  void fold_head_transfers();
  /// Parallel half of delivery replay (opt-in): run the handler over the own
  /// mailbox with engine scheduling staged per delivery.
  void replay_own_deliveries(Cycle now);
  /// Serial half (barrier serial section): canonical cross-shard merge
  /// committing stats/latency/in-flight and flushing staged events — or,
  /// without parallel replay, running the whole handler here.
  void finish_deliveries(Cycle now);
  /// Visit the scheduled routers of shard `s`'s strip in (id - start) mod n
  /// order (all routers in full-sweep mode).  Bitmap words are re-read with
  /// atomic loads: words can straddle strip boundaries and other shards
  /// wake their own routers concurrently.
  template <class F>
  void sweep_own(int s, int start, F&& f);
  template <class F>
  void shard_scan_range(int lo, int hi, F&& f);
  [[nodiscard]] bool sched_bit_atomic(NodeId id) {
    const std::atomic_ref<std::uint64_t> word(
        sched_words_[static_cast<std::size_t>(id) >> 6]);
    return (word.load(std::memory_order_relaxed) >> (id & 63)) & 1u;
  }

  sim::Engine& eng_;
  MeshShape mesh_;
  NocParams params_;
  RouteCache route_cache_;
  /// Hot router state, one flat SoA allocation (declared before routers_:
  /// the router views point into it and must be destroyed first).
  RouterArena arena_;
  std::vector<Router> routers_;
  std::vector<NetIface> ifaces_;
  DeliveryHandler deliver_;
  NetworkStats stats_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  // set iff not external
  obs::MetricsRegistry* metrics_;
  obs::LinkHeatmap heatmap_;
  obs::TraceWriter* tracer_ = nullptr;
  /// Hot per-event state on its own cache lines: every flit move loads
  /// sharded_active_ (and now the ff/gate flags) and bumps a gate counter,
  /// so keep the flags, the six gate counters (first 48 bytes of
  /// NetCounters), and the rotation cursor away from the cold members.
  alignas(64) bool sharded_active_ = false;
  bool gates_on_ = false;   // per-shard work gates maintained (shards > 1)
  bool ff_on_ = false;      // fast-forward enabled
  Cycle ff_until_ = 0;      // armed window: ticks before this cycle skip
  NetCounters cnt_;
  int rotate_ = 0;

  /// Visit every router whose bit is set in `words` (sched_words_ or a
  /// phase work mask) in (id - start) mod n order — the order the exhaustive
  /// sweep uses.  The bitmap is re-read word by word, so a router woken
  /// mid-phase at a position the cursor has not yet passed is visited this
  /// phase (exactly when the full sweep would have reached it); one woken
  /// behind the cursor waits for the next phase's rescan, which is what the
  /// full sweep would have done too (it passes an empty router).
  template <class F>
  void for_each_set(const std::vector<std::uint64_t>& words, int start, F&& f);
  /// Phase-visit helper: visit the routers marked in `words`; clear the bit
  /// of every visited router for which `idle(id)` holds afterwards.
  template <class F, class Idle>
  void sweep_marked(std::vector<std::uint64_t>& words, int start, F&& f,
                    Idle&& idle);
  /// Set router `id`'s bit in `words`: sched_words_ or a phase work mask
  /// (see the masks below).  Every site that adds drain/post, injection or
  /// allocation work marks its mask, in both kernels, so the masks stay
  /// exact when a sharded network falls back to the sequential tick.
  void mark_work(std::vector<std::uint64_t>& words, NodeId id) {
    if (full_sweep_) return;
    std::uint64_t& word = words[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t bit = 1ull << (id & 63);
    if (sharded_active_) {
      // Words straddle strip boundaries, and traverse marks cross-shard
      // neighbours; the bit-set must be atomic.
      std::atomic_ref<std::uint64_t>(word).fetch_or(bit,
                                                    std::memory_order_relaxed);
    } else {
      word |= bit;
    }
  }

  // --- active-region scheduling (see DESIGN.md "Scheduling model") --------
  bool full_sweep_ = false;              // escape hatch: tick all routers
  /// One bit per router: on the active region (mirrors NodeWords::scheduled).
  /// Replaces a sorted worklist vector — waking is a bit-set, and each tick
  /// phase streams the words in rotated order instead of sorting.
  std::vector<std::uint64_t> sched_words_;
  /// Per-phase work masks, one bit per router, a superset of the scheduled
  /// routers holding that phase's work: pending posts or consumption flits
  /// (drain), queued or streaming worms (inject), pending heads (alloc).
  /// Set by mark_work, cleared lazily by a sequential visit that leaves the
  /// router without that work.  Traverse keeps sweeping sched_words_: every
  /// scheduled router's visit bumps its round-robin port pointer.  Unused in
  /// full-sweep mode and by the sharded kernel's own sweeps.
  std::vector<std::uint64_t> drain_words_;
  std::vector<std::uint64_t> inject_words_;
  std::vector<std::uint64_t> alloc_words_;
  /// Routers whose work count hit zero this cycle (see note_maybe_idle);
  /// drained and cleared by the end-of-tick deschedule pass.
  std::vector<NodeId> idle_checks_;

  /// Precomputed "iack_bank.<n>" counter names (see trace_bank_occupancy).
  std::vector<std::string> bank_counter_names_;

  // --- fast-forward state (cold: touched at window boundaries only) -------
  Cycle ff_armed_at_ = kNoGate;  // tick that armed the open window
  Cycle ff_next_ = kNoGate;      // sequential per-tick gate accumulator
  bool ff_acted_ = false;        // sequential per-tick marks
  bool ff_blocked_ = false;
  bool ff_idle_tick_ = false;    // sharded: tick armed a window (return false)
  std::uint64_t ff_cycles_ = 0;
  std::uint64_t ff_events_ = 0;

  // --- sharded-kernel state ----------------------------------------------
  ShardPlan plan_;
  bool parallel_replay_ = false;
  // (sharded_active_ — true only between tick_sharded() entry and exit,
  // routing the counter helpers through the calling shard's delta block —
  // is declared next to cnt_ above for cache-line locality.  It is read by
  // the shard threads, stable for the whole tick, and by the main thread in
  // between, where it is always false: never concurrent with a write.)
  int tick_start_ = 0;   // rotate_ snapshot for the in-flight sharded tick
  Cycle tick_now_ = 0;
  static thread_local ShardCtx* tls_shard_;
  std::vector<ShardCtx> shard_ctx_;
  /// Traverse-phase front progress per shard, one array per sweep stage
  /// (ids >= start, then ids < start).  -1 = no front completed this tick.
  std::unique_ptr<PaddedAtomicInt[]> progress_early_;
  std::unique_ptr<PaddedAtomicInt[]> progress_late_;
  std::unique_ptr<sim::ShardBarrier> barrier_;
  std::unique_ptr<sim::ShardPool> pool_;  // joined first: declared last
  obs::HistogramMetric* barrier_wait_hist_ = nullptr;
};

} // namespace mdw::noc
