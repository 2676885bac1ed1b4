// Whole-network model: a W x H mesh of wormhole routers plus one network
// interface (NI) per node.
//
// The Network is a sim::Tickable: each cycle it runs the three router phases
// over all routers (with a rotating start index so allocation arbitration is
// fair across nodes) and services the per-node injection queues.  The tick
// is work-driven (DESIGN.md section 9): the drain, injection and allocation
// phases visit only the routers their work masks mark, in the exhaustive
// sweep's order, and the routers park heads and VCs that cannot move until a
// neighbour frees what they wait for (router.h).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noc/arena.h"
#include "noc/router.h"
#include "noc/routing.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "sim/engine.h"
#include "sim/ring_queue.h"
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

  /// Opt-in event tracing (worm spans, i-ack bank occupancy); nullptr off.
  void set_trace_writer(obs::TraceWriter* t) { tracer_ = t; }
  [[nodiscard]] obs::TraceWriter* tracer() const { return tracer_; }

  /// Called once per final or intermediate `Deliver` completion.
  void set_delivery_handler(DeliveryHandler h) { deliver_ = std::move(h); }

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

  /// Publish the routers' summed tick work (net.tick.*, see TickWork) into
  /// the registry.
  void publish_tick_metrics();

  // --- used by Router -----------------------------------------------------
  void count_link_flit(NodeId from, Dir d) {
    ++stats_.link_flit_hops;
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
  /// A worm's tail left a consumption channel at `where`: record the
  /// delivery (latency, in-flight count, trace span) and run the delivery
  /// handler.  Takes the worm by value so the channel hands over its
  /// reference with zero refcount traffic.
  void commit_delivery(NodeId where, WormPtr worm, bool final_dest, Cycle now);
  void on_gather_deferred() { ++stats_.gather_deferred; }
  /// A tail flit of an intermediate-destination (absorb) copy reached the
  /// consumption channel.
  void on_absorb_delivery() { ++stats_.absorb_deliveries; }
  /// A non-trunk gather worm finished by sinking into `at`'s i-ack bank.
  void on_gather_deposit(NodeId at, const WormPtr& worm);
  /// Live-flit accounting, used for cheap global activity detection.
  void on_flit_removed() { --cnt_.live_flits; }
  void on_flit_copied() { ++cnt_.live_flits; }
  /// Phase-work accounting: consumption-channel flits and unrouted heads
  /// (the global totals gate tick()'s phase sweeps).
  void on_cons_flit(NodeId id, int delta) {
    cnt_.cons_flits_total += delta;
    if (delta > 0) mark_work(drain_words_, id);
  }
  void on_pending_head(NodeId id, int delta) {
    cnt_.pending_heads_total += delta;
    if (delta > 0) mark_work(alloc_words_, id);
  }
  /// A work counter at node `id` just reached zero: queue it for the
  /// end-of-tick deschedule check.  Only these transition points can turn
  /// node_has_work false, so checking the queued candidates is equivalent to
  /// re-checking every scheduled router each cycle (duplicates are harmless —
  /// the check is idempotent).
  void note_maybe_idle(NodeId id) {
    if (!full_sweep_) idle_checks_.push_back(id);
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
  /// Global tick-gate and phase-gate counters.
  struct NetCounters {
    std::int64_t in_flight = 0;        // worms injected, not yet delivered
    std::int64_t live_flits = 0;       // flits resident in any buffer
    std::int64_t queued_worms = 0;     // queued or still streaming in
    std::int64_t pending_posts = 0;
    std::int64_t cons_flits_total = 0;     // flits in consumption channels
    std::int64_t pending_heads_total = 0;  // heads awaiting allocation
  };

  void service_injection(NodeId n, Cycle now);
  void try_pending_posts(NodeId n);
  void reinject(NodeId at, WormPtr worm);

  sim::Engine& eng_;
  MeshShape mesh_;
  NocParams params_;
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
  /// Hot per-event state on its own cache line: every flit move bumps a
  /// gate counter, so keep the rotation cursor and the six gate counters
  /// away from the cold members.
  alignas(64) int rotate_ = 0;
  NetCounters cnt_;

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
  /// allocation work marks its mask, so the masks stay exact.
  void mark_work(std::vector<std::uint64_t>& words, NodeId id) {
    if (full_sweep_) return;
    words[static_cast<std::size_t>(id) >> 6] |= 1ull << (id & 63);
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
  /// Set by mark_work, cleared lazily by a visit that leaves the router
  /// without that work.  Traverse keeps sweeping sched_words_: every
  /// scheduled router's visit bumps its round-robin port pointer.  Unused in
  /// full-sweep mode.
  std::vector<std::uint64_t> drain_words_;
  std::vector<std::uint64_t> inject_words_;
  std::vector<std::uint64_t> alloc_words_;
  /// Routers whose work count hit zero this cycle (see note_maybe_idle);
  /// drained and cleared by the end-of-tick deschedule pass.
  std::vector<NodeId> idle_checks_;

  /// Precomputed "iack_bank.<n>" counter names (see trace_bank_occupancy).
  std::vector<std::string> bank_counter_names_;
};

} // namespace mdw::noc
