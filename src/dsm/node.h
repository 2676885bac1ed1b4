// One DSM node: processor interface, cache controller (CC), directory
// controller (DC), and outgoing message controller (OC), mirroring the node
// organisation of the paper's §2.1 (DASH/Alewife/FLASH-style).
//
// Controller occupancy is modelled explicitly: the DC serializes message
// receptions (recv_occupancy + dir_lookup each), the OC serializes message
// compositions (send_occupancy each).  Home-node occupancy — the metric the
// paper optimizes — is the sum of both at the home.
//
// The processor interface is MSHR-based: any number of accesses to DISTINCT
// blocks may be outstanding at once (svc::Session drives this; the blocking
// harnesses issue one at a time), while a second access to a block already
// in flight is a caller error.  Every invalidation transaction launches as a
// group of one or more blocks: one plan over the union of their sharer
// sets, one request wave, one ack wave completing every block.  The home's
// service-layer machinery (DESIGN.md section 15) decides when and with whom
// a block launches: a bounded invalidation pipeline with a FIFO overflow
// queue, and a coalescing window that groups back-to-back invalidations.
// Both are off by default (SvcParams), and then each block launches alone
// the moment the directory decides it needs invalidating.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/inval_planner.h"
#include "dsm/cache.h"
#include "dsm/directory.h"
#include "dsm/messages.h"
#include "dsm/params.h"
#include "sim/ring_queue.h"
#include "sim/stats.h"

namespace mdw::dsm {

class Machine;

struct NodeStats {
  std::uint64_t occupancy_cycles = 0;   // DC + OC busy cycles at this node
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  sim::Sampler read_latency;            // completed processor reads (cycles)
  sim::Sampler write_latency;

  // Service-layer home-side counters.  The queue/coalesce counters are all
  // zero under default SvcParams; svc_pipeline_peak is always tracked (it
  // measures the home's natural invalidation concurrency even when no cap
  // is configured).
  std::uint64_t svc_enqueued = 0;        // invals that waited for a pipeline slot
  std::uint64_t svc_queue_wait_cycles = 0;  // total cycles spent waiting
  std::uint64_t svc_queue_peak = 0;      // max per-home queue depth observed
  std::uint64_t svc_pipeline_peak = 0;   // max concurrent inval txns at this home
  std::uint64_t svc_groups = 0;          // launches of two or more blocks
  std::uint64_t svc_coalesced_txns = 0;  // block txns riding those launches
};

class Node {
public:
  Node(Machine& machine, NodeId id, const SystemParams& params);

  /// Processor interface.  One outstanding access per BLOCK; accesses to
  /// distinct blocks may overlap (multi-outstanding clients go through
  /// svc::Session, which also enforces a per-client window).
  void read(BlockAddr a, std::function<void(std::uint64_t value)> done);
  void write(BlockAddr a, std::uint64_t value, std::function<void()> done);
  [[nodiscard]] bool op_pending() const { return !ops_.empty(); }

  /// Entry point for every worm delivered (or absorbed) at this node.
  void handle_delivery(const noc::WormPtr& worm);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Cache& cache() { return cache_; }
  [[nodiscard]] const Cache& cache() const { return cache_; }
  [[nodiscard]] Directory& directory() { return dir_; }
  [[nodiscard]] const Directory& directory() const { return dir_; }
  [[nodiscard]] NodeStats& stats() { return stats_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }

  /// Service-layer home-side introspection (describe_stalls, metrics).
  [[nodiscard]] std::size_t svc_queue_depth() const { return home_queue_.size(); }
  [[nodiscard]] int svc_live_invals() const { return live_invals_; }

private:
  // --- outgoing controller ------------------------------------------------
  /// Serialize a send through the OC; the worm is injected when composed.
  void oc_send(noc::WormPtr worm);
  void send_coh(MsgType t, BlockAddr a, NodeId dst, NodeId requester,
                TxnId txn, std::uint64_t value);

  // --- directory controller (home side) -----------------------------------
  /// Serialize an incoming-message handler through the DC.
  void dc_schedule(Cycle extra_busy, std::function<void()> fn);
  void dc_dispatch(std::shared_ptr<const CohMsg> m);
  void dc_read(BlockAddr a, NodeId requester);
  void dc_write(BlockAddr a, NodeId requester);
  /// Count `count` acks toward the group launched as wire txn `txn`; the
  /// last one completes every block of the group.
  void dc_on_ack(TxnId txn, int count);
  void dc_on_data(BlockAddr a, NodeId from, std::uint64_t v, bool writeback);
  void complete_recall(BlockAddr a, DirEntry& e, std::uint64_t v,
                       bool owner_kept_shared_copy);
  void grant(BlockAddr a, DirEntry& e);
  void drain_queue(BlockAddr a);

  // --- service layer: per-home inval pipeline + coalescing ----------------
  /// Gate a needed invalidation through the per-home pipeline (entry is
  /// already Waiting with its sharer set pruned).  The default SvcParams
  /// fall straight through to a one-block launch.
  void enqueue_invalidation(BlockAddr a);
  /// A pipeline slot is taken: launch now, or park in the coalescing buffer.
  void admit_invalidation(BlockAddr a);
  /// Launch everything parked in the coalescing buffer as one group.
  void flush_coalesce();
  /// Plan + launch one transaction over the union of the blocks' sharer
  /// bitmaps.
  void launch_invalidation(std::vector<BlockAddr> blocks);
  /// Complete one block of a finished transaction.
  void complete_member(BlockAddr a, DirEntry& e);
  /// Release `n` pipeline slots and admit queued invalidations.
  void release_inval_slots(int n);

  // --- cache controller (sharer side) --------------------------------------
  void cc_schedule(Cycle extra_busy, std::function<void()> fn);
  void cc_invalidation(NodeId here,
                       std::shared_ptr<const core::InvalDirective> dir);
  void cc_invalidate_block(BlockAddr a);
  void cc_recall(BlockAddr a, bool downgrade_only);
  void cc_reply(const CohMsg& m);
  void install_line(BlockAddr a, LineState st, std::uint64_t value);
  void complete_op(BlockAddr a, std::uint64_t value);

  Machine& machine_;
  NodeId id_;
  const SystemParams& p_;
  Cache cache_;
  Directory dir_;
  NodeStats stats_;

  Cycle oc_free_at_ = 0;
  Cycle dc_free_at_ = 0;
  Cycle cc_free_at_ = 0;

  /// One outstanding processor access (MSHR entry), keyed by block.
  struct OutstandingOp {
    bool is_write = false;
    std::uint64_t wvalue = 0;
    Cycle start = 0;
    std::function<void(std::uint64_t)> done_read;
    std::function<void()> done_write;
  };
  std::unordered_map<BlockAddr, OutstandingOp> ops_;

  [[nodiscard]] OutstandingOp* find_op(BlockAddr a) {
    auto it = ops_.find(a);
    return it == ops_.end() ? nullptr : &it->second;
  }

  /// Modified-line evictions awaiting WritebackAck (non-silent writebacks;
  /// Recalls for these lines are ignored — the in-flight Writeback serves
  /// as the recall response at the home).
  std::unordered_set<BlockAddr> wb_pending_;

  /// Early-recall race: a Recall/RecallShare that overtook our WriteReply
  /// (they travel on different virtual networks).  Applied right after the
  /// write completes.  Value: downgrade_only.
  std::unordered_map<BlockAddr, bool> pending_recall_;

  /// Early-invalidation race: an invalidation that overtook our ReadReply.
  /// The read still completes (it was ordered before the write at the
  /// home), but the line must not stay cached.
  std::unordered_set<BlockAddr> pending_inval_;

  // --- service-layer home-side state (idle under default SvcParams) -------
  /// In-flight invalidation transactions at this home (each block of a
  /// group counts as one — they are distinct logical transactions).
  int live_invals_ = 0;
  /// Blocks whose invalidation waits for a pipeline slot, FIFO, with the
  /// enqueue cycle for queue-wait accounting.
  sim::RingQueue<std::pair<BlockAddr, Cycle>> home_queue_;
  /// Admitted blocks parked for merging until the window flush.
  std::vector<BlockAddr> coalesce_buf_;
  /// Bumped on every flush; a scheduled window-expiry flush only fires if
  /// its captured epoch is still current (cancels stale timers after an
  /// early pipeline-full flush).
  std::uint64_t coalesce_epoch_ = 0;

  /// One launched invalidation: its blocks and their per-block machine txn
  /// ids, completed together on the shared ack wave (wire txn is the key).
  struct InvalGroup {
    std::vector<BlockAddr> blocks;
    std::vector<TxnId> member_txns;
    int acks_needed = 0;
    int acks_got = 0;
  };
  std::unordered_map<TxnId, InvalGroup> groups_;
};

} // namespace mdw::dsm
