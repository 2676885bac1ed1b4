// The whole DSM machine: engine + network + one Node per mesh position,
// plus machine-level metrics (invalidation-transaction latency, traffic).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/plan_cache.h"
#include "dsm/node.h"
#include "noc/network.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "sim/engine.h"

namespace mdw::dsm {

struct InvalTxnRecord {
  BlockAddr addr = 0;
  NodeId home = kInvalidNode;
  int sharers = 0;
  int request_worms = 0;
  int ack_messages = 0;     // acknowledgments arriving at the home
  int total_ack_worms = 0;  // all ack worms, incl. hierarchical deposits
  Cycle start = 0;
  Cycle end = 0;
};

struct MachineStats {
  // Sampler-style handles over registry histograms of the same names (so
  // percentiles come for free; see obs::SamplerHandle).
  obs::SamplerHandle inval_latency; // write request reaching a Shared block ->
                                    // last ack collected (cycles)
  obs::SamplerHandle inval_sharers; // d per transaction
  std::uint64_t inval_txns = 0;
  std::uint64_t inval_request_worms = 0;
  std::uint64_t inval_ack_messages = 0;     // home arrivals
  std::uint64_t inval_total_ack_worms = 0;  // all ack worms in the network
  std::vector<InvalTxnRecord> records;  // populated when record_txns is set
};

class Machine {
public:
  /// `metrics` lets a harness collect several runs into one registry; when
  /// nullptr the machine owns its own.
  explicit Machine(const SystemParams& params,
                   obs::MetricsRegistry* metrics = nullptr);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const SystemParams& params() const { return p_; }
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] noc::Network& network() { return *net_; }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_[id]; }
  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] NodeId home_of(BlockAddr a) const { return p_.home_of(a); }

  [[nodiscard]] TxnId next_txn() { return next_txn_++; }
  [[nodiscard]] MachineStats& stats() { return stats_; }
  void set_record_txns(bool on) { record_txns_ = on; }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] core::PlanCache& plan_cache() { return plan_cache_; }

  /// Attach (or detach, with nullptr) a trace writer to the whole stack:
  /// engine, network, and the machine's transaction spans.
  void set_trace_writer(obs::TraceWriter* t);
  [[nodiscard]] obs::TraceWriter* tracer() const { return tracer_; }

  /// Mirror the scalar stats counters (machine, network, router and node
  /// aggregates) into the registry.  Called by dumps, not per event, so the
  /// simulation hot paths never pay for registry upkeep.
  void snapshot_metrics();

  // Transaction bookkeeping, called from the home Node.
  void txn_started(TxnId txn, const InvalTxnRecord& rec);
  void txn_finished(TxnId txn);

  /// Per-transaction completion observer (rec.end is stamped before the
  /// call).  One subscriber at a time; pass nullptr to detach.  Workload
  /// runners use it to window invalidation latencies without recording the
  /// full per-transaction vector (set_record_txns) at millions of txns.
  void set_txn_observer(std::function<void(const InvalTxnRecord&)> fn) {
    txn_observer_ = std::move(fn);
  }

  /// True when no processor operation is pending anywhere.
  [[nodiscard]] bool all_idle() const;

  /// Aggregate occupancy / message counters over all nodes.
  [[nodiscard]] std::uint64_t total_occupancy() const;

  /// Verify directory/cache agreement (coherence invariants); returns a
  /// human-readable violation description or an empty string.  Intended for
  /// tests — call at quiescence.
  [[nodiscard]] std::string check_coherence() const;

private:
  SystemParams p_;
  sim::Engine eng_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  // set iff not external
  obs::MetricsRegistry* metrics_;
  obs::TraceWriter* tracer_ = nullptr;
  std::unique_ptr<noc::Network> net_;
  core::PlanCache plan_cache_;
  std::vector<std::unique_ptr<Node>> nodes_;
  TxnId next_txn_ = 1;
  MachineStats stats_;
  std::function<void(const InvalTxnRecord&)> txn_observer_;
  bool record_txns_ = false;
  std::unordered_map<TxnId, InvalTxnRecord> live_txns_;
};

} // namespace mdw::dsm
