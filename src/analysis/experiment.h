// Reusable measurement harnesses behind the bench binaries: controlled
// invalidation-transaction experiments (one at a time, or many concurrent
// for the hot-spot study).
#pragma once

#include "core/scheme.h"
#include "dsm/machine.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "workload/synthetic.h"

namespace mdw::analysis {

struct InvalExperimentConfig {
  int mesh = 16;                     // k x k
  core::Scheme scheme = core::Scheme::UiUa;
  workload::SharerPattern pattern = workload::SharerPattern::Uniform;
  int d = 8;                         // sharers per transaction
  int repetitions = 20;
  std::uint64_t seed = 1;
  dsm::SystemParams base{};          // noc / latency knobs (mesh/scheme set here)
  obs::MetricsRegistry* metrics = nullptr;  // collect into this registry
  obs::TraceWriter* trace = nullptr;        // emit Chrome-trace events
  obs::LinkHeatmap* heatmap = nullptr;      // accumulate whole-run link load
};

struct InvalMeasurement {
  double inval_latency = 0;    // request-to-last-ack at the home (cycles)
  double inval_latency_p50 = 0;  // percentiles over the measured txns
  double inval_latency_p90 = 0;  // (bucket resolution, see obs::HistogramMetric)
  double inval_latency_p99 = 0;
  double write_latency = 0;    // writer-observed write latency (cycles)
  double messages = 0;         // request worms + ack messages per txn
  double traffic_flits = 0;    // link flit-hops per txn (whole transaction)
  double occupancy = 0;        // home-node controller cycles per txn
  double request_worms = 0;
  double ack_messages = 0;
  double deferred_gathers = 0;  // i-gather deferred deliveries per txn
};

/// One invalidation transaction at a time: prime d sharers, snapshot
/// counters, fire the write, measure the transaction in isolation.
[[nodiscard]] InvalMeasurement measure_invalidations(
    const InvalExperimentConfig& cfg);

struct HotspotConfig {
  int mesh = 16;
  core::Scheme scheme = core::Scheme::UiUa;
  int d = 16;              // sharers per block
  int concurrent = 8;      // simultaneous transactions (distinct homes),
                           // 1 .. mesh^2 - 1
  int rounds = 5;
  std::uint64_t seed = 1;
  dsm::SystemParams base{};
  obs::MetricsRegistry* metrics = nullptr;  // collect into this registry
  obs::TraceWriter* trace = nullptr;        // emit Chrome-trace events
};

struct HotspotMeasurement {
  bool completed = true;      // false: a round deadlocked within the budget
                              // (e.g. a 1-entry i-ack bank under load)
  double inval_latency = 0;   // mean across all transactions
  double inval_latency_p50 = 0;  // percentiles across all transactions
  double inval_latency_p90 = 0;
  double inval_latency_p99 = 0;
  double makespan = 0;        // cycles until every round's writes complete
  double traffic_flits = 0;   // total link flit-hops (write phase)
  double deferred_gathers = 0;     // i-gather worms parked in an i-ack bank
  double bank_blocked_cycles = 0;  // worm stalls on a full i-ack bank
  obs::LinkHeatmap heatmap;   // whole-run per-link load (incl. priming)
};

/// Many concurrent invalidation transactions (hot-spot / contention study).
[[nodiscard]] HotspotMeasurement measure_hotspot(const HotspotConfig& cfg);

/// Link-load profile around one home node (the paper's hot-spot analysis:
/// UI-UA congests the X links along the home row in the request phase and
/// the Y links along the home column in the ack phase).
struct LinkLoadProfile {
  double home_adjacent_mean = 0;  // flits on the home's 4 attached links
  double home_row_mean = 0;       // X-direction links along the home row
  double home_col_mean = 0;       // Y-direction links along the home column
  double elsewhere_mean = 0;      // all other links
  double max_link = 0;            // hottest single link anywhere
};

/// Run `rounds` back-to-back invalidation transactions against ONE home
/// (fresh block, fresh d-sharer pattern each round) and profile link load.
[[nodiscard]] LinkLoadProfile measure_link_load(
    core::Scheme scheme, int mesh, NodeId home, int d, int rounds,
    std::uint64_t seed);

/// Measure one specific transaction (fixed home/writer/sharers); used by
/// the pattern case study and the analytic cross-check.
struct SingleTxnResult {
  double inval_latency = 0;
  double messages = 0;
  double traffic_flits = 0;
  double occupancy = 0;
};
[[nodiscard]] SingleTxnResult measure_single_txn(
    dsm::SystemParams params, NodeId home, NodeId writer,
    const std::vector<NodeId>& sharers);

} // namespace mdw::analysis
