// Windowed steady-state statistics for long streaming runs.
//
// Long workload replays have two regimes: a warmup transient (cold caches,
// empty directories) and the steady state the experiments actually care
// about.  WindowedStats drops everything before a
// caller-declared warmup cutoff, then buckets completed accesses and
// invalidation transactions into fixed-width cycle windows, keeping one
// latency histogram per window so each window reports its own percentiles.
//
// Hot-path contract matches the rest of src/obs: record_* are a handful of
// arithmetic ops plus one histogram bucket increment; no allocation unless
// a new window opens (amortized one small vector push per window).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"

namespace mdw::obs {

class MetricsRegistry;

/// One steady-state window's summary.
struct WindowRow {
  Cycle start = 0;              // window start cycle (absolute)
  Cycle length = 0;             // window width in cycles
  std::uint64_t accesses = 0;   // processor reads+writes completed
  std::uint64_t inval_txns = 0; // invalidation transactions completed
  double lat_mean = 0;          // invalidation latency within the window
  double lat_p50 = 0;
  double lat_p90 = 0;
  double lat_p99 = 0;
};

class WindowedStats {
public:
  /// Samples at cycles < `warmup_end` are dropped; windows are
  /// `window_cycles` wide, anchored at `warmup_end`.  The latency
  /// histograms use (0, lat_bucket, lat_buckets) — defaults resolve 32k
  /// cycles at 32-cycle buckets, matching the machine's inval_latency
  /// registry layout's range at finer granularity.
  explicit WindowedStats(Cycle warmup_end = 0, Cycle window_cycles = 10'000,
                         double lat_bucket = 32.0,
                         std::size_t lat_buckets = 1024);

  /// Declare the warmup cutoff after construction (the runner learns the
  /// cutoff cycle only once the warmup access count retires).  Discards
  /// anything already recorded — call before the first steady sample.
  void set_warmup_end(Cycle c);

  [[nodiscard]] Cycle warmup_end() const { return warmup_end_; }
  [[nodiscard]] Cycle window_cycles() const { return window_; }

  void record_access(Cycle now);
  void record_txn(Cycle end, double latency);

  /// Windows in time order.  Rows cover [warmup_end, last sample]; the
  /// final (typically partial) window is included with its real length so
  /// throughput normalization stays honest.  `end_cycle` (>= last sample)
  /// truncates the last row's reported length.
  [[nodiscard]] std::vector<WindowRow> rows(Cycle end_cycle) const;

  /// Aggregate over every steady-state sample (not per window).
  [[nodiscard]] std::uint64_t steady_accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t steady_txns() const {
    return total_lat_.sampler().count();
  }
  [[nodiscard]] const sim::Histogram& steady_latency() const {
    return total_lat_;
  }

  /// Mirror the steady-state aggregates into a registry: counters
  /// stream.steady_accesses / stream.steady_txns, histograms
  /// stream.window_accesses (per-window access counts) and
  /// stream.steady_inval_latency (every steady-state txn latency).
  void snapshot_into(MetricsRegistry& reg, Cycle end_cycle) const;

private:
  struct Window {
    std::uint64_t accesses = 0;
    sim::Histogram lat;
    explicit Window(double bucket, std::size_t buckets)
        : lat(0.0, bucket, buckets) {}
  };

  Window& window_at(Cycle c);

  Cycle warmup_end_;
  Cycle window_;
  double lat_bucket_;
  std::size_t lat_buckets_;
  std::vector<Window> windows_;
  std::uint64_t accesses_ = 0;
  sim::Histogram total_lat_;
};

} // namespace mdw::obs
