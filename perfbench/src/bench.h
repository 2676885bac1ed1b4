// Shared pieces of the end-to-end benchmark: metric records, the
// outside-in layer clocks and span log of the traced run, and the result of
// one workload repetition.  Nothing here reaches into the simulator's
// internals: every probe wraps a public call (see probes.h).
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One metric as printed: value plus unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// FNV-1a over the simulated results: identical inputs and an unchanged
/// model give an identical value, whatever the host speed.
class Fingerprint {
public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Time spent inside one layer's calls, split into the part covered by
/// timed child layers and the layer's own (self) share.
struct LayerClock {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  [[nodiscard]] std::int64_t self_ns() const { return total_ns - child_ns; }
  LayerClock& operator+=(const LayerClock& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    child_ns += o.child_ns;
    return *this;
  }
};

/// Times one call into a layer.  Scopes nest per thread: a scope's
/// duration is charged to its own clock and, as child time, to the clock of
/// the scope enclosing it, so each layer's self time excludes the timed
/// layers it calls into.
class LayerScope {
public:
  explicit LayerScope(LayerClock& c)
      : clock_(c), parent_(current_), t0_(Clock::now()) {
    current_ = &clock_;
  }
  ~LayerScope() {
    const std::int64_t d = ns_between(t0_, Clock::now());
    ++clock_.calls;
    clock_.total_ns += d;
    if (parent_ != nullptr) parent_->child_ns += d;
    current_ = parent_;
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

private:
  LayerClock& clock_;
  LayerClock* parent_;
  Clock::time_point t0_;
  static inline thread_local LayerClock* current_ = nullptr;
};

/// Coarse spans of the traced run, kept in memory and written out as
/// Chrome trace events when the benchmark ends.  Per-call layers (one span
/// per delivery or source pull would dwarf the run) are folded into
/// LayerClock counts at the same boundaries instead.
class SpanLog {
public:
  /// Open a span; returns its id.  `parent` is the enclosing span (-1 for
  /// a root), `request` groups the spans of one repetition.
  int open(std::string name, const char* layer, int parent,
           std::uint64_t request) {
    spans_.push_back(Span{std::move(name), layer, Clock::now(), {}, parent,
                          request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// Write {"traceEvents": [...], "layers": {...}} to `path`; false on I/O
  /// failure.
  bool write(const std::string& path, const std::string& layers_json) const;

private:
  struct Span {
    std::string name;
    const char* layer;
    Clock::time_point start, end;
    int parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span.
class SpanScope {
public:
  SpanScope(SpanLog* log, std::string name, const char* layer, int parent,
            std::uint64_t request)
      : log_(log),
        id_(log ? log->open(std::move(name), layer, parent, request) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

private:
  SpanLog* log_;
  int id_;
};

/// Tracing context handed to a traced repetition (nullptr: untraced).
struct TraceCtx {
  SpanLog* spans = nullptr;
  std::uint64_t request = 0;  // repetition number, shared by its spans
};

/// What one repetition of a workload produced.
struct UnitResult {
  // Correctness.
  std::string error;            // empty: completed and verified
  std::uint64_t attempted = 0;  // accesses (streams) or points (grids)
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;

  // Host time.
  double wall_s = 0;   // whole repetition: set-up, run, verification
  /// Each set-up in the repetition: constructing a machine with its
  /// generator and sessions (streams), or the grids' points and machines.
  std::vector<double> setup_samples;
  double rate_s = 0;   // host seconds the throughput rates are taken over
  double rate_accesses = 0, rate_txns = 0, rate_cycles = 0;  // in rate_s

  // Simulated (exact for a given seed).
  double sim_cycles = 0;
  double lat_p50 = 0, lat_p99 = 0;  // invalidation latency, cycles
  double msgs_per_inval = 0;
  double flit_hops_per_inval = 0;
  double occupancy_per_inval = 0;
  std::string detail;  // one human-readable line about the run

  // Traced repetitions only: per-layer metrics, and the layers this
  // workload does not exercise (reported as absent, never as zero time).
  Metrics layers;
  std::vector<std::string> absent;
  double replay_s = 0;  // planner replay, inside wall_s but not tracing cost
};

/// Default seed: the named grids keep their historical per-point seeds, so
/// paper-grids reproduces the EXPERIMENTS.md tables exactly.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Workload entry points (streams.cpp, grids.cpp).
UnitResult run_zipf_32x32_mima(std::uint64_t seed, const TraceCtx* trace);
UnitResult run_svc_write_16x16_uiua(std::uint64_t seed, const TraceCtx* trace);
UnitResult run_paper_grids(std::uint64_t seed, const TraceCtx* trace);
/// Worker threads the paper-grids sweep runs with (recorded with results).
int paper_grids_jobs();

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile_of(std::vector<double>& v, double q);

}  // namespace perfbench
