// Replays a StreamSource on a dsm::Machine at scale: processor p runs on
// mesh node p and issues through its own svc::Session, keeping up to
// `outstanding` accesses in flight; barriers are centralized.  A window of
// 1 (the default) is the paper's blocking, sequentially-consistent
// processor.  A warmup cutoff and windowed steady-state statistics serve
// multi-million-transaction runs; recorded traces replay through
// TraceSource.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsm/machine.h"
#include "obs/windowed.h"
#include "svc/service.h"
#include "workload/stream.h"

namespace mdw::workload {

struct StreamRunnerOptions {
  /// Fixed computation time modelled between accesses (network cycles);
  /// stands in for the instructions between memory ops.
  Cycle think = 4;
  /// Accesses to retire before steady-state collection starts (cold
  /// caches, empty directories).  0: no warmup, every sample is
  /// steady-state.
  std::uint64_t warmup_accesses = 0;
  /// Steady-state window width (cycles).
  Cycle window_cycles = 10'000;
  /// Execution budget; a run that exhausts it reports completed == false
  /// with per-proc progress for diagnosis.
  Cycle max_cycles = 2'000'000'000;
  /// Ops each processor keeps in flight through its session (closed loop:
  /// a completion plus one think time re-fills the window).  1 is the
  /// blocking processor; larger values are the load knob of
  /// EXPERIMENTS.md E11s.
  int outstanding = 1;
};

/// Per-processor replay progress, filled in on every run (diagnoses
/// timeouts: which procs finished, which are parked at a barrier, which
/// are stuck mid-access).
struct ProcProgress {
  std::size_t ops_retired = 0;   // ops pulled and dispatched
  bool done = false;             // stream exhausted
  bool at_barrier = false;       // parked waiting on the barrier below
  std::uint32_t barrier_id = 0;  // valid when at_barrier
};

/// A run's outcome and its steady-state view.  Throughputs are normalized
/// per 1000 simulated cycles ("kcycle") so they are mesh- and
/// length-comparable.
struct StreamResult {
  Cycle cycles = 0;              // total execution time
  std::size_t accesses = 0;      // reads + writes issued
  bool completed = false;
  std::vector<ProcProgress> procs;  // per-proc progress (timeout diagnosis)
  /// Per-home service-layer invalidation queue depth (index = node id),
  /// sampled at the moment the run stopped; empty for completed runs.  A
  /// stall with deep home queues points at invalidation backpressure
  /// (pipeline_depth too small for the offered load), one with empty
  /// queues at the protocol or the network.
  std::vector<std::size_t> home_queue_depths;
  /// Why an incomplete run stopped: the event queue drained with accesses
  /// still in flight (nothing left to run: a hang), rather than the cycle
  /// budget running out.  Always false for a completed run.
  bool drained = false;
  Cycle stop_cycle = 0;             // engine time when the run stopped
  std::uint64_t accesses_in_flight = 0;  // issued, not completed, at the stop
  Cycle warmup_end = 0;      // first steady-state cycle (0: warmup never completed)
  Cycle steady_cycles = 0;   // cycles spent in steady state
  std::uint64_t steady_accesses = 0;
  std::uint64_t steady_txns = 0;          // invalidation transactions
  double accesses_per_kcycle = 0;
  double txns_per_kcycle = 0;
  double lat_mean = 0;       // steady-state invalidation latency (cycles)
  double lat_p50 = 0;
  double lat_p90 = 0;
  double lat_p99 = 0;
  std::vector<obs::WindowRow> windows;    // per-window breakdown

  /// Why an incomplete run stopped, for the CLIs' error line: "event queue
  /// drained at cycle N with M accesses in flight", or "run exhausted the
  /// <max_cycles>-cycle budget".
  [[nodiscard]] std::string describe_stop(Cycle max_cycles) const;

  /// One-line summary of stuck processors ("proc 3: 17 ops, at barrier 2;
  /// ..."), plus any non-empty per-home invalidation queues; empty when
  /// every processor completed.
  [[nodiscard]] std::string describe_stalls() const;
};

class StreamRunner {
public:
  StreamRunner(dsm::Machine& m, StreamSource& src,
               StreamRunnerOptions opt = {});

  StreamRunner(const StreamRunner&) = delete;
  StreamRunner& operator=(const StreamRunner&) = delete;

  /// Replay the source to exhaustion (or until the cycle budget runs out).
  [[nodiscard]] StreamResult run();

  /// Mirror the steady-state aggregates into a registry (counters
  /// stream.steady_*, histograms stream.window_accesses /
  /// stream.steady_inval_latency).  Call after run().
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

private:
  /// Issue `proc`'s ops until its window is full, its stream runs dry, or
  /// a think or barrier op stops issue.
  void fill(int proc);
  /// One of `proc`'s accesses completed (its session's callback).
  void on_done(int proc);
  void reach_barrier(int proc);

  /// One processor's closed loop.  Its window is its session's ops in
  /// flight plus those held for their block.
  struct Proc {
    std::unique_ptr<svc::Session> session;
    bool exhausted = false;  // the source returned false
    bool draining = false;   // barrier pulled; waiting for the window to drain
  };

  dsm::Machine& m_;
  StreamSource& src_;
  StreamRunnerOptions opt_;
  obs::WindowedStats win_;
  std::vector<ProcProgress> prog_;
  std::vector<Proc> procs_;
  int done_procs_ = 0;
  int barrier_waiting_ = 0;
  std::uint32_t barrier_id_ = 0;
  std::size_t accesses_ = 0;         // issued reads + writes
  std::uint64_t completed_accesses_ = 0;
  bool warmup_done_ = false;
  Cycle end_cycle_ = 0;              // engine time when run() returned
};

} // namespace mdw::workload
