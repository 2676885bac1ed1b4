// Replays a StreamSource on a dsm::Machine at scale: one logical processor
// per node, sequentially-consistent issue, centralized barriers — the same
// replay semantics as the original TraceRunner (which is now a thin wrapper
// over this class) — plus a warmup cutoff and windowed steady-state
// statistics for multi-million-transaction runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsm/machine.h"
#include "obs/windowed.h"
#include "svc/service.h"
#include "workload/stream.h"
#include "workload/trace_runner.h"

namespace mdw::workload {

struct StreamRunnerOptions {
  /// Fixed computation time modelled between accesses (network cycles);
  /// stands in for the instructions between memory ops.
  Cycle think = 4;
  /// Accesses to retire before steady-state collection starts (cold
  /// caches, empty directories, plan/route caches filling).  0: no warmup,
  /// every sample is steady-state.
  std::uint64_t warmup_accesses = 0;
  /// Steady-state window width (cycles).
  Cycle window_cycles = 10'000;
  /// Execution budget; a run that exhausts it reports completed == false
  /// with per-proc progress for diagnosis.
  Cycle max_cycles = 2'000'000'000;
  /// Collect windowed stats (the txn observer + per-access bookkeeping).
  /// TraceRunner turns this off to stay a pure replay.
  bool windowed = true;
  /// Drive each processor through a svc::Session (the async coherence
  /// service API) instead of the classic blocking read/write path.  With
  /// outstanding == 1 the two paths are fingerprint-identical (pinned in
  /// test_determinism); outstanding > 1 implies service mode.
  bool use_service = false;
  /// Ops each processor keeps in flight (closed loop: a completion plus
  /// one think time re-fills the window).  Values > 1 require service mode
  /// and are the load knob of EXPERIMENTS.md E11s.
  int outstanding = 1;
};

/// RunResult plus the steady-state view.  Throughputs are normalized per
/// 1000 simulated cycles ("kcycle") so they are mesh- and length-comparable.
struct StreamResult : RunResult {
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
};

class StreamRunner {
public:
  StreamRunner(dsm::Machine& m, StreamSource& src,
               StreamRunnerOptions opt = {});
  ~StreamRunner();  // detaches the machine's txn observer

  StreamRunner(const StreamRunner&) = delete;
  StreamRunner& operator=(const StreamRunner&) = delete;

  /// Replay the source to exhaustion (or until the cycle budget runs out).
  [[nodiscard]] StreamResult run();

  /// Mirror the steady-state aggregates into a registry (counters
  /// stream.steady_*, histograms stream.window_accesses /
  /// stream.steady_inval_latency).  Call after run().
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

private:
  void step(int proc);
  void fill(int proc);  // service-mode issue loop: keep the window full
  /// Count one completed access toward warmup or the steady-state windows.
  void note_access_done();
  void on_access_done(int proc);
  void svc_on_done(int proc);
  void reach_barrier(int proc, std::uint32_t id);
  void resume(int proc);  // barrier release -> step or fill by mode

  /// Per-proc closed-loop state for service mode.
  struct SvcProcState {
    int inflight = 0;          // ops handed to the session, not yet complete
    bool exhausted = false;    // source returned false
    bool at_barrier_wait = false;  // barrier pulled; draining the window
    std::uint32_t barrier_id = 0;
  };

  dsm::Machine& m_;
  StreamSource& src_;
  StreamRunnerOptions opt_;
  obs::WindowedStats win_;
  std::vector<ProcProgress> prog_;
  std::vector<std::unique_ptr<svc::Session>> sessions_;  // service mode only
  std::vector<SvcProcState> sstate_;
  int done_procs_ = 0;
  int barrier_waiting_ = 0;
  std::uint32_t barrier_id_ = 0;
  std::size_t accesses_ = 0;         // issued reads + writes
  std::uint64_t completed_accesses_ = 0;
  bool warmup_done_ = false;
  bool observer_attached_ = false;
  Cycle end_cycle_ = 0;              // engine time when run() returned
};

} // namespace mdw::workload
