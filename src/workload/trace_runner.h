// Replays a Trace on a dsm::Machine: one logical processor per node (trace
// processor i runs on mesh node i), sequentially-consistent issue (one
// access at a time), centralized barriers.  Implemented as a thin wrapper
// over StreamRunner (workload/stream_runner.h) with a TraceSource — the
// replay event sequence is identical to the original dedicated runner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/machine.h"
#include "workload/trace.h"

namespace mdw::workload {

/// Per-processor replay progress, filled in on every run (diagnoses
/// timeouts: which procs finished, which are parked at a barrier, which
/// are stuck mid-access).
struct ProcProgress {
  std::size_t ops_retired = 0;   // trace ops pulled and dispatched
  bool done = false;             // stream exhausted
  bool at_barrier = false;       // parked waiting on the barrier below
  std::uint32_t barrier_id = 0;  // valid when at_barrier
};

struct RunResult {
  Cycle cycles = 0;              // total execution time
  std::size_t accesses = 0;      // reads + writes replayed
  bool completed = false;
  std::vector<ProcProgress> procs;  // per-proc progress (timeout diagnosis)
  /// Per-home service-layer invalidation queue depth (index = node id),
  /// sampled at the moment the cycle budget expired; empty for completed
  /// runs.  A stall with deep home queues points at invalidation
  /// backpressure (pipeline_depth too small for the offered load), one with
  /// empty queues at the protocol or the network.
  std::vector<std::size_t> home_queue_depths;

  /// One-line summary of stuck processors ("proc 3: 17 ops, at barrier 2;
  /// ..."), plus any non-empty per-home invalidation queues; empty when
  /// every processor completed.
  [[nodiscard]] std::string describe_stalls() const;
};

class TraceRunner {
public:
  /// `think_per_access`: fixed computation time modelled between accesses
  /// (network cycles); stands in for the instructions between memory ops.
  TraceRunner(dsm::Machine& m, const Trace& t, Cycle think_per_access = 4);

  /// Replay to completion (or until `max_cycles` elapse).
  [[nodiscard]] RunResult run(Cycle max_cycles = 2'000'000'000);

private:
  dsm::Machine& m_;
  const Trace& t_;
  Cycle think_;
};

} // namespace mdw::workload
