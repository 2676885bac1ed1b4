// Shared-memory access traces.
//
// The paper drives its simulator execution-style from SPLASH-2 Barnes-Hut,
// blocked LU, and All-Pairs-Shortest-Path.  We reproduce the methodology by
// running real implementations of those kernels (src/workload/*.cpp) under
// an access recorder that emits one trace stream per logical processor,
// with barrier synchronisation events; the streams are then replayed on the
// cycle-level machine by StreamRunner through a TraceSource.  Sharing and invalidation patterns —
// the only thing the paper's metrics depend on — are identical to an
// execution-driven run; instruction time between accesses is abstracted to
// a fixed think time (see DESIGN.md, substitutions).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace mdw::workload {

enum class OpKind : std::uint8_t { Read, Write, Barrier, Think };

struct TraceOp {
  OpKind kind = OpKind::Read;
  BlockAddr addr = 0;   // Read/Write: block address
  std::uint32_t arg = 0;  // Barrier: id; Think: cycles
};

struct Trace {
  int nprocs = 0;
  std::vector<std::vector<TraceOp>> per_proc;
  int num_barriers = 0;

  [[nodiscard]] std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& v : per_proc) n += v.size();
    return n;
  }
  [[nodiscard]] std::size_t total_accesses() const {
    std::size_t n = 0;
    for (const auto& v : per_proc) {
      for (const auto& op : v) {
        n += (op.kind == OpKind::Read || op.kind == OpKind::Write);
      }
    }
    return n;
  }
};

/// Convenience builder used by the app instrumenters.
class TraceBuilder {
public:
  explicit TraceBuilder(int nprocs) {
    trace_.nprocs = nprocs;
    trace_.per_proc.resize(static_cast<std::size_t>(nprocs));
  }

  void read(int proc, BlockAddr a) {
    trace_.per_proc[proc].push_back({OpKind::Read, a, 0});
  }
  void write(int proc, BlockAddr a) {
    trace_.per_proc[proc].push_back({OpKind::Write, a, 0});
  }
  void think(int proc, std::uint32_t cycles) {
    if (cycles == 0) return;
    trace_.per_proc[proc].push_back({OpKind::Think, 0, cycles});
  }
  /// Global barrier across every processor.
  void barrier() {
    const auto id = static_cast<std::uint32_t>(trace_.num_barriers++);
    for (auto& stream : trace_.per_proc) {
      stream.push_back({OpKind::Barrier, 0, id});
    }
  }

  [[nodiscard]] Trace take() { return std::move(trace_); }

private:
  Trace trace_;
};

} // namespace mdw::workload
