// Allocation-count test hook backing the "no allocation in steady state"
// and "node state is allocated on first use" claims (DESIGN.md sections 11
// and 17).
//
// alloc_guard.cpp replaces the global operator new/delete with
// malloc-forwarding versions that bump process-wide call and byte counters.
// The replacement is installed in every binary that links that translation
// unit, so it is a source of test_alloc_guard alone: the simulator library,
// the CLIs, benches, examples and the benchmark keep the default allocator.
//
// Usage:
//   sim::AllocGuard guard;
//   ... steady-state tick window ...
//   EXPECT_EQ(guard.delta(), 0u);
#pragma once

#include <cstdint>

namespace mdw::sim {

/// Global operator-new invocations since process start (all forms: scalar,
/// array, aligned).  Monotonic; thread-safe (relaxed atomic).
[[nodiscard]] std::uint64_t alloc_guard_new_calls();

/// Bytes requested from global operator new since process start (the sizes
/// asked for, before malloc rounds them up).  Monotonic; relaxed atomic.
[[nodiscard]] std::uint64_t alloc_guard_new_bytes();

/// Debug aid: while enabled, every counted allocation prints a backtrace to
/// stderr (signal-unsafe, test diagnostics only).
void alloc_guard_trace(bool on);

/// False when the counting allocator is compiled out (ASan/TSan/MSan builds
/// install their own interceptors); guard tests skip themselves then.
[[nodiscard]] bool alloc_guard_active();

/// Scope marker: counts operator-new calls and bytes since its construction.
class AllocGuard {
public:
  AllocGuard()
      : start_(alloc_guard_new_calls()),
        start_bytes_(alloc_guard_new_bytes()) {}
  /// Allocations observed since construction.
  [[nodiscard]] std::uint64_t delta() const {
    return alloc_guard_new_calls() - start_;
  }
  /// Bytes requested since construction.
  [[nodiscard]] std::uint64_t bytes() const {
    return alloc_guard_new_bytes() - start_bytes_;
  }

private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
};

} // namespace mdw::sim
