// Freelist arena recycling Worm objects (DESIGN.md section 11).
//
// Every message the simulator moves used to cost three heap round-trips:
// the shared_ptr control block + Worm, and the two std::vectors (path,
// dests) inside it.  The pool keeps released worms on a freelist with their
// spill blocks intact, so after warm-up the worm build path touches the
// allocator only when a workload's in-flight high-water mark grows.
//
// Lifetime rules:
//   * A worm is acquired and released on the pool's owning thread.  One
//     Machine builds and ticks worms on one thread, and the sweep runner
//     executes each grid point wholly on one worker, so this holds by
//     construction; the pool asserts it.
//   * All worms of a pool die before the pool does (machines are destroyed
//     before thread exit).  The destructor asserts none are outstanding.
//   * Pooling is invisible to the simulation: a recycled worm is
//     reset_for_reuse()d back to the default-constructed state, and nothing
//     in the simulator branches on worm addresses.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "noc/worm.h"

namespace mdw::noc {

class WormPool {
public:
  WormPool();
  ~WormPool();
  WormPool(const WormPool&) = delete;
  WormPool& operator=(const WormPool&) = delete;

  /// Hand out a pristine worm, recycling a released one when available.
  [[nodiscard]] WormPtr acquire();

  /// Worms handed out and not yet released.
  [[nodiscard]] std::int64_t outstanding() const { return outstanding_; }
  /// Worms currently parked on the freelist.
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Total acquire() calls served.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// Acquires served from the freelist (no allocation).
  [[nodiscard]] std::uint64_t reused() const { return reused_; }

  /// The calling thread's pool; used by the worm builders so construction
  /// sites need no pool plumbing.  Each sweep worker gets its own.
  [[nodiscard]] static WormPool& local();

private:
  friend void release_worm(Worm* w) noexcept;

  /// Reset `w` and park it on the freelist.  Only called by release_worm
  /// once the last WormPtr dropped.
  void recycle(Worm* w) noexcept;

  std::vector<Worm*> free_;
  std::int64_t outstanding_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
  /// Thread-affinity check (assertions stay on in release builds).
  std::thread::id owner_;
};

} // namespace mdw::noc
