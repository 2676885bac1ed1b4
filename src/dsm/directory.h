// Fully-mapped directory (one entry per cached block at its home node):
// state + presence-bit pointer array [44], plus the transient bookkeeping of
// an in-flight transaction (the `waiting` state of §2.2).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/sharer_set.h"
#include "sim/ring_queue.h"
#include "sim/types.h"

namespace mdw::dsm {

enum class DirState : std::uint8_t { Uncached, Shared, Exclusive, Waiting };

[[nodiscard]] inline const char* dir_state_name(DirState s) {
  static constexpr const char* names[] = {"Uncached", "Shared", "Exclusive",
                                          "Waiting"};
  return names[static_cast<int>(s)];
}

struct PendingReq {
  NodeId requester = kInvalidNode;
  bool is_write = false;
};

struct DirEntry {
  DirState state = DirState::Uncached;
  core::SharerBitmap sharers;   // presence bits
  NodeId owner = kInvalidNode;  // valid in Exclusive
  std::uint64_t mem_value = 0;  // logical memory image at the home

  // --- transient (state == Waiting) --------------------------------------
  PendingReq active;            // request being serviced
  bool eager_granted = false;   // RC mode: WriteReply already sent
  bool recall_outstanding = false;
  bool recall_for_write = false;
  sim::RingQueue<PendingReq> queue;  // requests arriving while Waiting
};

struct DirectoryStats {
  std::uint64_t read_reqs = 0;
  std::uint64_t write_reqs = 0;
  std::uint64_t inval_txns = 0;
  std::uint64_t recalls = 0;
  std::uint64_t writebacks = 0;
};

class Directory {
public:
  [[nodiscard]] DirEntry& entry(BlockAddr a) { return map_[a]; }
  [[nodiscard]] const DirEntry* find(BlockAddr a) const {
    auto it = map_.find(a);
    return it == map_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] DirectoryStats& stats() { return stats_; }
  [[nodiscard]] const DirectoryStats& stats() const { return stats_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [addr, e] : map_) fn(addr, e);
  }

private:
  std::unordered_map<BlockAddr, DirEntry> map_;
  DirectoryStats stats_;
};

} // namespace mdw::dsm
