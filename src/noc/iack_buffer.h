// i-ack buffer bank at a router interface (paper Fig. 7).
//
// A small set (2-4) of entries, memory-mapped to the local processor, used by
// the MI-MA frameworks: i-reserve worms allocate an entry on their way out,
// sharer nodes post their invalidation acknowledgment into the local entry,
// and i-gather worms pick up the accumulated count.  A gather worm arriving
// before the entry is complete is absorbed into the entry's message field
// (virtual cut-through + deferred delivery) and re-injected when the missing
// post arrives.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "noc/worm.h"
#include "sim/types.h"

namespace mdw::noc {

class IAckBufferBank {
public:
  explicit IAckBufferBank(int num_entries) : entries_(num_entries) {}

  [[nodiscard]] int capacity() const { return static_cast<int>(entries_.size()); }
  [[nodiscard]] bool has_free() const {
    return in_use_ < static_cast<int>(entries_.size());
  }

  /// Reserve an entry for `txn` expecting `expected` posts.  Returns false
  /// when the bank is full (the reserving worm must block: hold-and-wait).
  /// The schemes reserve each (router, txn) at most once, so a reservation
  /// finding an existing entry (demand-allocated by an early post or gather
  /// pickup) only raises the expected-post count to `expected`.
  [[nodiscard]] bool reserve(TxnId txn, int expected);

  /// Post `count` acknowledgments for `txn`.  Creates the entry on demand if
  /// no reservation exists (posts never block in hardware: the posting node
  /// retries via its NI; we model the common case where reservation precedes
  /// the post, and fall back to demand-allocation).  Returns false if the
  /// bank is full and no entry exists — caller must retry later.
  /// If the post completes the entry and a gather worm is parked in it, the
  /// worm is released: it is returned to the caller for re-injection.
  [[nodiscard]] std::optional<WormPtr> post(TxnId txn, int count, bool* accepted);

  /// Gather-worm pickup.  If the entry for `txn` is complete, returns its
  /// accumulated count and frees it.  If incomplete, parks `worm` in the
  /// entry (deferred delivery) and returns nullopt.  If no entry exists at
  /// all, one is demand-allocated (expected = 1) to park the worm in; if the
  /// bank is full the worm must block upstream — indicated by *blocked.
  [[nodiscard]] std::optional<int> pickup(TxnId txn, int expected_if_new,
                                          const WormPtr& worm, bool* blocked);

  /// Cached occupancy (maintained at entry grant/release): the trace path
  /// samples this once per allocation event, so it must not rescan the bank.
  [[nodiscard]] int entries_in_use() const { return in_use_; }
  [[nodiscard]] std::uint64_t deferred_count() const { return deferred_; }

private:
  struct Entry {
    bool valid = false;
    TxnId txn = 0;
    int expected = 0;
    int arrived = 0;
    int count = 0;
    WormPtr parked; // deferred gather worm, if any
  };

  Entry* find(TxnId txn);
  /// Grab a free entry (counted into in_use_); the caller fills it in.
  Entry* alloc();
  /// Reset `e` to invalid and release its occupancy count.
  void release(Entry& e);

  std::vector<Entry> entries_;
  int in_use_ = 0;
  std::uint64_t deferred_ = 0;
};

} // namespace mdw::noc
