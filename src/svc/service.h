// Asynchronous coherence service API (DESIGN.md section 15).
//
// A svc::Session is one client's window onto a dsm::Machine node: it accepts
// reads and writes in batches, keeps up to `max_outstanding` of them in
// flight at once (the node's MSHRs allow one outstanding access per block),
// and reports completions either through a callback or through ticket
// polling.  Ops to a block that is already in flight from this session are
// held back — later ops to OTHER blocks may overtake them (the window stays
// full), but per-block program order is preserved, which is exactly the
// serialization the directory's `Waiting` state enforces machine-wide.
//
// Sessions are passive: they never run the engine.  A harness (StreamRunner,
// which gives every processor one, or a test) issues ops from engine context
// (or before the first run) and advances time itself; completions fire
// inside engine events.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dsm/machine.h"

namespace mdw::svc {

using Ticket = std::uint64_t;

struct SessionOptions {
  /// Client window: ops the session keeps in flight at once.  1 is the
  /// blocking processor.
  int max_outstanding = 4;
};

/// One finished operation, as handed to poll() or the completion callback.
struct OpResult {
  Ticket ticket = 0;
  bool is_write = false;
  BlockAddr addr = 0;
  std::uint64_t value = 0;  // read: the value observed; write: the value written
  Cycle issued = 0;         // when the op entered the machine (not the queue)
  Cycle completed = 0;
};

struct SessionStats {
  std::uint64_t issued_reads = 0;
  std::uint64_t issued_writes = 0;
  std::uint64_t completed = 0;
  std::uint64_t held_for_block = 0;  // admissions skipped (block in flight)
  int max_in_flight = 0;
};

class Session {
public:
  Session(dsm::Machine& m, NodeId client, SessionOptions opt = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueue one op; returns the ticket to poll.  Admitted immediately when
  /// the window has room and the block is not already in flight.
  Ticket read(BlockAddr a);
  Ticket write(BlockAddr a, std::uint64_t value);

  /// Batch enqueue; one ticket per op, in argument order.
  std::vector<Ticket> read_batch(const std::vector<BlockAddr>& addrs);
  std::vector<Ticket> write_batch(
      const std::vector<std::pair<BlockAddr, std::uint64_t>>& writes);

  /// True once `t` has completed.  With `out`, the result is copied and
  /// consumed (a second poll for the same ticket returns false).  Tickets
  /// delivered through the completion callback are not retained for polling.
  bool poll(Ticket t);
  bool poll(Ticket t, OpResult& out);

  /// Completion callback mode: every finished op is delivered here instead
  /// of being retained for poll().  Pass nullptr to return to polling mode.
  void set_on_complete(std::function<void(const OpResult&)> fn) {
    on_complete_ = std::move(fn);
  }

  [[nodiscard]] NodeId client() const { return client_; }
  [[nodiscard]] int in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t queued() const { return pending_.size(); }
  /// True when nothing is queued or in flight.
  [[nodiscard]] bool drained() const { return in_flight_ == 0 && pending_.empty(); }
  [[nodiscard]] const SessionStats& stats() const { return stats_; }

private:
  struct PendingOp {
    Ticket ticket = 0;
    bool is_write = false;
    BlockAddr addr = 0;
    std::uint64_t value = 0;
  };
  struct LiveOp {
    bool is_write = false;
    BlockAddr addr = 0;
    std::uint64_t value = 0;
    Cycle issued = 0;
  };

  /// Admit queued ops (in order, skipping block-busy ones) until the window
  /// is full or nothing is admissible.
  void pump();
  void issue(PendingOp op);
  void on_done(Ticket t, std::uint64_t value);

  dsm::Machine& m_;
  NodeId client_;
  SessionOptions opt_;
  Ticket next_ticket_ = 1;
  std::list<PendingOp> pending_;
  std::unordered_map<Ticket, LiveOp> live_;
  std::unordered_set<BlockAddr> busy_addrs_;
  std::unordered_map<Ticket, OpResult> completed_;
  std::function<void(const OpResult&)> on_complete_;
  int in_flight_ = 0;
  SessionStats stats_;
};

} // namespace mdw::svc
