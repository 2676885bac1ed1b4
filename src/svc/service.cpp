#include "svc/service.h"

#include <cassert>

namespace mdw::svc {

Session::Session(dsm::Machine& m, NodeId client, SessionOptions opt)
    : m_(m), client_(client), opt_(opt) {
  assert(client >= 0 && client < m.num_nodes());
  assert(opt_.max_outstanding > 0);
}

Session::~Session() = default;

Ticket Session::read(BlockAddr a) {
  const Ticket t = next_ticket_++;
  pending_.push_back(PendingOp{t, /*is_write=*/false, a, 0});
  pump();
  return t;
}

Ticket Session::write(BlockAddr a, std::uint64_t value) {
  const Ticket t = next_ticket_++;
  pending_.push_back(PendingOp{t, /*is_write=*/true, a, value});
  pump();
  return t;
}

std::vector<Ticket> Session::read_batch(const std::vector<BlockAddr>& addrs) {
  std::vector<Ticket> out;
  out.reserve(addrs.size());
  for (const BlockAddr a : addrs) {
    const Ticket t = next_ticket_++;
    pending_.push_back(PendingOp{t, /*is_write=*/false, a, 0});
    out.push_back(t);
  }
  pump();
  return out;
}

std::vector<Ticket> Session::write_batch(
    const std::vector<std::pair<BlockAddr, std::uint64_t>>& writes) {
  std::vector<Ticket> out;
  out.reserve(writes.size());
  for (const auto& [a, v] : writes) {
    const Ticket t = next_ticket_++;
    pending_.push_back(PendingOp{t, /*is_write=*/true, a, v});
    out.push_back(t);
  }
  pump();
  return out;
}

bool Session::poll(Ticket t) { return completed_.count(t) > 0; }

bool Session::poll(Ticket t, OpResult& out) {
  auto it = completed_.find(t);
  if (it == completed_.end()) return false;
  out = it->second;
  completed_.erase(it);
  return true;
}

void Session::pump() {
  for (auto it = pending_.begin();
       it != pending_.end() && in_flight_ < opt_.max_outstanding;) {
    if (busy_addrs_.count(it->addr) > 0) {
      // Per-block serialization: a later op to the same block waits for the
      // in-flight one; ops to other blocks may overtake it.
      ++stats_.held_for_block;
      ++it;
      continue;
    }
    PendingOp op = std::move(*it);
    it = pending_.erase(it);
    issue(std::move(op));
  }
}

void Session::issue(PendingOp op) {
  busy_addrs_.insert(op.addr);
  ++in_flight_;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  const OpResult r{.ticket = op.ticket, .is_write = op.is_write,
                   .addr = op.addr, .value = op.value,
                   .issued = m_.engine().now()};
  if (op.is_write) {
    ++stats_.issued_writes;
    m_.node(client_).write(op.addr, op.value,
                           [this, r] { on_done(r, r.value); });
  } else {
    ++stats_.issued_reads;
    m_.node(client_).read(op.addr,
                          [this, r](std::uint64_t v) { on_done(r, v); });
  }
}

void Session::on_done(OpResult r, std::uint64_t value) {
  r.value = value;
  r.completed = m_.engine().now();
  busy_addrs_.erase(r.addr);
  --in_flight_;
  ++stats_.completed;
  if (on_complete_) {
    on_complete_(r);
  } else {
    completed_.emplace(r.ticket, r);
  }
  pump();  // the freed slot (and freed block) may admit queued ops
}

} // namespace mdw::svc
