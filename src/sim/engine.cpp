#include "sim/engine.h"

#include <algorithm>

namespace mdw::sim {

bool Engine::step() {
  bool active = false;
  if (!queue_.empty() && queue_.next_time() <= now_) {
    queue_.run_due(now_);
    active = true;
  }
  for (Tickable* t : tickables_) {
    active |= t->tick(now_);
  }
  ++now_;
  return active;
}

bool Engine::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  drained_ = false;
  const Cycle deadline = now_ + max_cycles;
  while (now_ < deadline) {
    if (pred()) return true;
    if (!step()) {
      // Quiescent network: jump to the next event, if any.
      if (queue_.empty()) {
        drained_ = !pred();
        return !drained_;
      }
      if (const Cycle next = queue_.next_time(); next > now_) now_ = next;
    }
  }
  return pred();
}

bool Engine::run_to_quiescence(Cycle max_cycles) {
  const Cycle deadline = now_ + max_cycles;
  while (now_ < deadline) {
    if (!step()) {
      if (queue_.empty()) return true;
      if (const Cycle next = queue_.next_time(); next > now_) now_ = next;
    }
  }
  return false;
}

void Engine::run_for(Cycle n) {
  const Cycle deadline = now_ + n;
  while (now_ < deadline) {
    if (!step()) {
      if (queue_.empty()) {
        now_ = deadline; // nothing can happen before the deadline
        return;
      }
      if (const Cycle next = queue_.next_time(); next > now_)
        now_ = std::min(next, deadline);
    }
  }
}

} // namespace mdw::sim
