// Cycle-driven simulation engine.
//
// The network is simulated by ticking every registered component once per
// cycle (flit movement is inherently synchronous); everything else (memory
// latencies, controller occupancy, processor think time) uses the event
// queue.  A cycle with no due events and no component activity is skipped
// over by fast-forwarding to the next event, which keeps long idle phases
// cheap without sacrificing cycle accuracy.
//
// Wake requests serve the network's quiescence fast-forward (DESIGN.md
// section 16): a component that reports itself idle but knows the cycle at
// which it can act again registers that cycle with request_wake(); the run
// loops treat it as an additional jump target (and as pending activity, so
// run_to_quiescence does not conclude the simulation is over).  Unlike a
// queued no-op event, a wake request is cancellable and never perturbs event
// sequence numbers, so simulations with and without fast-forward remain
// bit-identical.  At most one component per engine may hold a wake request
// at a time (the Network).
#pragma once

#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace mdw::obs {
class TraceWriter;
}

namespace mdw::sim {

/// A component that must be evaluated every cycle while the network is busy.
class Tickable {
public:
  virtual ~Tickable() = default;
  /// Advance one cycle. Returns true if the component did (or could soon do)
  /// any work, false if it is completely idle.
  virtual bool tick(Cycle now) = 0;
};

class Engine {
public:
  [[nodiscard]] Cycle now() const { return now_; }

  /// Components are ticked in registration order each cycle.
  void register_tickable(Tickable* t) { tickables_.push_back(t); }

  void schedule_at(Cycle when, EventQueue::Callback cb) {
    queue_.schedule_at(when, std::move(cb));
  }
  void schedule_after(Cycle delay, EventQueue::Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  // --- wake requests (see header) -----------------------------------------
  /// Ask the run loops to advance time to at most `when` during idle jumps;
  /// keeps run_to_quiescence from finishing while the requester still holds
  /// future work.  A later request with an earlier time tightens the bound.
  void request_wake(Cycle when) {
    if (!wake_pending_ || when < wake_at_) {
      wake_pending_ = true;
      wake_at_ = when;
    }
  }
  /// Withdraw the pending wake request (the requester resumed or went truly
  /// idle).  Harmless when none is pending.
  void clear_wake() { wake_pending_ = false; }
  [[nodiscard]] bool wake_pending() const { return wake_pending_; }

  /// Run until `pred` returns true, the queue drains with all components
  /// idle, or `max_cycles` elapse.  Returns true iff `pred` was satisfied;
  /// drained() then tells the two failures apart.
  bool run_until(const std::function<bool()>& pred, Cycle max_cycles);
  /// Whether the last run_until stopped because nothing was left to run
  /// (empty queue, no wake request, every component idle) with `pred` still
  /// false — a hang — rather than satisfied or out of cycle budget.
  [[nodiscard]] bool drained() const { return drained_; }

  /// Run until quiescent (no events, no wake request, all components idle)
  /// or `max_cycles`.  Returns true iff the simulation quiesced.
  bool run_to_quiescence(Cycle max_cycles);

  /// Advance exactly `n` cycles regardless of activity.
  void run_for(Cycle n);

  /// Opt-in event tracing: nullptr (the default) disables it.  Components
  /// pick the writer up from here at construction; the engine itself emits
  /// nothing, it is only the distribution point.
  void set_trace_writer(obs::TraceWriter* t) { tracer_ = t; }
  [[nodiscard]] obs::TraceWriter* trace_writer() const { return tracer_; }

private:
  /// Execute one cycle: due events first (they may inject traffic), then the
  /// synchronous component sweep. Returns true if anything happened.
  bool step();
  /// Earliest idle-jump target: the queue's next event time, tightened by a
  /// pending wake request.  Only valid when !idle_drained().
  [[nodiscard]] Cycle next_activity() const;
  /// True when nothing is left to jump to: empty queue and no wake request.
  [[nodiscard]] bool idle_drained() const {
    return queue_.empty() && !wake_pending_;
  }

  Cycle now_ = 0;
  EventQueue queue_;
  std::vector<Tickable*> tickables_;
  obs::TraceWriter* tracer_ = nullptr;
  bool wake_pending_ = false;
  Cycle wake_at_ = 0;
  bool drained_ = false;  // see drained()
};

} // namespace mdw::sim
