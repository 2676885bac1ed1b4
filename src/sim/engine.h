// Cycle-driven simulation engine.
//
// The network is simulated by ticking every registered component once per
// cycle (flit movement is inherently synchronous); everything else (memory
// latencies, controller occupancy, processor think time) uses the event
// queue.  A cycle with no due events and no component activity is skipped
// over by fast-forwarding to the next event, which keeps long idle phases
// cheap without sacrificing cycle accuracy.
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

  /// Run until `pred` returns true, the queue drains with all components
  /// idle, or `max_cycles` elapse.  Returns true iff `pred` was satisfied;
  /// drained() then tells the two failures apart.
  bool run_until(const std::function<bool()>& pred, Cycle max_cycles);
  /// Whether the last run_until stopped because nothing was left to run
  /// (empty queue, every component idle) with `pred` still false — a hang —
  /// rather than satisfied or out of cycle budget.
  [[nodiscard]] bool drained() const { return drained_; }

  /// Run until quiescent (no events, all components idle) or `max_cycles`.
  /// Returns true iff the simulation quiesced.
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

  Cycle now_ = 0;
  EventQueue queue_;
  std::vector<Tickable*> tickables_;
  obs::TraceWriter* tracer_ = nullptr;
  bool drained_ = false;  // see drained()
};

} // namespace mdw::sim
