// Outside-in probes: each one wraps a public call of one simulator layer,
// so the traced run measures the unmodified library.
//
//   StepProbe      sim       a Tickable registered after the network that
//                            counts engine steps and never reports work
//   WindowSource   workload  StreamSource decorator: times next(), and
//                            stamps the steady window (warmup cutoff to the
//                            first processor running dry) in host and
//                            simulated time
//   DeliveryProbe  dsm/core  re-installed Network delivery handler around
//                            Node::handle_delivery; captures each
//                            invalidation's (home, sharer set) from its
//                            core::InvalDirective payload for planner replay
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "core/inval_planner.h"
#include "core/plan_cache.h"
#include "dsm/machine.h"
#include "sim/engine.h"
#include "workload/stream.h"

namespace perfbench {

class StepProbe final : public mdw::sim::Tickable {
public:
  bool tick(mdw::Cycle) override {
    ++steps;
    return false;
  }
  std::uint64_t steps = 0;
};

class WindowSource final : public mdw::workload::StreamSource {
public:
  /// Host and simulated state at one window boundary.
  struct Mark {
    bool set = false;
    Clock::time_point host{};
    mdw::Cycle cycle = 0;
    std::uint64_t issued = 0;  // accesses handed out so far
    std::uint64_t txns = 0;    // invalidation transactions started so far
  };

  /// `clock` non-null times every pull (traced runs).
  WindowSource(mdw::workload::StreamSource& inner, mdw::dsm::Machine& m,
               std::uint64_t warmup_accesses, LayerClock* clock)
      : inner_(inner), m_(m), warmup_(warmup_accesses), clock_(clock) {}

  [[nodiscard]] int nprocs() const override { return inner_.nprocs(); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }

  bool next(int proc, mdw::workload::TraceOp& out) override {
    bool ok = false;
    if (clock_ != nullptr) {
      const LayerScope scope(*clock_);
      ok = inner_.next(proc, out);
    } else {
      ok = inner_.next(proc, out);
    }
    if (!ok) {
      if (!end_.set) end_ = mark();
      return false;
    }
    if (out.kind == mdw::workload::OpKind::Read ||
        out.kind == mdw::workload::OpKind::Write) {
      if (++issued_ == warmup_) start_ = mark();
    }
    return true;
  }

  [[nodiscard]] const Mark& window_start() const { return start_; }
  [[nodiscard]] const Mark& window_end() const { return end_; }

private:
  Mark mark() {
    return Mark{true, Clock::now(), m_.engine().now(), issued_,
                m_.stats().inval_txns};
  }

  mdw::workload::StreamSource& inner_;
  mdw::dsm::Machine& m_;
  std::uint64_t warmup_;
  LayerClock* clock_;
  std::uint64_t issued_ = 0;
  Mark start_, end_;
};

/// One invalidation as the planner saw it.
struct PlanInput {
  mdw::TxnId txn = 0;
  mdw::NodeId home = mdw::kInvalidNode;
  mdw::core::SharerBitmap sharers;
};

class DeliveryProbe {
public:
  /// Replace `m`'s delivery handler with a timed, capturing one.  The
  /// machine must outlive the probe's use; the handler calls exactly what
  /// the machine's own handler calls.
  DeliveryProbe(mdw::dsm::Machine& m, LayerClock& clock) : clock_(clock) {
    m.network().set_delivery_handler(
        [this, &m](mdw::NodeId where, const mdw::noc::WormPtr& worm) {
          capture(*worm);
          const LayerScope scope(clock_);
          m.node(where).handle_delivery(worm);
        });
  }
  DeliveryProbe(const DeliveryProbe&) = delete;
  DeliveryProbe& operator=(const DeliveryProbe&) = delete;

  [[nodiscard]] const std::vector<PlanInput>& captured() const {
    return captured_;
  }

private:
  void capture(const mdw::noc::Worm& worm) {
    const auto* dir =
        dynamic_cast<const mdw::core::InvalDirective*>(worm.payload.get());
    if (dir == nullptr || !seen_.insert(dir->txn).second) return;
    PlanInput in;
    in.txn = dir->txn;
    in.home = dir->home();
    for (const auto& [node, role] : dir->roles()) in.sharers.insert(node);
    captured_.push_back(std::move(in));
  }

  LayerClock& clock_;
  std::unordered_set<mdw::TxnId> seen_;
  std::vector<PlanInput> captured_;
};

/// Planner replay: the same inputs through plan_invalidation and through a
/// fresh PlanCache, each timed as a whole pass (median of a few).
struct ReplayResult {
  std::uint64_t txns = 0;
  std::int64_t plan_ns = 0;
  std::int64_t cached_ns = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wall_s = 0;  // the whole replay, all rounds
  ReplayResult& operator+=(const ReplayResult& o) {
    txns += o.txns;
    plan_ns += o.plan_ns;
    cached_ns += o.cached_ns;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    wall_s += o.wall_s;
    return *this;
  }
};

/// Replay `inputs` (all from one machine) through the planner and through
/// a fresh cache of `cache_entries`, alternating the two for a few rounds.
ReplayResult replay_plans(const std::vector<PlanInput>& inputs,
                          mdw::core::Scheme scheme,
                          const mdw::noc::MeshShape& mesh,
                          const mdw::noc::WormSizing& sizing,
                          int cache_entries);

/// Per-layer counts kept in a machine (after snapshot_metrics) or merged
/// sweep registry: noc.*, dsm.msgs_sent/occupancy, the additive svc.*
/// counts (when the workload drives sessions) and the live
/// core.plan_cache ratio with its base.
void add_registry_layers(const mdw::obs::MetricsRegistry& reg,
                         bool svc_present, Metrics& out);

/// core.replay_* and core.plan*_ns_per_txn from a planner replay.
void add_replay_layers(const ReplayResult& r, Metrics& out);

}  // namespace perfbench
