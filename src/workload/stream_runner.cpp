#include "workload/stream_runner.h"

#include <cassert>

namespace mdw::workload {

StreamRunner::StreamRunner(dsm::Machine& m, StreamSource& src,
                           StreamRunnerOptions opt)
    : m_(m), src_(src), opt_(opt),
      win_(0, opt.window_cycles),
      prog_(static_cast<std::size_t>(src.nprocs())) {
  assert(src.nprocs() > 0);
  assert(src.nprocs() <= m.num_nodes());
  if (opt_.outstanding > 1) opt_.use_service = true;
  assert(opt_.outstanding >= 1);
  warmup_done_ = opt_.warmup_accesses == 0;
  if (opt_.use_service) {
    sstate_.resize(prog_.size());
    sessions_.reserve(prog_.size());
    for (int p = 0; p < src.nprocs(); ++p) {
      svc::SessionOptions so;
      so.max_outstanding = opt_.outstanding;
      auto s = std::make_unique<svc::Session>(m_, static_cast<NodeId>(p), so);
      s->set_on_complete(
          [this, p](const svc::OpResult&) { svc_on_done(p); });
      sessions_.push_back(std::move(s));
    }
  }
}

StreamRunner::~StreamRunner() {
  if (observer_attached_) m_.set_txn_observer(nullptr);
}

std::string StreamResult::describe_stop(Cycle max_cycles) const {
  if (drained) {
    return "event queue drained at cycle " + std::to_string(stop_cycle) +
           " with " + std::to_string(accesses_in_flight) +
           " accesses in flight";
  }
  return "run exhausted the " + std::to_string(max_cycles) + "-cycle budget";
}

StreamResult StreamRunner::run() {
  if (opt_.windowed) {
    // Window invalidation latencies as transactions complete; pre-warmup
    // completions are dropped by the warmup_done_ gate, not by the
    // windowing cutoff, so no pre-warmup state accumulates.
    m_.set_txn_observer([this](const dsm::InvalTxnRecord& rec) {
      if (warmup_done_) {
        win_.record_txn(rec.end, static_cast<double>(rec.end - rec.start));
      }
    });
    observer_attached_ = true;
  }

  const int n = src_.nprocs();
  for (int p = 0; p < n; ++p) {
    // Stagger the very first issue slightly so node 0 doesn't always win
    // arbitration at cycle 0.
    m_.engine().schedule_after(static_cast<Cycle>(p % 4), [this, p] {
      if (opt_.use_service) fill(p);
      else step(p);
    });
  }
  StreamResult r;
  const Cycle t0 = m_.engine().now();
  r.completed = m_.engine().run_until([&] { return done_procs_ == n; },
                                      opt_.max_cycles);
  r.drained = m_.engine().drained();
  r.stop_cycle = m_.engine().now();
  r.accesses_in_flight = accesses_ - completed_accesses_;
  if (!r.completed) {
    // Snapshot the diagnosis state NOW: the quiescence drain below retires
    // in-flight accesses and empties the home queues, which would make a
    // timed-out run look like nothing was stuck.
    r.procs = prog_;
    r.home_queue_depths.resize(static_cast<std::size_t>(m_.num_nodes()));
    for (NodeId id = 0; id < m_.num_nodes(); ++id) {
      r.home_queue_depths[static_cast<std::size_t>(id)] =
          m_.node(id).svc_queue_depth();
    }
  }
  // Let in-flight acknowledgments settle for accurate traffic counters.
  (void)m_.engine().run_to_quiescence(1'000'000);
  end_cycle_ = m_.engine().now();

  if (observer_attached_) {
    m_.set_txn_observer(nullptr);
    observer_attached_ = false;
  }

  r.cycles = end_cycle_ - t0;
  r.accesses = accesses_;
  if (r.completed) r.procs = prog_;  // timed-out runs keep the snapshot
  if (opt_.windowed && warmup_done_) {
    r.warmup_end = win_.warmup_end();
    r.steady_cycles = end_cycle_ > r.warmup_end ? end_cycle_ - r.warmup_end
                                                : 0;
    r.steady_accesses = win_.steady_accesses();
    r.steady_txns = win_.steady_txns();
    if (r.steady_cycles > 0) {
      const double kc = static_cast<double>(r.steady_cycles) / 1000.0;
      r.accesses_per_kcycle = static_cast<double>(r.steady_accesses) / kc;
      r.txns_per_kcycle = static_cast<double>(r.steady_txns) / kc;
    }
    const sim::Histogram& lat = win_.steady_latency();
    r.lat_mean = lat.sampler().mean();
    r.lat_p50 = lat.quantile(0.50);
    r.lat_p90 = lat.quantile(0.90);
    r.lat_p99 = lat.quantile(0.99);
    r.windows = win_.rows(end_cycle_);
  }
  return r;
}

void StreamRunner::snapshot_metrics(obs::MetricsRegistry& reg) const {
  win_.snapshot_into(reg, end_cycle_);
}

void StreamRunner::note_access_done() {
  ++completed_accesses_;
  if (!opt_.windowed) return;
  if (!warmup_done_) {
    if (completed_accesses_ >= opt_.warmup_accesses) {
      warmup_done_ = true;
      win_.set_warmup_end(m_.engine().now());
    }
  } else {
    win_.record_access(m_.engine().now());
  }
}

void StreamRunner::step(int proc) {
  TraceOp op;
  if (!src_.next(proc, op)) {
    prog_[static_cast<std::size_t>(proc)].done = true;
    ++done_procs_;
    return;
  }
  ++prog_[static_cast<std::size_t>(proc)].ops_retired;
  switch (op.kind) {
    case OpKind::Read:
      ++accesses_;
      m_.node(proc).read(op.addr,
                         [this, proc](std::uint64_t) { on_access_done(proc); });
      break;
    case OpKind::Write:
      ++accesses_;
      m_.node(proc).write(op.addr, m_.engine().now(),
                          [this, proc] { on_access_done(proc); });
      break;
    case OpKind::Think:
      m_.engine().schedule_after(op.arg, [this, proc] { step(proc); });
      break;
    case OpKind::Barrier:
      reach_barrier(proc, op.arg);
      break;
  }
}

void StreamRunner::on_access_done(int proc) {
  note_access_done();
  m_.engine().schedule_after(opt_.think, [this, proc] { step(proc); });
}

// --------------------------------------------------------------------------
// Service mode: each proc keeps `outstanding` ops in flight through its
// svc::Session; one completion plus one think time re-fills the freed slot.
// With outstanding == 1 the issue/complete/think schedule is identical to
// the classic step/on_access_done loop (pinned in test_determinism).
// --------------------------------------------------------------------------

void StreamRunner::fill(int proc) {
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  auto& ps = sstate_[static_cast<std::size_t>(proc)];
  if (pp.done || ps.at_barrier_wait) return;
  while (ps.inflight < opt_.outstanding) {
    TraceOp op;
    if (!src_.next(proc, op)) {
      ps.exhausted = true;
      if (ps.inflight == 0) {
        pp.done = true;
        ++done_procs_;
      }
      return;
    }
    ++pp.ops_retired;
    switch (op.kind) {
      case OpKind::Read:
        ++accesses_;
        ++ps.inflight;
        (void)sessions_[static_cast<std::size_t>(proc)]->read(op.addr);
        break;
      case OpKind::Write:
        ++accesses_;
        ++ps.inflight;
        (void)sessions_[static_cast<std::size_t>(proc)]->write(
            op.addr, m_.engine().now());
        break;
      case OpKind::Think:
        // The think gates further ISSUE only; in-flight ops keep going.
        m_.engine().schedule_after(op.arg, [this, proc] { fill(proc); });
        return;
      case OpKind::Barrier:
        ps.at_barrier_wait = true;
        ps.barrier_id = op.arg;
        // Barrier semantics: arrive only once the window drains.
        if (ps.inflight == 0) reach_barrier(proc, op.arg);
        return;
    }
  }
}

void StreamRunner::svc_on_done(int proc) {
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  auto& ps = sstate_[static_cast<std::size_t>(proc)];
  --ps.inflight;
  assert(ps.inflight >= 0);
  note_access_done();
  if (ps.at_barrier_wait) {
    if (ps.inflight == 0) reach_barrier(proc, ps.barrier_id);
    return;
  }
  if (ps.exhausted) {
    if (ps.inflight == 0 && !pp.done) {
      pp.done = true;
      ++done_procs_;
    }
    return;
  }
  m_.engine().schedule_after(opt_.think, [this, proc] { fill(proc); });
}

void StreamRunner::resume(int proc) {
  if (opt_.use_service) {
    sstate_[static_cast<std::size_t>(proc)].at_barrier_wait = false;
    fill(proc);
  } else {
    step(proc);
  }
}

void StreamRunner::reach_barrier(int proc, std::uint32_t id) {
  assert(id == barrier_id_);
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  pp.at_barrier = true;
  pp.barrier_id = id;
  if (++barrier_waiting_ < src_.nprocs()) return;
  // Everyone arrived: release.  (The paper's focus is the invalidation
  // machinery; the barrier itself is idealized — see DESIGN.md.)
  barrier_waiting_ = 0;
  ++barrier_id_;
  for (int p = 0; p < src_.nprocs(); ++p) {
    prog_[static_cast<std::size_t>(p)].at_barrier = false;
    m_.engine().schedule_after(1, [this, p] { resume(p); });
  }
}

} // namespace mdw::workload
