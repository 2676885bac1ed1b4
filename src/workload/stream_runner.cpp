#include "workload/stream_runner.h"

#include <cassert>
#include <sstream>

namespace mdw::workload {

StreamRunner::StreamRunner(dsm::Machine& m, StreamSource& src,
                           StreamRunnerOptions opt)
    : m_(m), src_(src), opt_(opt),
      win_(0, opt.window_cycles),
      prog_(static_cast<std::size_t>(src.nprocs())),
      procs_(static_cast<std::size_t>(src.nprocs())) {
  assert(src.nprocs() > 0);
  assert(src.nprocs() <= m.num_nodes());
  assert(opt_.outstanding >= 1);
  warmup_done_ = opt_.warmup_accesses == 0;
  for (int p = 0; p < src.nprocs(); ++p) {
    auto& s = procs_[static_cast<std::size_t>(p)].session;
    s = std::make_unique<svc::Session>(
        m_, static_cast<NodeId>(p),
        svc::SessionOptions{.max_outstanding = opt_.outstanding});
    s->set_on_complete([this, p](const svc::OpResult&) { on_done(p); });
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

std::string StreamResult::describe_stalls() const {
  if (completed) return {};
  std::ostringstream os;
  bool first = true;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const ProcProgress& pp = procs[p];
    if (pp.done) continue;
    if (!first) os << "; ";
    first = false;
    os << "proc " << p << ": " << pp.ops_retired << " ops";
    if (pp.at_barrier) os << ", at barrier " << pp.barrier_id;
    else os << ", in flight";
  }
  bool label_pending = true;
  for (std::size_t h = 0; h < home_queue_depths.size(); ++h) {
    if (home_queue_depths[h] == 0) continue;
    if (label_pending) {
      if (!first) os << "; ";
      os << "home queues:";
      label_pending = false;
    } else {
      os << ",";
    }
    os << " node " << h << "=" << home_queue_depths[h];
  }
  return os.str();
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
    m_.engine().schedule_after(static_cast<Cycle>(p % 4),
                               [this, p] { fill(p); });
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

// Each proc keeps `outstanding` ops in flight through its svc::Session; one
// completion plus one think time re-fills the freed slot.  With
// outstanding == 1 this is the blocking issue / complete / think loop.

void StreamRunner::fill(int proc) {
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  Proc& ps = procs_[static_cast<std::size_t>(proc)];
  if (pp.done || ps.draining) return;
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
        (void)ps.session->read(op.addr);
        break;
      case OpKind::Write:
        ++accesses_;
        ++ps.inflight;
        (void)ps.session->write(op.addr, m_.engine().now());
        break;
      case OpKind::Think:
        // The think gates further ISSUE only; in-flight ops keep going.
        m_.engine().schedule_after(op.arg, [this, proc] { fill(proc); });
        return;
      case OpKind::Barrier:
        ps.draining = true;
        pp.barrier_id = op.arg;
        // Barrier semantics: arrive only once the window drains.
        if (ps.inflight == 0) reach_barrier(proc);
        return;
    }
  }
}

void StreamRunner::on_done(int proc) {
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  Proc& ps = procs_[static_cast<std::size_t>(proc)];
  --ps.inflight;
  assert(ps.inflight >= 0);
  ++completed_accesses_;
  if (opt_.windowed) {
    if (!warmup_done_) {
      if (completed_accesses_ >= opt_.warmup_accesses) {
        warmup_done_ = true;
        win_.set_warmup_end(m_.engine().now());
      }
    } else {
      win_.record_access(m_.engine().now());
    }
  }
  if (ps.draining) {
    if (ps.inflight == 0) reach_barrier(proc);
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

void StreamRunner::reach_barrier(int proc) {
  auto& pp = prog_[static_cast<std::size_t>(proc)];
  assert(pp.barrier_id == barrier_id_);
  pp.at_barrier = true;
  if (++barrier_waiting_ < src_.nprocs()) return;
  // Everyone arrived: release.  (The paper's focus is the invalidation
  // machinery; the barrier itself is idealized — see DESIGN.md.)
  barrier_waiting_ = 0;
  ++barrier_id_;
  for (int p = 0; p < src_.nprocs(); ++p) {
    prog_[static_cast<std::size_t>(p)].at_barrier = false;
    m_.engine().schedule_after(1, [this, p] {
      procs_[static_cast<std::size_t>(p)].draining = false;
      fill(p);
    });
  }
}

} // namespace mdw::workload
