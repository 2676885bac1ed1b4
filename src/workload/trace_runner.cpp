#include "workload/trace_runner.h"

#include <cassert>
#include <sstream>

#include "workload/stream_runner.h"

namespace mdw::workload {

std::string RunResult::describe_stalls() const {
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

TraceRunner::TraceRunner(dsm::Machine& m, const Trace& t, Cycle think)
    : m_(m), t_(t), think_(think) {
  assert(t.nprocs <= m.num_nodes());
}

RunResult TraceRunner::run(Cycle max_cycles) {
  TraceSource src(t_);
  StreamRunnerOptions opt;
  opt.think = think_;
  opt.max_cycles = max_cycles;
  opt.windowed = false;  // pure replay: no steady-state bookkeeping
  StreamRunner runner(m_, src, opt);
  StreamResult s = runner.run();
  RunResult r;
  r.cycles = s.cycles;
  r.accesses = s.accesses;
  r.completed = s.completed;
  r.procs = std::move(s.procs);
  r.home_queue_depths = std::move(s.home_queue_depths);
  return r;
}

} // namespace mdw::workload
