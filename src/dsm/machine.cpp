#include "dsm/machine.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace mdw::dsm {

namespace {

/// MDW_NO_MEMO=1 disables the plan and route caches (DESIGN.md §12)
/// without a params change — the differential escape hatch mirroring
/// MDW_FULL_SWEEP, for verifying that memoization never alters results.
bool memo_disabled() {
  const char* e = std::getenv("MDW_NO_MEMO");
  return e != nullptr && *e != '0';
}

} // namespace

Machine::Machine(const SystemParams& params, obs::MetricsRegistry* metrics)
    : p_(params), plan_cache_(memo_disabled() ? 0 : params.plan_cache_entries) {
  if (memo_disabled()) p_.noc.route_cache_entries = 0;
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  metrics_ = metrics;
  stats_.inval_latency.bind(
      &metrics_->histogram("inval_latency", 0.0, 64.0, 256));
  stats_.inval_sharers.bind(
      &metrics_->histogram("inval_sharers", 0.0, 1.0, 256));
  net_ = std::make_unique<noc::Network>(
      eng_, noc::MeshShape(p_.mesh_w, p_.mesh_h), p_.noc, metrics_);
  nodes_.reserve(p_.num_nodes());
  for (NodeId id = 0; id < p_.num_nodes(); ++id) {
    nodes_.push_back(std::make_unique<Node>(*this, id, p_));
  }
  net_->set_delivery_handler([this](NodeId where, const noc::WormPtr& worm) {
    nodes_[where]->handle_delivery(worm);
  });
}

Machine::~Machine() = default;

void Machine::txn_started(TxnId txn, const InvalTxnRecord& rec) {
  ++stats_.inval_txns;
  stats_.inval_sharers.add(static_cast<double>(rec.sharers));
  stats_.inval_request_worms += static_cast<std::uint64_t>(rec.request_worms);
  stats_.inval_ack_messages += static_cast<std::uint64_t>(rec.ack_messages);
  stats_.inval_total_ack_worms +=
      static_cast<std::uint64_t>(rec.total_ack_worms);
  live_txns_[txn] = rec;
}

void Machine::txn_finished(TxnId txn) {
  auto it = live_txns_.find(txn);
  if (it == live_txns_.end()) return;
  const InvalTxnRecord& rec = it->second;
  it->second.end = eng_.now();
  stats_.inval_latency.add(static_cast<double>(it->second.end -
                                               it->second.start));
  if (tracer_) {
    tracer_->complete("inval_txn", "dsm", rec.start, rec.end - rec.start,
                      rec.home,
                      "{\"txn\": " + std::to_string(txn) +
                          ", \"addr\": " + std::to_string(rec.addr) +
                          ", \"sharers\": " + std::to_string(rec.sharers) +
                          ", \"acks\": " + std::to_string(rec.ack_messages) +
                          "}");
  }
  if (record_txns_) stats_.records.push_back(it->second);
  if (txn_observer_) txn_observer_(it->second);
  live_txns_.erase(it);
}

void Machine::set_trace_writer(obs::TraceWriter* t) {
  tracer_ = t;
  eng_.set_trace_writer(t);
  net_->set_trace_writer(t);
}

void Machine::snapshot_metrics() {
  auto& reg = *metrics_;
  reg.gauge("cycles").set(static_cast<double>(eng_.now()));
  reg.counter("inval_txns").set(stats_.inval_txns);
  reg.counter("inval_request_worms").set(stats_.inval_request_worms);
  reg.counter("inval_ack_messages").set(stats_.inval_ack_messages);
  reg.counter("inval_total_ack_worms").set(stats_.inval_total_ack_worms);

  const noc::NetworkStats& ns = net_->stats();
  reg.counter("worms_injected").set(ns.worms_injected);
  reg.counter("worms_delivered").set(ns.worms_delivered);
  reg.counter("absorb_deliveries").set(ns.absorb_deliveries);
  reg.counter("link_flit_hops").set(ns.link_flit_hops);
  reg.counter("gather_deferred").set(ns.gather_deferred);
  reg.counter("gather_deposits").set(ns.gather_deposits);

  const core::PlanCacheStats& pcs = plan_cache_.stats();
  reg.counter("plan_cache.hits").set(pcs.hits);
  reg.counter("plan_cache.misses").set(pcs.misses);
  reg.counter("plan_cache.evictions").set(pcs.evictions);
  const noc::RouteCacheStats& rcs = net_->route_cache().stats();
  reg.counter("route_cache.hits").set(rcs.hits);
  reg.counter("route_cache.misses").set(rcs.misses);
  reg.counter("route_cache.evictions").set(rcs.evictions);
  net_->publish_tick_metrics();

  std::uint64_t forwarded = 0, consumed = 0, alloc_stalls = 0, cons_blocked = 0,
                bank_blocked = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const noc::RouterStats& rs = net_->router(id).stats();
    forwarded += rs.flits_forwarded;
    consumed += rs.flits_consumed;
    alloc_stalls += rs.alloc_stall_cycles;
    cons_blocked += rs.cons_blocked_cycles;
    bank_blocked += rs.bank_blocked_cycles;
  }
  reg.counter("router.flits_forwarded").set(forwarded);
  reg.counter("router.flits_consumed").set(consumed);
  reg.counter("router.alloc_stall_cycles").set(alloc_stalls);
  reg.counter("router.cons_blocked_cycles").set(cons_blocked);
  reg.counter("router.bank_blocked_cycles").set(bank_blocked);

  std::uint64_t occupancy = 0, sent = 0, received = 0, occupancy_peak = 0;
  std::uint64_t svc_enq = 0, svc_wait = 0, svc_qpeak = 0, svc_ppeak = 0,
                svc_groups = 0, svc_coalesced = 0;
  for (const auto& n : nodes_) {
    occupancy += n->stats().occupancy_cycles;
    occupancy_peak = std::max(occupancy_peak, n->stats().occupancy_cycles);
    sent += n->stats().msgs_sent;
    received += n->stats().msgs_received;
    svc_enq += n->stats().svc_enqueued;
    svc_wait += n->stats().svc_queue_wait_cycles;
    svc_qpeak = std::max(svc_qpeak, n->stats().svc_queue_peak);
    svc_ppeak = std::max(svc_ppeak, n->stats().svc_pipeline_peak);
    svc_groups += n->stats().svc_groups;
    svc_coalesced += n->stats().svc_coalesced_txns;
  }
  reg.counter("node.occupancy_cycles").set(occupancy);
  reg.gauge("node.occupancy_peak").set(static_cast<double>(occupancy_peak));
  reg.counter("node.msgs_sent").set(sent);
  reg.counter("node.msgs_received").set(received);
  reg.counter("svc.enqueued").set(svc_enq);
  reg.counter("svc.queue_wait_cycles").set(svc_wait);
  reg.gauge("svc.queue_peak").set(static_cast<double>(svc_qpeak));
  reg.gauge("svc.pipeline_peak").set(static_cast<double>(svc_ppeak));
  reg.counter("svc.groups").set(svc_groups);
  reg.counter("svc.coalesced_txns").set(svc_coalesced);
}

bool Machine::all_idle() const {
  for (const auto& n : nodes_) {
    if (n->op_pending()) return false;
  }
  return true;
}

std::uint64_t Machine::total_occupancy() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->stats().occupancy_cycles;
  return sum;
}

std::string Machine::check_coherence() const {
  std::ostringstream err;
  const int n = static_cast<int>(nodes_.size());

  // Gather every cached copy.
  struct Copy {
    NodeId node;
    LineState state;
    std::uint64_t value;
  };
  std::unordered_map<BlockAddr, std::vector<Copy>> copies;
  for (NodeId id = 0; id < n; ++id) {
    nodes_[id]->cache().for_each_valid([&](const Cache::Line& l) {
      copies[l.tag].push_back(Copy{id, l.state, l.value});
    });
  }

  // Single-writer & no-stale-sharers.
  for (const auto& [addr, cs] : copies) {
    int modified = 0;
    for (const auto& c : cs) modified += (c.state == LineState::Modified);
    if (modified > 1) {
      err << "block " << addr << ": " << modified << " Modified copies\n";
    }
    if (modified == 1 && cs.size() > 1) {
      err << "block " << addr << ": Modified copy coexists with "
          << cs.size() - 1 << " other copies\n";
    }
  }

  // Directory agreement (silent Shared evictions make the directory a
  // superset of the caches, never the reverse).
  for (NodeId home = 0; home < n; ++home) {
    nodes_[home]->directory().for_each([&](BlockAddr addr, const DirEntry& e) {
      if (e.state == DirState::Waiting) {
        err << "block " << addr << ": directory stuck in Waiting\n";
        return;
      }
      const auto it = copies.find(addr);
      if (e.state == DirState::Exclusive) {
        bool owner_holds = false;
        if (it != copies.end()) {
          for (const auto& c : it->second) {
            if (c.state == LineState::Modified && c.node == e.owner)
              owner_holds = true;
            if (c.node != e.owner)
              err << "block " << addr << ": copy at node " << c.node
                  << " while Exclusive at " << e.owner << "\n";
          }
        }
        if (!owner_holds)
          err << "block " << addr << ": Exclusive owner " << e.owner
              << " holds no Modified copy\n";
      } else {
        if (it != copies.end()) {
          for (const auto& c : it->second) {
            if (c.state == LineState::Modified)
              err << "block " << addr << ": Modified copy at node " << c.node
                  << " but directory state "
                  << dir_state_name(e.state) << "\n";
            else if (!e.sharers.contains(c.node))
              err << "block " << addr << ": Shared copy at node " << c.node
                  << " without presence bit\n";
            else if (c.value != e.mem_value)
              err << "block " << addr << ": Shared copy at node " << c.node
                  << " has value " << c.value << " but memory holds "
                  << e.mem_value << "\n";
          }
        }
      }
    });
  }
  return err.str();
}

} // namespace mdw::dsm
