#include "noc/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

namespace mdw::noc {

namespace {

/// Span payload for a delivered worm (tracing only; never on the hot path).
std::string worm_trace_args(const Worm& w) {
  return "{\"id\": " + std::to_string(w.id) +
         ", \"txn\": " + std::to_string(w.txn) +
         ", \"flits\": " + std::to_string(w.length_flits) +
         ", \"dests\": " + std::to_string(w.dests.size()) + "}";
}

} // namespace

Network::Network(sim::Engine& eng, const MeshShape& mesh, const NocParams& params,
                 obs::MetricsRegistry* metrics)
    : eng_(eng), mesh_(mesh), params_(params),
      heatmap_(mesh.width(), mesh.height()), tracer_(eng.trace_writer()) {
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  metrics_ = metrics;
  stats_.worm_latency.bind(&metrics_->histogram("worm_latency", 0.0, 16.0, 256));
  const int n = mesh_.num_nodes();
  full_sweep_ = params_.full_sweep;
  arena_.init(n, params_.vcs_total(), params_.inj_vcs_total(),
              params_.vc_buffer_flits, params_.consumption_channels,
              params_.cons_buffer_flits);
  routers_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    routers_.emplace_back(*this, arena_, id, params_);
  }
  ifaces_.resize(n);
  for (auto& iface : ifaces_) {
    iface.streaming.resize(static_cast<std::size_t>(params_.inj_vcs_total()));
  }
  bank_counter_names_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    bank_counter_names_.push_back("iack_bank." + std::to_string(id));
  }
  const std::size_t nwords = (static_cast<std::size_t>(n) + 63) / 64;
  for (auto* words : {&sched_words_, &drain_words_, &inject_words_,
                      &alloc_words_}) {
    words->assign(nwords, 0);
  }
  // Wire the mesh: router r's output in direction d feeds the neighbour's
  // input port opposite(d).
  for (NodeId id = 0; id < n; ++id) {
    for (int d = 0; d < kNumLinkDirs; ++d) {
      const NodeId nbr = mesh_.neighbor(id, static_cast<Dir>(d));
      if (nbr == kInvalidNode) continue;
      auto& link = routers_[static_cast<std::size_t>(id)].out_[d];
      link.nbr = nbr;
      link.nbr_port = static_cast<int>(opposite(static_cast<Dir>(d)));
      link.nbr_vhot = arena_.vc_hot(nbr);
      link.nbr_vflit = arena_.vc_flits(nbr);
      link.nbr_words = &arena_.words(nbr);
      link.nbr_router = &routers_[static_cast<std::size_t>(nbr)];
    }
  }
  eng_.register_tickable(this);
}

Network::~Network() = default;

void Network::inject(const WormPtr& worm) {
  assert(!worm->path.empty());
  assert(!worm->dests.empty());
  assert(worm->adaptive || worm->dests.back().node == worm->path.back());
  worm->inject_cycle = eng_.now();
  worm->length_flits = std::max(worm->length_flits, 2);
  ++stats_.worms_injected;
  if (worm->path.size() == 1 && worm->dests.back().node == worm->src) {
    // Self-delivery: bypass the network but keep it off the critical path of
    // this cycle's handlers.
    worm->deliver_cycle = eng_.now();
    stats_.worm_latency.add(0.0);
    ++stats_.worms_delivered;
    if (tracer_) {
      tracer_->complete(std::string("worm.") + worm_kind_name(worm->kind),
                        "noc", worm->inject_cycle, 0, worm->src,
                        worm_trace_args(*worm));
    }
    eng_.schedule_after(1, [this, worm] {
      if (deliver_) deliver_(worm->src, worm);
    });
    return;
  }
  ++cnt_.in_flight;
  ++cnt_.queued_worms;
  ++ifaces_[worm->src].inj_work;
  ifaces_[worm->src].inject_q[static_cast<int>(worm->vnet)].push_back(worm);
  mark_work(inject_words_, worm->src);
  wake_router(worm->src);
}

void Network::reinject(NodeId at, WormPtr worm) {
  // Deferred gather worm resuming its path from `at`.
  assert(worm->path[worm->head_hop] == at);
  ++cnt_.queued_worms;
  ++ifaces_[at].inj_work;
  ifaces_[at].inject_q[static_cast<int>(worm->vnet)].push_back(std::move(worm));
  mark_work(inject_words_, at);
  wake_router(at);
}

void Network::post_iack(NodeId at, TxnId txn, int count) {
  ++cnt_.pending_posts;
  ifaces_[at].pending_posts.emplace_back(txn, count);
  mark_work(drain_words_, at);
  wake_router(at);
}

void Network::try_pending_posts(NodeId n) {
  auto& iface = ifaces_[n];
  std::size_t remaining = iface.pending_posts.size();
  while (remaining-- > 0) {
    auto [txn, count] = iface.pending_posts.front();
    iface.pending_posts.pop_front();
    bool accepted = false;
    auto released = router(n).bank().post(txn, count, &accepted);
    if (!accepted) {  // bank full: re-park, retry next cycle
      iface.pending_posts.emplace_back(txn, count);
      continue;
    }
    --cnt_.pending_posts;
    if (tracer_) {
      trace_bank_occupancy(n, router(n).bank().entries_in_use(), eng_.now());
    }
    if (released.has_value()) reinject(n, std::move(*released));
  }
  if (iface.pending_posts.empty()) note_maybe_idle(n);
}

void Network::service_injection(NodeId n, Cycle now) {
  Router& r = routers_[static_cast<std::size_t>(n)];
  ++r.work_.inject_visits;
  auto& iface = ifaces_[n];
  if (iface.inj_work == 0) return;  // nothing queued, nothing streaming
  NodeWords& w = arena_.words(n);
  const int local = static_cast<int>(Dir::Local);
  for (int v = 0; v < params_.inj_vcs_total(); ++v) {
    auto& st = iface.streaming[v];
    VcHot& ivc = r.vc(local, v);
    if (st.worm == nullptr) {
      // Start a new worm on this VC if one of matching vnet is queued.
      const int vnet = v / params_.inj_vcs_per_vnet;
      auto& q = iface.inject_q[vnet];
      if (q.empty() || !ivc.free()) continue;
      st.worm = std::move(q.front());
      q.pop_front();
      st.flits_pushed = 0;
      r.vc_owner(local, v) = st.worm;
      ivc.claimed = 1;
    }
    // Stream at most one flit per cycle into the Local input VC.
    RingView ring = r.vc_ring(r.slot(local, v));
    if (ring.full()) continue;
    const bool head = st.flits_pushed == 0;
    const bool tail = st.flits_pushed == st.worm->length_flits - 1;
    ring.push_back(Flit{head, tail, now});
    ++cnt_.live_flits;
    ++w.active_work;
    if (head) {
      ivc.ready_at = now + params_.router_delay;
      r.note_head_arrival(local, v);
    }
    ++st.flits_pushed;
    if (tail) {
      st.worm = nullptr;
      st.flits_pushed = 0;
      --cnt_.queued_worms;
      --iface.inj_work;
    }
  }
}

void Network::commit_delivery(NodeId where, WormPtr worm, bool final_dest,
                              Cycle now) {
  if (final_dest) {
    worm->deliver_cycle = now;
    stats_.worm_latency.add(static_cast<double>(now - worm->inject_cycle));
    ++stats_.worms_delivered;
    assert(cnt_.in_flight > 0);
    --cnt_.in_flight;
    if (tracer_) {
      tracer_->complete(std::string("worm.") + worm_kind_name(worm->kind),
                        "noc", worm->inject_cycle, now - worm->inject_cycle,
                        worm->src, worm_trace_args(*worm));
    }
  }
  if (deliver_) deliver_(where, worm);
}

void Network::on_gather_deposit(NodeId at, const WormPtr& worm) {
  ++stats_.gather_deposits;
  assert(cnt_.in_flight > 0);
  --cnt_.in_flight;
  if (tracer_) {
    tracer_->complete(std::string("worm.") + worm_kind_name(worm->kind) +
                          ".deposit",
                      "noc", worm->inject_cycle,
                      eng_.now() - worm->inject_cycle, worm->src,
                      worm_trace_args(*worm));
  }
  post_iack(at, worm->txn, worm->gathered);
}

template <class F>
void Network::for_each_set(const std::vector<std::uint64_t>& words, int start,
                           F&& f) {
  // Each word is visited once; within the current word the bitmap is
  // re-read after every callback, so bits set by mid-phase wakes at
  // positions the cursor has not passed yet are picked up (see header).
  auto scan_word = [&](int wi, std::uint64_t mask) {
    while (true) {
      const std::uint64_t bits = words[static_cast<std::size_t>(wi)] & mask;
      if (bits == 0) return;
      const int b = std::countr_zero(bits);
      mask = b == 63 ? 0 : mask & (~0ull << (b + 1));
      f(static_cast<NodeId>((wi << 6) + b));
    }
  };
  const int nw = static_cast<int>(words.size());
  const int w0 = start >> 6;
  const int b0 = start & 63;
  scan_word(w0, ~0ull << b0);                             // ids in [start, ...)
  for (int wi = w0 + 1; wi < nw; ++wi) scan_word(wi, ~0ull);
  for (int wi = 0; wi < w0; ++wi) scan_word(wi, ~0ull);   // wrap: ids < start
  if (b0 != 0) scan_word(w0, ~0ull >> (64 - b0));
}

template <class F, class Idle>
void Network::sweep_marked(std::vector<std::uint64_t>& words, int start,
                           F&& f, Idle&& idle) {
  for_each_set(words, start, [&](NodeId id) {
    f(id);
    if (idle(id)) {
      words[static_cast<std::size_t>(id) >> 6] &= ~(1ull << (id & 63));
    }
  });
}

bool Network::node_has_work(NodeId id) const {
  if (arena_.words(id).active_work > 0) return true;
  const NetIface& iface = ifaces_[id];
  return iface.inj_work > 0 || !iface.pending_posts.empty();
}

bool Network::tick(Cycle now) {
  if (cnt_.live_flits == 0 && cnt_.queued_worms == 0 && cnt_.pending_posts == 0)
    return false;
  const int n = mesh_.num_nodes();
  const int start = rotate_;
  rotate_ = (rotate_ + 1) % n;

  if (full_sweep_) {
    for (int i = 0; i < n; ++i) {
      const NodeId id = (start + i) % n;
      if (!ifaces_[id].pending_posts.empty()) try_pending_posts(id);
      routers_[id].drain_consumption(now);
    }
    for (int i = 0; i < n; ++i) {
      const NodeId id = (start + i) % n;
      service_injection(id, now);
    }
    for (int i = 0; i < n; ++i) routers_[(start + i) % n].allocate(now);
    for (int i = 0; i < n; ++i) routers_[(start + i) % n].traverse(now);
    return true;
  }

  // Work-driven sweep: identical phase order and, within each phase, the
  // same (id - start) mod n visit order as the exhaustive sweep — routers
  // without that phase's work are simply absent (their visit would be a
  // no-op).  Routers that gain work mid-tick are picked up at their
  // rotating position by the bitmap rescan (see for_each_set).  Each
  // phase's sweep is skipped outright when the global counter says no
  // router anywhere holds that class of work; the gates are read at phase
  // start, so work generated by an earlier phase this cycle (e.g. a
  // reinjection from a completed i-ack post) still runs.
  if (cnt_.pending_posts != 0 || cnt_.cons_flits_total != 0) {
    sweep_marked(
        drain_words_, start,
        [&](NodeId id) {
          if (!ifaces_[id].pending_posts.empty()) try_pending_posts(id);
          routers_[id].drain_consumption(now);
        },
        [&](NodeId id) {
          return ifaces_[id].pending_posts.empty() &&
                 arena_.words(id).cons_flits == 0;
        });
  }
  if (cnt_.queued_worms != 0) {
    sweep_marked(
        inject_words_, start, [&](NodeId id) { service_injection(id, now); },
        [&](NodeId id) { return ifaces_[id].inj_work == 0; });
  }
  if (cnt_.pending_heads_total != 0) {
    sweep_marked(
        alloc_words_, start, [&](NodeId id) { routers_[id].allocate(now); },
        [&](NodeId id) { return arena_.words(id).pending == 0; });
  }
  for_each_set(sched_words_, start,
               [&](NodeId id) { routers_[id].traverse(now); });

  // Deschedule fully drained routers; they re-enter via wake_router.  Only
  // routers that hit a work-emptying transition this cycle (note_maybe_idle)
  // can have turned idle, so only those are re-checked.
  for (const NodeId id : idle_checks_) {
    NodeWords& w = arena_.words(id);
    if (w.scheduled && !node_has_work(id)) {
      w.scheduled = false;
      sched_words_[static_cast<std::size_t>(id) >> 6] &= ~(1ull << (id & 63));
    }
  }
  idle_checks_.clear();
  return true;
}

void Network::publish_tick_metrics() {
  using Field = std::uint64_t TickWork::*;
  static constexpr std::pair<const char*, Field> kTickWork[] = {
      {"net.tick.drain_visits", &TickWork::drain_visits},
      {"net.tick.inject_visits", &TickWork::inject_visits},
      {"net.tick.alloc_visits", &TickWork::alloc_visits},
      {"net.tick.traverse_visits", &TickWork::traverse_visits},
      {"net.tick.alloc_attempts", &TickWork::alloc_attempts},
      {"net.tick.grants", &TickWork::grants},
      {"net.tick.move_attempts", &TickWork::move_attempts},
      {"net.tick.moves", &TickWork::moves},
      {"net.tick.head_parks", &TickWork::head_parks},
      {"net.tick.vc_parks", &TickWork::vc_parks},
  };
  for (const auto& [name, field] : kTickWork) {
    std::uint64_t sum = 0;
    for (const Router& r : routers_) sum += r.tick_work().*field;
    metrics_->counter(name).set(sum);
  }
}

} // namespace mdw::noc
