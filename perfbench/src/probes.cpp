#include "probes.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile_of(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

ReplayResult replay_plans(const std::vector<PlanInput>& inputs,
                          mdw::core::Scheme scheme,
                          const mdw::noc::MeshShape& mesh,
                          const mdw::noc::WormSizing& sizing,
                          int cache_entries) {
  // One pass takes tens of milliseconds at most: alternate the two sides
  // for a few rounds and keep each side's median pass.
  constexpr int kRounds = 5;
  const Clock::time_point start = Clock::now();
  ReplayResult out;
  out.txns = inputs.size();
  std::vector<double> plan_ns, cached_ns;
  std::size_t sink = 0;  // keeps the plans observable
  for (int round = 0; round < kRounds; ++round) {
    Clock::time_point t0 = Clock::now();
    for (const PlanInput& in : inputs) {
      sink += mdw::core::plan_invalidation(scheme, mesh, in.home, in.sharers,
                                           in.txn, sizing)
                  .request_worms.size();
    }
    plan_ns.push_back(static_cast<double>(ns_between(t0, Clock::now())));

    mdw::core::PlanCache cache(cache_entries);
    t0 = Clock::now();
    for (const PlanInput& in : inputs) {
      sink -= cache.get_or_build(scheme, mesh, in.home, in.sharers, in.txn,
                                 sizing)
                  .request_worms.size();
    }
    cached_ns.push_back(static_cast<double>(ns_between(t0, Clock::now())));
    out.cache_hits = cache.stats().hits;
    out.cache_misses = cache.stats().misses;
  }
  out.plan_ns = static_cast<std::int64_t>(quantile_of(plan_ns, 0.5));
  out.cached_ns = static_cast<std::int64_t>(quantile_of(cached_ns, 0.5));
  if (sink != 0) out.txns = 0;  // planner and cache disagreed: report none
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

namespace {

double counter(const mdw::obs::MetricsRegistry& reg, const char* name) {
  const mdw::obs::Counter* c = reg.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_registry_layers(const mdw::obs::MetricsRegistry& reg,
                         bool svc_present, Metrics& out) {
  out.push_back({"noc.worms_injected", counter(reg, "worms_injected"), ""});
  out.push_back({"noc.flit_hops", counter(reg, "link_flit_hops"), ""});
  out.push_back({"noc.gather_deferred", counter(reg, "gather_deferred"), ""});
  out.push_back({"noc.alloc_stall_cycles",
                 counter(reg, "router.alloc_stall_cycles"), ""});
  out.push_back({"noc.cons_blocked_cycles",
                 counter(reg, "router.cons_blocked_cycles"), ""});
  out.push_back({"noc.bank_blocked_cycles",
                 counter(reg, "router.bank_blocked_cycles"), ""});
  out.push_back({"noc.ff_cycles", counter(reg, "net.ff_cycles"), ""});
  const double rc_hits = counter(reg, "route_cache.hits");
  const double rc_lookups = rc_hits + counter(reg, "route_cache.misses");
  out.push_back({"noc.route_cache.hit_ratio", ratio(rc_hits, rc_lookups), ""});
  out.push_back({"noc.route_cache.lookups", rc_lookups, ""});

  out.push_back({"dsm.msgs_sent", counter(reg, "node.msgs_sent"), ""});
  out.push_back({"dsm.occupancy_cycles", counter(reg, "node.occupancy_cycles"),
                 ""});

  if (svc_present) {
    out.push_back({"svc.enqueued", counter(reg, "svc.enqueued"), ""});
    out.push_back({"svc.queue_wait_cycles",
                   counter(reg, "svc.queue_wait_cycles"), ""});
    out.push_back({"svc.coalesced_txns", counter(reg, "svc.coalesced_txns"),
                   ""});
  }

  const double pc_hits = counter(reg, "plan_cache.hits");
  const double pc_lookups = pc_hits + counter(reg, "plan_cache.misses");
  out.push_back({"core.plan_cache.hit_ratio", ratio(pc_hits, pc_lookups), ""});
  out.push_back({"core.plan_cache.lookups", pc_lookups, ""});
}

void add_replay_layers(const ReplayResult& r, Metrics& out) {
  const double n = static_cast<double>(r.txns);
  out.push_back({"core.replay_txns", n, ""});
  out.push_back({"core.plan_ns_per_txn", ratio(static_cast<double>(r.plan_ns), n),
                 ""});
  out.push_back({"core.plan_cached_ns_per_txn",
                 ratio(static_cast<double>(r.cached_ns), n), ""});
  out.push_back({"core.replay_cache.hit_ratio",
                 ratio(static_cast<double>(r.cache_hits),
                       static_cast<double>(r.cache_hits + r.cache_misses)),
                 ""});
}

}  // namespace perfbench
