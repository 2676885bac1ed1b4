#include "noc/worm_builder.h"

#include <atomic>
#include <cassert>

#include "noc/worm_pool.h"

namespace mdw::noc {

namespace {
std::atomic<WormId> g_next_worm_id{1};
}

bool worm_is_well_formed(const MeshShape& mesh, RoutingAlgo algo,
                         const Worm& w) {
  if (w.path.empty() || w.dests.empty()) return false;
  if (w.dests.back().node != w.path.back()) return false;
  if (!is_conformant_path(algo, mesh, {w.path.data(), w.path.size()}))
    return false;
  // Destinations must appear in path order and be unique.
  std::size_t cursor = 0;
  for (const auto& d : w.dests) {
    bool found = false;
    while (cursor < w.path.size()) {
      if (w.path[cursor] == d.node) {
        found = true;
        ++cursor;  // next dest must be strictly later in the path
        break;
      }
      ++cursor;
    }
    if (!found) return false;
  }
  for (const auto& d : w.dests) {
    const bool gather_action = d.action == DestAction::GatherPickup ||
                               d.action == DestAction::GatherDeposit;
    if (gather_action && w.kind != WormKind::Gather) return false;
    if (d.action == DestAction::ReserveOnly && d.node == w.path.back())
      return false;
    if (d.action == DestAction::GatherDeposit && d.node != w.path.back())
      return false;
  }
  return true;
}

WormPtr make_unicast(const MeshShape& mesh, RoutingAlgo algo, VNet vnet,
                     NodeId src, NodeId dst, int length_flits, TxnId txn,
                     std::shared_ptr<const Payload> payload) {
  WormPtr w = WormPool::local().acquire();
  w->id = g_next_worm_id++;
  w->kind = WormKind::Unicast;
  w->vnet = vnet;
  w->txn = txn;
  w->src = src;
  append_unicast_path(algo, mesh, src, dst, w->path);
  w->dests.push_back(DestSpec{dst, DestAction::Deliver, 1});
  assert(worm_is_well_formed(mesh, algo, *w));
  w->length_flits = length_flits;
  w->payload = std::move(payload);
  return w;
}

WormPtr make_adaptive_unicast(RoutingAlgo algo, VNet vnet, NodeId src,
                              NodeId dst, int length_flits, TxnId txn,
                              std::shared_ptr<const Payload> payload) {
  assert(algo == RoutingAlgo::WestFirst || algo == RoutingAlgo::EastFirst);
  WormPtr w = WormPool::local().acquire();
  w->id = g_next_worm_id++;
  w->kind = WormKind::Unicast;
  w->vnet = vnet;
  w->txn = txn;
  w->src = src;
  w->path.push_back(src);  // extended hop by hop inside the routers
  w->dests.push_back(DestSpec{dst, DestAction::Deliver, 1});
  w->length_flits = length_flits;
  w->payload = std::move(payload);
  w->adaptive = true;
  w->adaptive_algo = algo;
  return w;
}

WormPtr make_multidest(const MeshShape& mesh, RoutingAlgo algo, WormKind kind,
                       VNet vnet, std::vector<NodeId> path,
                       std::vector<DestSpec> dests, int length_flits,
                       TxnId txn, std::shared_ptr<const Payload> payload) {
  WormPtr w = WormPool::local().acquire();
  w->id = g_next_worm_id++;
  w->kind = kind;
  w->vnet = vnet;
  w->txn = txn;
  w->src = path.front();
  w->path.assign(path.begin(), path.end());
  w->dests.assign(dests.begin(), dests.end());
  w->length_flits = length_flits;
  w->payload = std::move(payload);
  assert(worm_is_well_formed(mesh, algo, *w));
  (void)mesh;
  (void)algo;
  return w;
}

WormPtr make_from_blueprint(WormKind kind, VNet vnet, const NodeId* path,
                            std::size_t path_len, const DestSpec* dests,
                            std::size_t num_dests, int length_flits, TxnId txn,
                            std::shared_ptr<const Payload> payload) {
  WormPtr w = WormPool::local().acquire();
  w->id = g_next_worm_id++;
  w->kind = kind;
  w->vnet = vnet;
  w->txn = txn;
  w->src = path[0];
  w->path.assign(path, path + path_len);
  w->dests.assign(dests, dests + num_dests);
  w->length_flits = length_flits;
  w->payload = std::move(payload);
  return w;
}

} // namespace mdw::noc
