// Integration tests for multidestination worms: forward-and-absorb
// multicast, i-reserve reservations, i-gather pickup, and deferred delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "noc/network.h"
#include "noc/worm_builder.h"
#include "sim/engine.h"

namespace mdw::noc {
namespace {

struct Fixture {
  sim::Engine eng;
  MeshShape mesh;
  NocParams params;
  Network net;
  std::vector<std::pair<NodeId, WormPtr>> delivered;

  explicit Fixture(NocParams p = {}, int w = 8, int h = 8)
      : mesh(w, h), params(p), net(eng, mesh, params) {
    net.set_delivery_handler(
        [this](NodeId n, const WormPtr& worm) { delivered.emplace_back(n, worm); });
  }

  // A column multicast: (0,0) -> E..E -> (3,0) -> N..N -> (3,5), absorbing at
  // (3,1), (3,3) and terminating at (3,5).
  WormPtr column_multicast(DestAction mid_action, TxnId txn = 1) {
    std::vector<NodeId> path;
    for (int x = 0; x <= 3; ++x) path.push_back(mesh.id_of({x, 0}));
    for (int y = 1; y <= 5; ++y) path.push_back(mesh.id_of({3, y}));
    std::vector<DestSpec> dests{
        DestSpec{mesh.id_of({3, 1}), mid_action, 1},
        DestSpec{mesh.id_of({3, 3}), mid_action, 1},
        DestSpec{mesh.id_of({3, 5}),
                 mid_action == DestAction::DeliverAndReserve
                     ? DestAction::DeliverAndReserve
                     : DestAction::Deliver,
                 1},
    };
    return make_multidest(mesh, RoutingAlgo::EcubeXY, WormKind::Multicast,
                          VNet::Request, std::move(path), std::move(dests), 10,
                          txn, nullptr);
  }
};

TEST(NetworkMulticast, ForwardAndAbsorbDeliversAtEveryDestination) {
  Fixture f;
  auto w = f.column_multicast(DestAction::Deliver);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  ASSERT_EQ(f.delivered.size(), 3u);
  std::set<NodeId> got;
  for (auto& [n, worm] : f.delivered) {
    EXPECT_EQ(worm.get(), w.get());
    got.insert(n);
  }
  EXPECT_EQ(got, (std::set<NodeId>{f.mesh.id_of({3, 1}), f.mesh.id_of({3, 3}),
                                   f.mesh.id_of({3, 5})}));
  // One worm, one final delivery, two intermediate absorptions.
  EXPECT_EQ(f.net.stats().worms_delivered, 1u);
  EXPECT_EQ(f.net.stats().absorb_deliveries, 2u);
}

TEST(NetworkMulticast, IntermediateDeliveryPrecedesFinal) {
  Fixture f;
  auto w = f.column_multicast(DestAction::Deliver);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  ASSERT_EQ(f.delivered.size(), 3u);
  // Deliveries arrive in path order: (3,1), (3,3), (3,5).
  EXPECT_EQ(f.delivered[0].first, f.mesh.id_of({3, 1}));
  EXPECT_EQ(f.delivered[1].first, f.mesh.id_of({3, 3}));
  EXPECT_EQ(f.delivered[2].first, f.mesh.id_of({3, 5}));
}

TEST(NetworkMulticast, MulticastCheaperThanUnicastsInFlitHops) {
  // The headline traffic claim: one multidestination worm covering a column
  // produces fewer link flit-hops than per-destination unicasts.
  Fixture f;
  auto w = f.column_multicast(DestAction::Deliver);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  const auto multi_hops = f.net.stats().link_flit_hops;

  Fixture g;
  const NodeId src = g.mesh.id_of({0, 0});
  for (Coord c : {Coord{3, 1}, Coord{3, 3}, Coord{3, 5}}) {
    g.net.inject(make_unicast(g.mesh, RoutingAlgo::EcubeXY, VNet::Request, src,
                              g.mesh.id_of(c), 8, 1, nullptr));
  }
  ASSERT_TRUE(g.eng.run_to_quiescence(100'000));
  EXPECT_LT(multi_hops, g.net.stats().link_flit_hops);
}

TEST(NetworkMulticast, ReserveCreatesBankEntries) {
  Fixture f;
  auto w = f.column_multicast(DestAction::DeliverAndReserve, 77);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  for (Coord c : {Coord{3, 1}, Coord{3, 3}, Coord{3, 5}}) {
    EXPECT_EQ(f.net.router(f.mesh.id_of(c)).bank().entries_in_use(), 1)
        << "(" << c.x << "," << c.y << ")";
  }
  // Non-destination routers on the path hold no entries.
  EXPECT_EQ(f.net.router(f.mesh.id_of({3, 2})).bank().entries_in_use(), 0);
}

TEST(NetworkMulticast, GatherPicksUpPostedAcks) {
  Fixture f;
  // Reserve entries along the column first.
  f.net.inject(f.column_multicast(DestAction::DeliverAndReserve, 5));
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  // Nodes post their i-acks.
  f.net.post_iack(f.mesh.id_of({3, 1}), 5, 1);
  f.net.post_iack(f.mesh.id_of({3, 3}), 5, 1);
  f.net.post_iack(f.mesh.id_of({3, 5}), 5, 1);
  ASSERT_TRUE(f.eng.run_to_quiescence(1'000));
  // Gather worm from (3,6) sweeps south to (3,0)... stays conformant with
  // the reply network (YX): column segment then row segment to home (0,0).
  std::vector<NodeId> path;
  for (int y = 5; y >= 0; --y) path.push_back(f.mesh.id_of({3, y}));
  for (int x = 2; x >= 0; --x) path.push_back(f.mesh.id_of({x, 0}));
  std::vector<DestSpec> dests{
      DestSpec{f.mesh.id_of({3, 3}), DestAction::GatherPickup, 1},
      DestSpec{f.mesh.id_of({3, 1}), DestAction::GatherPickup, 1},
      DestSpec{f.mesh.id_of({0, 0}), DestAction::Deliver, 1},
  };
  auto gw = make_multidest(f.mesh, RoutingAlgo::EcubeYX, WormKind::Gather,
                           VNet::Reply, std::move(path), std::move(dests), 8,
                           5, nullptr);
  gw->gathered = 1;  // the initiating sharer's own ack, (3,5)
  // (3,5) already posted; free that entry to model the initiator carrying
  // its ack directly: pick it up through the worm's starting router is not
  // modelled, so gather starts beyond it.
  f.delivered.clear();
  f.net.inject(gw);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, f.mesh.id_of({0, 0}));
  EXPECT_EQ(gw->gathered, 3);  // initiator + two pickups
  EXPECT_EQ(f.net.router(f.mesh.id_of({3, 3})).bank().entries_in_use(), 0);
  EXPECT_EQ(f.net.router(f.mesh.id_of({3, 1})).bank().entries_in_use(), 0);
}

TEST(NetworkMulticast, GatherDefersUntilAckPosted) {
  Fixture f;
  f.net.inject(f.column_multicast(DestAction::DeliverAndReserve, 9));
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  // Only (3,1) posts now; (3,3)'s ack is late.
  f.net.post_iack(f.mesh.id_of({3, 1}), 9, 1);

  std::vector<NodeId> path;
  for (int y = 5; y >= 0; --y) path.push_back(f.mesh.id_of({3, y}));
  for (int x = 2; x >= 0; --x) path.push_back(f.mesh.id_of({x, 0}));
  auto gw = make_multidest(
      f.mesh, RoutingAlgo::EcubeYX, WormKind::Gather, VNet::Reply,
      std::move(path),
      {DestSpec{f.mesh.id_of({3, 3}), DestAction::GatherPickup, 1},
       DestSpec{f.mesh.id_of({3, 1}), DestAction::GatherPickup, 1},
       DestSpec{f.mesh.id_of({0, 0}), DestAction::Deliver, 1}},
      8, 9, nullptr);
  gw->gathered = 1;
  f.delivered.clear();
  f.net.inject(gw);
  // The gather worm parks at (3,3): no delivery possible yet.
  ASSERT_FALSE(f.eng.run_until([&] { return !f.delivered.empty(); }, 5'000));
  EXPECT_GE(f.net.stats().gather_deferred, 1u);
  // The late ack releases it.
  f.net.post_iack(f.mesh.id_of({3, 3}), 9, 1);
  ASSERT_TRUE(f.eng.run_until([&] { return !f.delivered.empty(); }, 100'000));
  EXPECT_EQ(f.delivered[0].first, f.mesh.id_of({0, 0}));
  EXPECT_EQ(gw->gathered, 3);
}

TEST(NetworkMulticast, ReserveOnlyLeavesEntryWithoutDelivering) {
  Fixture f;
  // Worm along a row that reserves at (2,0) without delivering, then
  // terminates at (5,0).
  std::vector<NodeId> path;
  for (int x = 0; x <= 5; ++x) path.push_back(f.mesh.id_of({x, 0}));
  auto w = make_multidest(
      f.mesh, RoutingAlgo::EcubeXY, WormKind::Multicast, VNet::Request,
      std::move(path),
      {DestSpec{f.mesh.id_of({2, 0}), DestAction::ReserveOnly, 2},
       DestSpec{f.mesh.id_of({5, 0}), DestAction::Deliver, 1}},
      8, 4, nullptr);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  ASSERT_EQ(f.delivered.size(), 1u);  // only the final destination
  EXPECT_EQ(f.delivered[0].first, f.mesh.id_of({5, 0}));
  EXPECT_EQ(f.net.router(f.mesh.id_of({2, 0})).bank().entries_in_use(), 1);
}

TEST(NetworkMulticast, ConsumptionChannelExhaustionBlocksButRecovers) {
  // With a single consumption channel, overlapping multicasts through the
  // same absorbing node serialize but all deliver.
  NocParams p;
  p.consumption_channels = 1;
  Fixture f(p);
  for (TxnId t = 0; t < 4; ++t) {
    f.net.inject(f.column_multicast(DestAction::Deliver, t));
  }
  ASSERT_TRUE(f.eng.run_to_quiescence(500'000));
  EXPECT_EQ(f.delivered.size(), 12u);  // 4 worms x 3 destinations
}

TEST(NetworkMulticast, WestFirstSerpentineWormDelivers) {
  Fixture f;
  // home (4,3): W to (2,3), then serpentine: N to (2,5), E to (3,5), S to
  // (3,1), E to (5,1), N to (5,4). Destinations scattered along the way.
  auto at = [&](int x, int y) { return f.mesh.id_of({x, y}); };
  std::vector<NodeId> path{at(4, 3), at(3, 3), at(2, 3), at(2, 4), at(2, 5),
                           at(3, 5), at(3, 4), at(3, 3), at(3, 2), at(3, 1),
                           at(4, 1), at(5, 1), at(5, 2), at(5, 3), at(5, 4)};
  std::vector<DestSpec> dests{
      DestSpec{at(2, 3), DestAction::Deliver, 1},
      DestSpec{at(2, 5), DestAction::Deliver, 1},
      DestSpec{at(3, 1), DestAction::Deliver, 1},
      DestSpec{at(5, 4), DestAction::Deliver, 1},
  };
  auto w = make_multidest(f.mesh, RoutingAlgo::WestFirst, WormKind::Multicast,
                          VNet::Request, std::move(path), std::move(dests), 12,
                          1, nullptr);
  f.net.inject(w);
  ASSERT_TRUE(f.eng.run_to_quiescence(100'000));
  EXPECT_EQ(f.delivered.size(), 4u);
}

TEST(NetworkMulticast, IackPostIsDrainWorkOnly) {
  // An i-ack post adds phase-1 work and no flit, so the posting router is
  // drained once and never visited by phase 4 (traverse).
  Fixture f({}, 4, 4);
  f.net.post_iack(5, 7, 1);
  EXPECT_TRUE(f.eng.run_to_quiescence(1000));
  const TickWork& work = f.net.router(5).tick_work();
  EXPECT_EQ(work.drain_visits, 1u);
  EXPECT_EQ(work.traverse_visits, 0u);
}

TEST(NetworkMulticast, ConcurrentMulticastsToDisjointColumnsProgress) {
  Fixture f;
  // Several homes invalidate different columns concurrently.
  for (int c = 1; c <= 6; ++c) {
    std::vector<NodeId> path;
    for (int x = 0; x <= c; ++x) path.push_back(f.mesh.id_of({x, 0}));
    for (int y = 1; y <= 6; ++y) path.push_back(f.mesh.id_of({c, y}));
    auto w = make_multidest(
        f.mesh, RoutingAlgo::EcubeXY, WormKind::Multicast, VNet::Request,
        std::move(path),
        {DestSpec{f.mesh.id_of({c, 2}), DestAction::Deliver, 1},
         DestSpec{f.mesh.id_of({c, 6}), DestAction::Deliver, 1}},
        10, static_cast<TxnId>(c), nullptr);
    f.net.inject(w);
  }
  ASSERT_TRUE(f.eng.run_to_quiescence(500'000));
  EXPECT_EQ(f.delivered.size(), 12u);
}

} // namespace
} // namespace mdw::noc
