// Validation tests for worm construction: the well-formedness rules that
// protect the router from malformed multidestination worms.
#include <gtest/gtest.h>

#include "core/inval_planner.h"
#include "noc/worm_builder.h"

namespace mdw::noc {
namespace {

const MeshShape mesh(8, 8);

Worm base_worm() {
  Worm w;
  w.kind = WormKind::Multicast;
  w.path = {mesh.id_of({0, 0}), mesh.id_of({1, 0}), mesh.id_of({2, 0})};
  w.dests = {DestSpec{mesh.id_of({1, 0}), DestAction::Deliver, 1},
             DestSpec{mesh.id_of({2, 0}), DestAction::Deliver, 1}};
  return w;
}

TEST(WormBuilder, AcceptsWellFormedMulticast) {
  EXPECT_TRUE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, base_worm()));
}

TEST(WormBuilder, RejectsEmptyPathOrDests) {
  Worm w = base_worm();
  w.path.clear();
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
  w = base_worm();
  w.dests.clear();
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsFinalDestMismatch) {
  Worm w = base_worm();
  w.dests.back().node = mesh.id_of({1, 0});  // not path.back()
  w.dests.pop_back();
  w.dests.push_back(DestSpec{mesh.id_of({5, 5}), DestAction::Deliver, 1});
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsOutOfOrderDests) {
  Worm w = base_worm();
  std::swap(w.dests[0], w.dests[1]);
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsDestOffPath) {
  Worm w = base_worm();
  w.dests[0].node = mesh.id_of({5, 5});
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsNonConformantPath) {
  Worm w = base_worm();
  // Y then X: illegal under XY, legal under YX.
  w.path = {mesh.id_of({0, 0}), mesh.id_of({0, 1}), mesh.id_of({1, 1})};
  w.dests = {DestSpec{mesh.id_of({1, 1}), DestAction::Deliver, 1}};
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
  EXPECT_TRUE(worm_is_well_formed(mesh, RoutingAlgo::EcubeYX, w));
}

TEST(WormBuilder, RejectsGatherActionsOnMulticast) {
  Worm w = base_worm();
  w.dests[0].action = DestAction::GatherPickup;
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
  w = base_worm();
  w.kind = WormKind::Gather;
  w.dests[0].action = DestAction::GatherPickup;
  EXPECT_TRUE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsReserveOnlyAtFinal) {
  Worm w = base_worm();
  w.dests.back().action = DestAction::ReserveOnly;
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, RejectsDepositAtIntermediate) {
  Worm w = base_worm();
  w.kind = WormKind::Gather;
  w.dests[0].action = DestAction::GatherDeposit;
  EXPECT_FALSE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
  w = base_worm();
  w.kind = WormKind::Gather;
  w.dests.back().action = DestAction::GatherDeposit;
  EXPECT_TRUE(worm_is_well_formed(mesh, RoutingAlgo::EcubeXY, w));
}

TEST(WormBuilder, MakeUnicastProducesMinimalPath) {
  auto w = make_unicast(mesh, RoutingAlgo::WestFirst, VNet::Reply,
                        mesh.id_of({6, 2}), mesh.id_of({1, 5}), 8, 7, nullptr);
  EXPECT_EQ(static_cast<int>(w->path.size()) - 1,
            mesh.manhattan(w->src, w->final_dest()));
  EXPECT_EQ(w->kind, WormKind::Unicast);
  EXPECT_EQ(w->txn, 7u);
  EXPECT_EQ(w->dests.size(), 1u);
}

TEST(WormBuilder, UniqueWormIds) {
  auto a = make_unicast(mesh, RoutingAlgo::EcubeXY, VNet::Request, 0, 5, 8, 1,
                        nullptr);
  auto b = make_unicast(mesh, RoutingAlgo::EcubeXY, VNet::Request, 0, 5, 8, 1,
                        nullptr);
  EXPECT_NE(a->id, b->id);
}

TEST(WormBuilder, GatherWormsDrawFromTheSharedIdCounter) {
  // An i-gather worm and a unicast built back to back get consecutive ids:
  // one counter numbers every worm, so ids stay unique however many worms a
  // process builds.
  core::GatherPlan plan;
  plan.initiator = mesh.id_of({2, 0});
  plan.path = {mesh.id_of({2, 0}), mesh.id_of({1, 0}), mesh.id_of({0, 0})};
  plan.dests = {DestSpec{mesh.id_of({0, 0}), DestAction::Deliver, 1}};
  plan.length_flits = 8;
  plan.vc_class = 1;
  const WormPtr g = core::build_gather_worm(plan, 9);
  const WormPtr u = make_unicast(mesh, RoutingAlgo::EcubeXY, VNet::Request,
                                 0, 5, 8, 1, nullptr);
  EXPECT_EQ(u->id, g->id + 1);
  EXPECT_EQ(g->kind, WormKind::Gather);
  EXPECT_EQ(g->vnet, VNet::Reply);
  EXPECT_EQ(g->src, plan.initiator);
  EXPECT_EQ(g->txn, 9u);
  EXPECT_EQ(g->vc_class, 1);
  EXPECT_EQ(g->gathered, 1);
}

TEST(WormBuilder, SizingModel) {
  WormSizing sz;
  EXPECT_EQ(sz.control_size(1), sz.control_flits);
  EXPECT_EQ(sz.control_size(5), sz.control_flits + 4 * sz.per_extra_dest);
  EXPECT_GT(sz.data_flits, sz.control_flits);
}

} // namespace
} // namespace mdw::noc
