// Steady-state allocation pins (DESIGN.md sections 11 and 17).
//
// Linking this binary pulls in sim/alloc_guard.cpp, which replaces the global
// operator new/delete with counting versions.  The tests drive a raw Network
// through repeated identical unicast rounds: the first rounds are warmup
// (worm pool fills, ring queues and spill blocks reach their high-water
// capacity), then an AllocGuard brackets further rounds and must observe ZERO
// operator-new calls — the arena/pool/ring design means the hot loop never
// touches the heap once warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "noc/network.h"
#include "noc/worm_builder.h"
#include "sim/alloc_guard.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace mdw::noc {
namespace {

/// Run `rounds` identical unicast bursts on one persistent Network, starting
/// the allocation guard after `warmup` rounds.  Returns the operator-new
/// count observed across the guarded rounds.
std::uint64_t guarded_new_calls(int warmup, int rounds) {
  sim::Engine eng;
  const MeshShape mesh(8, 8);
  Network net(eng, mesh, NocParams{});

  std::uint64_t delivered = 0;
  net.set_delivery_handler(
      [&delivered](NodeId, const WormPtr&) { ++delivered; });

  // Pre-plan one round's injections so every round is byte-identical work.
  const int n = mesh.num_nodes();
  struct Plan {
    NodeId src;
    NodeId dst;
  };
  std::vector<Plan> plan;
  sim::Rng rng(2024);
  for (int i = 0; i < 2 * n; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(n));
    auto d = static_cast<NodeId>(rng.next_below(n));
    if (d == s) d = (d + 1) % n;
    plan.push_back({s, d});
  }

  TxnId txn = 0;
  std::uint64_t guarded = 0;
  for (int round = 0; round < rounds; ++round) {
    const bool guard_this = round >= warmup;
    if (guard_this && std::getenv("MDW_ALLOC_TRACE")) sim::alloc_guard_trace(true);
    sim::AllocGuard guard;
    for (const Plan& p : plan) {
      net.inject(make_unicast(mesh, RoutingAlgo::EcubeXY, VNet::Request, p.src,
                              p.dst, 16, ++txn, nullptr));
    }
    EXPECT_TRUE(eng.run_to_quiescence(1'000'000));
    if (guard_this) guarded += guard.delta();
  }
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(rounds) * plan.size());
  EXPECT_EQ(net.worms_in_flight(), 0u);
  return guarded;
}

TEST(AllocGuard, CounterAdvancesOnHeapAllocation) {
  if (!sim::alloc_guard_active())
    GTEST_SKIP() << "counting allocator compiled out under this sanitizer";
  sim::AllocGuard guard;
  // Volatile pointer defeats heap-elision of the unused new-expression.
  int* volatile p = new int(7);
  delete p;
  EXPECT_GE(guard.delta(), 1u);
}

TEST(AllocGuard, SequentialKernelSteadyStateAllocFree) {
  if (!sim::alloc_guard_active())
    GTEST_SKIP() << "counting allocator compiled out under this sanitizer";
  EXPECT_EQ(guarded_new_calls(/*warmup=*/3, /*rounds=*/6), 0u);
}

} // namespace
} // namespace mdw::noc
