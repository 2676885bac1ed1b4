// Allocation pins (DESIGN.md sections 11 and 17).
//
// Linking this binary pulls in sim/alloc_guard.cpp, which replaces the global
// operator new/delete with counting versions.
//
// Steady state: the tests drive a raw Network through repeated identical
// unicast rounds: the first rounds are warmup (worm pool fills, ring queues
// and spill blocks reach their high-water capacity), then an AllocGuard
// brackets further rounds and must observe ZERO operator-new calls — the
// arena/pool/ring design means the hot loop never touches the heap once warm.
//
// Construction: per-node protocol state (cache lines, directory queues) is
// allocated on first use, so an idle cache or directory entry costs no heap
// and a whole Machine requests only its network and bookkeeping.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "dsm/cache.h"
#include "dsm/directory.h"
#include "dsm/machine.h"
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

TEST(AllocGuard, CacheConstructsAndProbesWithoutAllocating) {
  if (!sim::alloc_guard_active())
    GTEST_SKIP() << "counting allocator compiled out under this sanitizer";
  using dsm::Cache;
  using dsm::LineState;
  {
    sim::AllocGuard guard;
    Cache c(1024);
    // Reads, invalidations and downgrades of lines never installed.
    for (BlockAddr a : {0u, 5u, 1023u, 1024u, 4099u}) {
      EXPECT_EQ(c.lookup(a), LineState::Invalid);
      EXPECT_EQ(c.value_of(a), 0u);
      EXPECT_FALSE(c.invalidate(a));
      EXPECT_EQ(c.downgrade(a), 0u);
    }
    EXPECT_EQ(guard.delta(), 0u);
    EXPECT_EQ(guard.bytes(), 0u);
  }
  // Once the slot table exists, probing other never-used sets still
  // allocates nothing.
  Cache c(1024);
  c.install(7, LineState::Modified, 1);
  sim::AllocGuard guard;
  for (BlockAddr a : {0u, 5u, 1023u, 1024u, 4099u}) {
    EXPECT_EQ(c.lookup(a), LineState::Invalid);
    EXPECT_FALSE(c.invalidate(a));
    EXPECT_EQ(c.downgrade(a), 0u);
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(AllocGuard, DefaultDirEntryDoesNotAllocate) {
  if (!sim::alloc_guard_active())
    GTEST_SKIP() << "counting allocator compiled out under this sanitizer";
  sim::AllocGuard guard;
  {
    dsm::DirEntry e;
    EXPECT_TRUE(e.queue.empty());
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(AllocGuard, MachineConstructionFootprint32x32) {
  if (!sim::alloc_guard_active())
    GTEST_SKIP() << "counting allocator compiled out under this sanitizer";
  dsm::SystemParams p;
  p.mesh_w = 32;
  p.mesh_h = 32;
  std::uint64_t bytes = 0;
  {
    sim::AllocGuard guard;
    dsm::Machine m(p);
    bytes = guard.bytes();
  }
  // Dense 1,024-line caches alone took 25 MB at 32x32 (29.7 MB in all).
  // With node state allocated on first use, the network, the nodes' fixed
  // fields and the memo tables are left: about 3.9 MB.
  EXPECT_LT(bytes, 6u * 1000 * 1000);
}

} // namespace
} // namespace mdw::noc
