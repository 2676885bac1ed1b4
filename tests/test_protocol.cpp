// Deterministic protocol scenario tests on a small machine, parameterized
// over every grouping scheme: misses, upgrades, recalls, writebacks, and the
// invalidation transaction itself.  Then one case per row of the cache
// controller's and the home's race tables (DESIGN.md section 14), each
// built by holding chosen messages back and releasing them later.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dsm/machine.h"
#include "noc/worm_builder.h"

namespace mdw::dsm {
namespace {

SystemParams small_params(core::Scheme s) {
  SystemParams p;
  p.mesh_w = 4;
  p.mesh_h = 4;
  p.scheme = s;
  p.cache_lines = 64;
  return p;
}

constexpr Cycle kBudget = 2'000'000;

class ProtocolScenarios : public ::testing::TestWithParam<core::Scheme> {
protected:
  void SetUp() override {
    m = std::make_unique<Machine>(small_params(GetParam()));
  }

  std::uint64_t do_read(NodeId n, BlockAddr a) {
    std::uint64_t got = ~0ull;
    bool done = false;
    m->node(n).read(a, [&](std::uint64_t v) {
      got = v;
      done = true;
    });
    EXPECT_TRUE(m->engine().run_until([&] { return done; }, kBudget));
    return got;
  }

  void do_write(NodeId n, BlockAddr a, std::uint64_t v) {
    bool done = false;
    m->node(n).write(a, v, [&] { done = true; });
    EXPECT_TRUE(m->engine().run_until([&] { return done; }, kBudget));
  }

  void settle() {
    EXPECT_TRUE(m->engine().run_to_quiescence(kBudget));
    const std::string err = m->check_coherence();
    EXPECT_TRUE(err.empty()) << err;
  }

  std::unique_ptr<Machine> m;
};

TEST_P(ProtocolScenarios, CleanReadMiss) {
  const BlockAddr a = 5;  // home = node 5
  EXPECT_EQ(do_read(0, a), 0u);
  EXPECT_EQ(m->node(0).cache().lookup(a), LineState::Shared);
  const auto* e = m->node(5).directory().find(a);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_TRUE(e->sharers.contains(0));
  settle();
}

TEST_P(ProtocolScenarios, ReadHitAfterMiss) {
  const BlockAddr a = 5;
  do_read(0, a);
  const auto before = m->node(0).cache().stats().hits;
  do_read(0, a);
  EXPECT_EQ(m->node(0).cache().stats().hits, before + 1);
  settle();
}

TEST_P(ProtocolScenarios, WriteMissGrantsExclusive) {
  const BlockAddr a = 7;
  do_write(2, a, 123);
  EXPECT_EQ(m->node(2).cache().lookup(a), LineState::Modified);
  const auto* e = m->node(7).directory().find(a);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Exclusive);
  EXPECT_EQ(e->owner, 2);
  settle();
}

TEST_P(ProtocolScenarios, ReadAfterRemoteWriteRecallsData) {
  const BlockAddr a = 7;
  do_write(2, a, 123);
  EXPECT_EQ(do_read(9, a), 123u);
  // The writer keeps a Shared copy after the downgrade.
  EXPECT_EQ(m->node(2).cache().lookup(a), LineState::Shared);
  const auto* e = m->node(7).directory().find(a);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_TRUE(e->sharers.contains(2));
  EXPECT_TRUE(e->sharers.contains(9));
  settle();
}

TEST_P(ProtocolScenarios, WriteToSharedBlockInvalidatesAllSharers) {
  const BlockAddr a = 3;
  // Build up 7 sharers.
  std::vector<NodeId> readers{0, 1, 2, 5, 9, 12, 15};
  for (NodeId r : readers) EXPECT_EQ(do_read(r, a), 0u);
  do_write(6, a, 999);
  for (NodeId r : readers) {
    EXPECT_EQ(m->node(r).cache().lookup(a), LineState::Invalid)
        << "sharer " << r;
  }
  const auto* e = m->node(3).directory().find(a);
  EXPECT_EQ(e->state, DirState::Exclusive);
  EXPECT_EQ(e->owner, 6);
  EXPECT_EQ(m->stats().inval_txns, 1u);
  EXPECT_EQ(do_read(1, a), 999u);
  settle();
}

TEST_P(ProtocolScenarios, UpgradeFromSharedExcludesRequester) {
  const BlockAddr a = 3;
  do_read(6, a);   // requester becomes a sharer first
  do_read(1, a);
  do_read(2, a);
  do_write(6, a, 50);  // upgrade: only nodes 1 and 2 need invalidation
  EXPECT_EQ(m->stats().inval_txns, 1u);
  EXPECT_DOUBLE_EQ(m->stats().inval_sharers.mean(), 2.0);
  EXPECT_EQ(m->node(6).cache().lookup(a), LineState::Modified);
  settle();
}

TEST_P(ProtocolScenarios, WriteAfterWriteRecalls) {
  const BlockAddr a = 11;
  do_write(0, a, 1);
  do_write(15, a, 2);
  EXPECT_EQ(m->node(0).cache().lookup(a), LineState::Invalid);
  EXPECT_EQ(m->node(15).cache().lookup(a), LineState::Modified);
  EXPECT_EQ(do_read(4, a), 2u);
  settle();
}

TEST_P(ProtocolScenarios, HomeOwnCopyInvalidatedLocally) {
  const BlockAddr a = 3;  // home = 3
  do_read(3, a);          // the home caches its own block
  do_read(1, a);
  do_write(9, a, 77);
  EXPECT_EQ(m->node(3).cache().lookup(a), LineState::Invalid);
  // Only node 1 needed a network invalidation.
  EXPECT_DOUBLE_EQ(m->stats().inval_sharers.mean(), 1.0);
  settle();
}

TEST_P(ProtocolScenarios, DirtyEvictionWritesBack) {
  auto p = small_params(GetParam());
  p.cache_lines = 2;  // force conflict evictions
  m = std::make_unique<Machine>(p);
  do_write(0, 1, 10);
  do_write(0, 3, 30);  // maps to the same set as 1 (2 lines)
  do_write(0, 5, 50);
  settle();
  // The evicted blocks' homes must have absorbed the writebacks.
  const auto* e1 = m->node(1).directory().find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->state, DirState::Uncached);
  EXPECT_EQ(e1->mem_value, 10u);
  EXPECT_EQ(do_read(2, 1), 10u);
  settle();
}

TEST_P(ProtocolScenarios, WriteMissAfterOwnDirtyEviction) {
  // Writer owns a block, evicts it (writeback in flight), then writes it
  // again: the home must wait for the writeback and re-grant.
  auto p = small_params(GetParam());
  p.cache_lines = 2;
  m = std::make_unique<Machine>(p);
  do_write(0, 1, 10);
  do_write(0, 3, 30);  // evicts block 1
  do_write(0, 1, 11);  // re-acquire
  EXPECT_EQ(do_read(5, 1), 11u);
  settle();
}

TEST_P(ProtocolScenarios, SequentialValuesVisibleInOrder) {
  const BlockAddr a = 2;
  for (std::uint64_t v = 1; v <= 5; ++v) {
    do_write(static_cast<NodeId>(v), a, v);
    EXPECT_EQ(do_read(static_cast<NodeId>(v + 5), a), v);
  }
  settle();
}

TEST_P(ProtocolScenarios, BroadcastInvalidation) {
  const BlockAddr a = 0;
  for (NodeId r = 1; r < 16; ++r) do_read(r, a);
  do_write(0, a, 42);  // home itself writes; 15 remote sharers
  for (NodeId r = 1; r < 16; ++r) {
    EXPECT_EQ(m->node(r).cache().lookup(a), LineState::Invalid);
  }
  EXPECT_EQ(m->node(0).cache().lookup(a), LineState::Modified);
  settle();
}

// ---------------------------------------------------------------------------
// Race rows.  A delivery handler logs every CohMsg the network delivers and
// holds back the ones a test asks for; release() hands a held worm to its
// node through Node::handle_delivery, as the network would have.  Holding a
// message models its worm being slow, so every order built here is one the
// request and reply virtual networks can produce.  4x4 mesh, UI-UA: block 5
// lives at node 5, block 6 at node 6, and with one cache line every block
// evicts every other.
// ---------------------------------------------------------------------------

struct Access {
  bool done = false;
  std::uint64_t value = ~0ull;
};

class RaceRows : public ::testing::Test {
protected:
  static constexpr BlockAddr kX = 5;  // home 5
  static constexpr BlockAddr kY = 6;  // home 6

  void build(int cache_lines, bool eager = false) {
    held.clear();  // before the machine whose pool owns these worms goes
    holds.clear();
    log.clear();
    SystemParams p = small_params(core::Scheme::UiUa);
    p.cache_lines = cache_lines;
    p.eager_exclusive_reply = eager;
    m = std::make_unique<Machine>(p);
    m->network().set_delivery_handler(
        [this](NodeId where, const noc::WormPtr& worm) {
          const auto* msg = dynamic_cast<const CohMsg*>(worm->payload.get());
          if (msg != nullptr) {
            log.push_back({where, msg->type});
            const auto h = std::find(holds.begin(), holds.end(),
                                     std::pair{msg->type, where});
            if (h != holds.end()) {
              holds.erase(h);
              held.push_back({where, worm});
              return;
            }
          }
          m->node(where).handle_delivery(worm);
        });
  }

  /// Hold back the next `t` delivered at `where`.
  void hold(MsgType t, NodeId where) { holds.emplace_back(t, where); }
  [[nodiscard]] bool is_held(MsgType t) const {
    return std::any_of(held.begin(), held.end(), [&](const auto& h) {
      return type_of(h.second) == t;
    });
  }
  /// Deliver the held `t` now.
  void release(MsgType t) {
    const auto h = std::find_if(held.begin(), held.end(), [&](const auto& x) {
      return type_of(x.second) == t;
    });
    ASSERT_NE(h, held.end());
    const auto [where, worm] = *h;
    held.erase(h);
    m->node(where).handle_delivery(worm);
  }
  /// Deliveries of `t` at `where` so far, held ones included.
  [[nodiscard]] long delivered(MsgType t, NodeId where) const {
    return std::count(log.begin(), log.end(), std::pair{where, t});
  }

  void read(NodeId n, BlockAddr a, Access& acc) {
    m->node(n).read(a, [&acc](std::uint64_t v) {
      acc.value = v;
      acc.done = true;
    });
  }
  void write(NodeId n, BlockAddr a, std::uint64_t v, Access& acc) {
    m->node(n).write(a, v, [&acc] { acc.done = true; });
  }
  void run_until(const std::function<bool()>& pred) {
    ASSERT_TRUE(m->engine().run_until(pred, kBudget));
  }
  /// Run until nothing moves; held messages stay held.
  void quiesce() { ASSERT_TRUE(m->engine().run_to_quiescence(kBudget)); }
  /// Blocking access from a node; returns what a read saw.
  std::uint64_t read_now(NodeId n, BlockAddr a) {
    Access acc;
    read(n, a, acc);
    run_until([&] { return acc.done; });
    return acc.value;
  }
  void write_now(NodeId n, BlockAddr a, std::uint64_t v) {
    Access acc;
    write(n, a, v, acc);
    run_until([&] { return acc.done; });
  }
  [[nodiscard]] const DirEntry& dir(BlockAddr a) {
    return m->node(m->home_of(a)).directory().entry(a);
  }
  [[nodiscard]] LineState line(NodeId n, BlockAddr a) const {
    return m->node(n).cache().lookup(a);
  }
  void settle() {
    quiesce();
    EXPECT_TRUE(held.empty());
    EXPECT_TRUE(m->all_idle());
    EXPECT_EQ(m->check_coherence(), "");
  }

  /// Node 0 owns X with value 10, then installs Y, which evicts X: the
  /// Writeback of X is held at X's home.
  void owner_evicts_x_writeback_held() {
    build(/*cache_lines=*/1);
    write_now(0, kX, 10);
    hold(MsgType::Writeback, m->home_of(kX));
    write_now(0, kY, 20);
    run_until([&] { return is_held(MsgType::Writeback); });
  }

  /// Node 0 writes X with its WriteReply held; then node 9 writes X (Recall)
  /// or reads it (RecallShare), and the recall reaches node 0 first.
  void recall_overtakes_write_reply(bool downgrade, Access& w0, Access& a9) {
    build(/*cache_lines=*/64);
    hold(MsgType::WriteReply, 0);
    write(0, kX, 10, w0);
    run_until([&] { return is_held(MsgType::WriteReply); });
    if (downgrade) read(9, kX, a9);
    else write(9, kX, 30, a9);
    quiesce();
  }

  /// Node 0 reads X with its ReadReply held; then node 9 writes X, and the
  /// invalidation reaches node 0 first.
  void invalidation_overtakes_read_reply(Access& r0, Access& w9) {
    build(/*cache_lines=*/64);
    hold(MsgType::ReadReply, 0);
    read(0, kX, r0);
    run_until([&] { return is_held(MsgType::ReadReply); });
    write(9, kX, 30, w9);
    run_until([&] { return w9.done; });
    quiesce();
  }

  std::unique_ptr<Machine> m;
  std::vector<std::pair<NodeId, MsgType>> log;
  std::vector<std::pair<MsgType, NodeId>> holds;
  std::vector<std::pair<NodeId, noc::WormPtr>> held;

private:
  static MsgType type_of(const noc::WormPtr& w) {
    return static_cast<const CohMsg&>(*w->payload).type;
  }
};

// --- cache controller ------------------------------------------------------

TEST_F(RaceRows, ReadReplyFillsShared) {
  build(64);
  EXPECT_EQ(read_now(0, kX), 0u);
  EXPECT_EQ(delivered(MsgType::ReadReq, 5), 1);
  EXPECT_EQ(delivered(MsgType::ReadReply, 0), 1);
  EXPECT_EQ(line(0, kX), LineState::Shared);
  EXPECT_TRUE(dir(kX).sharers.contains(0));
  settle();
}

TEST_F(RaceRows, ReadReplyBehindInvalidationCompletesAndDrops) {
  Access r0, w9;
  invalidation_overtakes_read_reply(r0, w9);
  release(MsgType::ReadReply);
  run_until([&] { return r0.done; });
  EXPECT_EQ(r0.value, 0u);  // ordered before node 9's write at the home
  EXPECT_EQ(line(0, kX), LineState::Invalid);
  EXPECT_EQ(line(9, kX), LineState::Modified);
  settle();
  EXPECT_EQ(read_now(0, kX), 30u);
}

TEST_F(RaceRows, WriteReplyFillsModified) {
  build(64);
  write_now(0, kX, 10);
  EXPECT_EQ(delivered(MsgType::WriteReq, 5), 1);
  EXPECT_EQ(delivered(MsgType::WriteReply, 0), 1);
  EXPECT_EQ(line(0, kX), LineState::Modified);
  EXPECT_EQ(m->node(0).cache().value_of(kX), 10u);
  EXPECT_EQ(dir(kX).state, DirState::Exclusive);
  EXPECT_EQ(dir(kX).owner, 0);
  settle();
}

TEST_F(RaceRows, WriteReplyAppliesParkedRecall) {
  for (const bool downgrade : {false, true}) {
    SCOPED_TRACE(downgrade ? "RecallShare" : "Recall");
    Access w0, a9;
    recall_overtakes_write_reply(downgrade, w0, a9);
    release(MsgType::WriteReply);
    run_until([&] { return w0.done && a9.done; });
    EXPECT_EQ(delivered(MsgType::RecallData, 5), 1);
    EXPECT_EQ(dir(kX).mem_value, 10u);
    if (downgrade) {
      EXPECT_EQ(a9.value, 10u);
      EXPECT_EQ(line(0, kX), LineState::Shared);
      EXPECT_EQ(dir(kX).state, DirState::Shared);
      EXPECT_TRUE(dir(kX).sharers.contains(0));
      EXPECT_TRUE(dir(kX).sharers.contains(9));
    } else {
      EXPECT_EQ(line(0, kX), LineState::Invalid);
      EXPECT_EQ(dir(kX).state, DirState::Exclusive);
      EXPECT_EQ(dir(kX).owner, 9);
    }
    settle();
  }
}

TEST_F(RaceRows, RecallBehindWritebackIsDropped) {
  owner_evicts_x_writeback_held();
  hold(MsgType::Recall, 0);
  Access w9, w0;
  write(9, kX, 30, w9);
  run_until([&] { return is_held(MsgType::Recall); });
  // Node 0 wants X back before the Recall arrives: its record now holds
  // the writeback and a write, and the writeback decides.
  write(0, kX, 11, w0);
  run_until([&] { return delivered(MsgType::WriteReq, 5) == 3; });
  release(MsgType::Recall);
  quiesce();
  // The Writeback in flight answers the Recall, so node 0 sends nothing.
  // Parked instead, the Recall would be served after node 0's own grant
  // and reach the home as RecallData from the owner of an Exclusive entry.
  EXPECT_EQ(delivered(MsgType::RecallData, 5), 0);
  EXPECT_FALSE(w9.done);
  EXPECT_FALSE(w0.done);
  release(MsgType::Writeback);
  run_until([&] { return w9.done && w0.done; });
  EXPECT_EQ(delivered(MsgType::RecallData, 5), 1);  // node 9's, for node 0
  EXPECT_EQ(dir(kX).mem_value, 30u);
  EXPECT_EQ(dir(kX).owner, 0);
  EXPECT_EQ(m->node(0).cache().value_of(kX), 11u);
  settle();
}

TEST_F(RaceRows, RecallOfModifiedLineIsServed) {
  for (const bool downgrade : {false, true}) {
    SCOPED_TRACE(downgrade ? "RecallShare" : "Recall");
    build(64);
    write_now(0, kX, 10);
    if (downgrade) {
      EXPECT_EQ(read_now(9, kX), 10u);
    } else {
      write_now(9, kX, 30);
    }
    EXPECT_EQ(delivered(downgrade ? MsgType::RecallShare : MsgType::Recall, 0),
              1);
    EXPECT_EQ(delivered(MsgType::RecallData, 5), 1);
    EXPECT_EQ(line(0, kX), downgrade ? LineState::Shared : LineState::Invalid);
    settle();
  }
}

TEST_F(RaceRows, RecallBeforeWriteReplyIsParked) {
  for (const bool downgrade : {false, true}) {
    SCOPED_TRACE(downgrade ? "RecallShare" : "Recall");
    Access w0, a9;
    recall_overtakes_write_reply(downgrade, w0, a9);
    EXPECT_EQ(delivered(downgrade ? MsgType::RecallShare : MsgType::Recall, 0),
              1);
    EXPECT_EQ(delivered(MsgType::RecallData, 5), 0);
    EXPECT_FALSE(w0.done);
    EXPECT_FALSE(a9.done);
    EXPECT_EQ(line(0, kX), LineState::Invalid);
    EXPECT_EQ(dir(kX).state, DirState::Waiting);
    EXPECT_TRUE(dir(kX).recall_outstanding);
    release(MsgType::WriteReply);
    settle();
  }
}

TEST_F(RaceRows, StaleRecallIsDropped) {
  owner_evicts_x_writeback_held();
  hold(MsgType::Recall, 0);
  Access w9;
  write(9, kX, 30, w9);
  run_until([&] { return is_held(MsgType::Recall); });
  release(MsgType::Writeback);
  run_until([&] {
    return w9.done && delivered(MsgType::WritebackAck, 0) == 1;
  });
  quiesce();
  // The WritebackAck overtook the Recall: node 0 holds nothing for X.
  release(MsgType::Recall);
  quiesce();
  EXPECT_EQ(delivered(MsgType::RecallData, 5), 0);
  EXPECT_EQ(line(0, kX), LineState::Invalid);
  EXPECT_EQ(line(9, kX), LineState::Modified);
  EXPECT_EQ(dir(kX).state, DirState::Exclusive);
  EXPECT_EQ(dir(kX).owner, 9);
  EXPECT_EQ(dir(kX).mem_value, 10u);
  settle();
}

TEST_F(RaceRows, WritebackAckClearsWriteback) {
  build(/*cache_lines=*/1);
  write_now(0, kX, 10);
  write_now(0, kY, 20);
  quiesce();
  EXPECT_EQ(delivered(MsgType::Writeback, 5), 1);
  EXPECT_EQ(delivered(MsgType::WritebackAck, 0), 1);
  // With the ack in, a re-acquired X answers the next Recall again.
  write_now(0, kX, 11);
  write_now(9, kX, 30);
  EXPECT_EQ(delivered(MsgType::RecallData, 5), 1);
  EXPECT_EQ(dir(kX).mem_value, 11u);
  settle();
}

TEST_F(RaceRows, InvalidationBeforeReadReplySetsDropOnFill) {
  Access r0, w9;
  invalidation_overtakes_read_reply(r0, w9);
  EXPECT_EQ(delivered(MsgType::InvalAck, 5), 1);
  EXPECT_FALSE(r0.done);
  EXPECT_EQ(line(9, kX), LineState::Modified);
  EXPECT_EQ(dir(kX).owner, 9);
  release(MsgType::ReadReply);
  run_until([&] { return r0.done; });
  EXPECT_EQ(line(0, kX), LineState::Invalid);
  settle();
}

TEST_F(RaceRows, InvalidationOfCachedLine) {
  build(64);
  EXPECT_EQ(read_now(0, kX), 0u);
  write_now(9, kX, 30);
  EXPECT_EQ(delivered(MsgType::InvalAck, 5), 1);
  EXPECT_EQ(line(0, kX), LineState::Invalid);
  settle();
  EXPECT_EQ(read_now(0, kX), 30u);
}

TEST_F(RaceRows, HomeOwnCopyBeforeReadReplySetsDropOnFill) {
  build(64);
  const NodeId home = m->home_of(kX);
  hold(MsgType::ReadReply, home);
  Access rh, w9;
  read(home, kX, rh);
  run_until([&] { return is_held(MsgType::ReadReply); });
  write(9, kX, 30, w9);
  run_until([&] { return w9.done; });
  // The home invalidates its own copy locally: no transaction, no ack.
  EXPECT_EQ(m->stats().inval_txns, 0u);
  EXPECT_EQ(delivered(MsgType::InvalAck, home), 0);
  EXPECT_FALSE(rh.done);
  release(MsgType::ReadReply);
  run_until([&] { return rh.done; });
  EXPECT_EQ(rh.value, 0u);
  EXPECT_EQ(line(home, kX), LineState::Invalid);
  settle();
}

// --- home: data arriving at the directory ----------------------------------

TEST_F(RaceRows, HomeAbsorbsEagerlyGrantedWritersData) {
  build(/*cache_lines=*/1, /*eager=*/true);
  EXPECT_EQ(read_now(0, kX), 0u);
  hold(MsgType::InvalAck, 5);
  write_now(9, kX, 30);  // granted at launch, before node 0's ack
  write_now(9, kY, 40);  // evicts X: its Writeback beats the ack home
  quiesce();
  EXPECT_EQ(delivered(MsgType::WritebackAck, 9), 1);
  EXPECT_EQ(dir(kX).state, DirState::Waiting);
  EXPECT_EQ(dir(kX).mem_value, 30u);
  EXPECT_EQ(dir(kX).active.requester, kInvalidNode);
  release(MsgType::InvalAck);
  quiesce();
  EXPECT_EQ(dir(kX).state, DirState::Uncached);
  EXPECT_EQ(dir(kX).owner, kInvalidNode);
  settle();
  EXPECT_EQ(read_now(2, kX), 30u);
}

TEST_F(RaceRows, HomeTakesRecallResponse) {
  for (const bool downgrade : {false, true}) {
    SCOPED_TRACE(downgrade ? "RecallShare" : "Recall");
    build(64);
    write_now(0, kX, 10);
    if (downgrade) {
      EXPECT_EQ(read_now(9, kX), 10u);
      EXPECT_EQ(dir(kX).state, DirState::Shared);
      EXPECT_TRUE(dir(kX).sharers.contains(0));  // the owner kept a copy
    } else {
      write_now(9, kX, 30);
      EXPECT_EQ(dir(kX).state, DirState::Exclusive);
      EXPECT_EQ(dir(kX).owner, 9);
    }
    EXPECT_EQ(dir(kX).mem_value, 10u);
    EXPECT_FALSE(dir(kX).recall_outstanding);
    settle();
  }
}

TEST_F(RaceRows, HomeTakesOwnerWriteback) {
  build(/*cache_lines=*/1);
  write_now(0, kX, 10);
  write_now(0, kY, 20);
  quiesce();
  EXPECT_EQ(dir(kX).state, DirState::Uncached);
  EXPECT_EQ(dir(kX).owner, kInvalidNode);
  EXPECT_EQ(dir(kX).mem_value, 10u);
  EXPECT_EQ(delivered(MsgType::WritebackAck, 0), 1);
  settle();
}

TEST_F(RaceRows, HomeDropsStaleData) {
  // No order of real messages reaches this row, so the test delivers
  // crafted ones: data from node 9, which owns nothing, for a Shared block.
  build(64);
  EXPECT_EQ(read_now(0, kX), 0u);
  const SystemParams& p = m->params();
  for (const MsgType t : {MsgType::RecallData, MsgType::Writeback}) {
    const auto worm = noc::make_unicast(
        m->network().mesh(), p.reply_algo(), noc::VNet::Reply, 9, 5,
        p.sizing.data_flits, 0, std::make_shared<CohMsg>(t, kX, 9, 0, 77));
    m->node(5).handle_delivery(worm);
    quiesce();
  }
  // A Writeback is acked whatever it carries; nothing else is sent.
  EXPECT_EQ(delivered(MsgType::WritebackAck, 9), 1);
  EXPECT_EQ(log.size(), 3u);  // ReadReq, ReadReply, WritebackAck
  EXPECT_EQ(dir(kX).state, DirState::Shared);
  EXPECT_EQ(dir(kX).mem_value, 0u);
  EXPECT_TRUE(dir(kX).sharers.contains(0));
  EXPECT_FALSE(dir(kX).sharers.contains(9));
  settle();
  EXPECT_EQ(read_now(1, kX), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ProtocolScenarios,
                         ::testing::ValuesIn(core::kAllSchemes),
                         [](const auto& info) {
                           std::string n(core::scheme_name(info.param));
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

} // namespace
} // namespace mdw::dsm
