// The streaming workload engine: generator determinism, binary trace
// round-trips (byte-identical, and replay-equivalent for a recorded app
// trace), and StreamRunner's warmup / windowed steady-state statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dsm/machine.h"
#include "obs/metrics.h"
#include "workload/apps.h"
#include "workload/binary_trace.h"
#include "workload/generators.h"
#include "workload/stream_runner.h"

namespace mdw::workload {
namespace {

dsm::SystemParams small_params(core::Scheme s) {
  dsm::SystemParams p;
  p.mesh_w = 4;
  p.mesh_h = 4;
  p.scheme = s;
  p.cache_lines = 128;
  return p;
}

/// Replay a materialized trace: processor i of the trace runs on node i.
StreamResult replay(dsm::Machine& m, const Trace& t,
                    Cycle max_cycles = 2'000'000'000) {
  TraceSource src(t);
  StreamRunnerOptions opt;
  opt.max_cycles = max_cycles;
  StreamRunner runner(m, src, opt);
  return runner.run();
}

GenConfig small_config(GenKind kind, std::uint64_t seed = 9) {
  GenConfig cfg;
  cfg.kind = kind;
  cfg.nprocs = 16;
  cfg.nblocks = 32;
  cfg.ops_per_proc = 60;
  cfg.seed = seed;
  cfg.group = 4;
  return cfg;
}

// --- alias table -----------------------------------------------------------

TEST(AliasTable, DegenerateWeightAlwaysWins) {
  AliasTable t({0.0, 0.0, 5.0, 0.0});
  sim::Rng rng(1);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(t.sample(rng), 2u);
}

TEST(AliasTable, SkewedWeightsMatchFrequencies) {
  // 8:2:1 weights; 20k draws keep each empirical share within ~2% absolute.
  AliasTable t({8.0, 2.0, 1.0});
  sim::Rng rng(2);
  int counts[3] = {0, 0, 0};
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 8.0 / 11.0, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 2.0 / 11.0, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 1.0 / 11.0, 0.02);
}

// --- generators ------------------------------------------------------------

TEST(Generators, DeterministicAcrossInstancesAndReset) {
  const noc::MeshShape mesh(4, 4);
  for (GenKind kind : kAllGenKinds) {
    const GenConfig cfg = small_config(kind);
    const auto a = make_generator(cfg, mesh);
    const auto b = make_generator(cfg, mesh);
    const auto bytes_a = encode_trace(materialize(*a, 1000));
    const auto bytes_b = encode_trace(materialize(*b, 1000));
    EXPECT_EQ(bytes_a, bytes_b) << gen_name(kind);

    a->reset();
    EXPECT_EQ(encode_trace(materialize(*a, 1000)), bytes_a)
        << gen_name(kind) << " after reset";

    GenConfig other = cfg;
    other.seed = cfg.seed + 1;
    const auto c = make_generator(other, mesh);
    if (kind != GenKind::ProducerConsumer && kind != GenKind::FalseSharing &&
        kind != GenKind::Migratory) {
      // Seeds drive the op mix for the sampled kinds; the rotation kinds
      // only shift their start cursor, which a tiny config may not expose.
      EXPECT_NE(encode_trace(materialize(*c, 1000)), bytes_a)
          << gen_name(kind);
    }
  }
}

TEST(Generators, EveryProcStreamsExactlyOpsPerProc) {
  const noc::MeshShape mesh(4, 4);
  for (GenKind kind : kAllGenKinds) {
    const auto src = make_generator(small_config(kind), mesh);
    ASSERT_EQ(src->nprocs(), 16);
    const Trace t = materialize(*src, 1000);
    for (int p = 0; p < 16; ++p) {
      EXPECT_EQ(t.per_proc[p].size(), 60u)
          << gen_name(kind) << " proc " << p;
    }
    // Exhausted after materialize.
    TraceOp op;
    EXPECT_FALSE(src->next(0, op));
  }
}

TEST(Generators, KindShapesTheOpMix) {
  const noc::MeshShape mesh(4, 4);

  const Trace rm =
      materialize(*make_generator(small_config(GenKind::ReadMostly), mesh),
                  1000);
  const Trace wh =
      materialize(*make_generator(small_config(GenKind::WriteHeavy), mesh),
                  1000);
  auto writes = [](const Trace& t) {
    std::size_t w = 0;
    for (const auto& v : t.per_proc) {
      for (const auto& op : v) w += (op.kind == OpKind::Write);
    }
    return w;
  };
  // 960 ops total: ~5% vs ~60% writes.
  EXPECT_LT(writes(rm), 100u);
  EXPECT_GT(writes(wh), 450u);

  // False sharing: every op is a write carrying a word index.
  const Trace fs = materialize(
      *make_generator(small_config(GenKind::FalseSharing), mesh), 1000);
  EXPECT_EQ(writes(fs), fs.total_ops());

  // Migratory: reads and writes strictly alternate per proc (RMW pairs).
  const Trace mig = materialize(
      *make_generator(small_config(GenKind::Migratory), mesh), 1000);
  for (const auto& stream : mig.per_proc) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(stream[i].kind, i % 2 ? OpKind::Write : OpKind::Read);
      if (i % 2) {
        EXPECT_EQ(stream[i].addr, stream[i - 1].addr);
      }
    }
  }
}

TEST(Generators, ProducerConsumerHasOneWriterPerBlock) {
  const noc::MeshShape mesh(4, 4);
  const Trace t = materialize(
      *make_generator(small_config(GenKind::ProducerConsumer), mesh), 1000);
  std::map<BlockAddr, std::vector<int>> writers;
  for (int p = 0; p < t.nprocs; ++p) {
    for (const auto& op : t.per_proc[p]) {
      if (op.kind == OpKind::Write) {
        auto& w = writers[op.addr];
        if (w.empty() || w.back() != p) w.push_back(p);
      }
    }
  }
  for (const auto& [addr, procs] : writers) {
    EXPECT_EQ(procs.size(), 1u) << "block " << addr << " has >1 producer";
  }
}

// --- binary trace format ---------------------------------------------------

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.nprocs, b.nprocs);
  ASSERT_EQ(a.num_barriers, b.num_barriers);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t p = 0; p < a.per_proc.size(); ++p) {
    ASSERT_EQ(a.per_proc[p].size(), b.per_proc[p].size()) << "proc " << p;
    for (std::size_t i = 0; i < a.per_proc[p].size(); ++i) {
      EXPECT_EQ(a.per_proc[p][i].kind, b.per_proc[p][i].kind);
      EXPECT_EQ(a.per_proc[p][i].addr, b.per_proc[p][i].addr);
      EXPECT_EQ(a.per_proc[p][i].arg, b.per_proc[p][i].arg);
    }
  }
}

TEST(BinaryTrace, RoundTripIsByteIdentical) {
  const Trace t = barnes_hut_trace(16, 32, 1, 5);
  const auto bytes = encode_trace(t);
  Trace back;
  std::string err;
  ASSERT_TRUE(decode_trace(bytes.data(), bytes.size(), back, &err)) << err;
  expect_traces_equal(t, back);
  EXPECT_EQ(encode_trace(back), bytes);  // canonical form
}

TEST(BinaryTrace, HeaderAndTruncationRejected) {
  const Trace t = random_trace(4, 10, 8, 0.5, 3);
  auto bytes = encode_trace(t);
  Trace out;
  std::string err;

  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_trace(bytes.data(), cut, out, nullptr)) << cut;
  }
  // Trailing garbage is rejected too.
  auto extra = bytes;
  extra.push_back(0);
  EXPECT_FALSE(decode_trace(extra.data(), extra.size(), out, &err));

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_trace(bad_magic.data(), bad_magic.size(), out, &err));
  EXPECT_NE(err.find("magic"), std::string::npos);

  auto bad_version = bytes;
  bad_version[4] = 0x7F;
  EXPECT_FALSE(
      decode_trace(bad_version.data(), bad_version.size(), out, &err));
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(BinaryTrace, CorruptPayloadsRejectedWithClearErrors) {
  // Hand-built malformed payloads: each must fail with a message naming the
  // problem, and none may crash or attempt an absurd allocation.
  auto header = [] {
    std::vector<std::uint8_t> b{'M', 'D', 'W', 'T'};
    for (int i = 0; i < 4; ++i) {
      b.push_back(
          static_cast<std::uint8_t>((kBinaryTraceVersion >> (8 * i)) & 0xFF));
    }
    return b;
  };
  auto varint = [](std::vector<std::uint8_t>& b, std::uint64_t v) {
    while (v >= 0x80) {
      b.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    b.push_back(static_cast<std::uint8_t>(v));
  };
  Trace out;
  std::string err;

  // An op count far beyond the remaining payload (here 2^60) must be
  // rejected before the decoder tries to reserve space for it.
  {
    auto b = header();
    varint(b, 1);                      // nprocs
    varint(b, 0);                      // barriers
    varint(b, 1ull << 60);             // op count, but no ops follow
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("op count exceeds"), std::string::npos) << err;
  }
  // A Think/Barrier arg wider than 32 bits would silently truncate.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 0);
    varint(b, 1);                      // one op
    b.push_back(static_cast<std::uint8_t>(OpKind::Think) | 0x4u);
    varint(b, 1ull << 40);             // oversized arg
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("32 bits"), std::string::npos) << err;
  }
  // A delta stepping below address zero wraps to a bogus huge block.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 0);
    varint(b, 1);
    b.push_back(static_cast<std::uint8_t>(OpKind::Read));
    varint(b, 9);                      // zigzag(-5) from prev=0
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("underflow"), std::string::npos) << err;
  }
  // Reserved tag bits must be rejected.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 0);
    varint(b, 1);
    b.push_back(0xF0);
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("tag"), std::string::npos) << err;
  }
  // A trace without processors would abort replay.
  {
    auto b = header();
    varint(b, 0);                      // nprocs
    varint(b, 0);
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("no processors"), std::string::npos) << err;
  }
  // Barrier ids must run 0, 1, ... on every proc: replay releases them in
  // that order and aborts on any other.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 2);                      // two barriers
    varint(b, 2);
    b.push_back(static_cast<std::uint8_t>(OpKind::Barrier) | 0x4u);
    varint(b, 1);                      // barrier 1 first
    b.push_back(static_cast<std::uint8_t>(OpKind::Barrier));  // then 0
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("out of order"), std::string::npos) << err;
  }
  // A barrier count beyond int must not narrow silently (2^40 became 0).
  {
    auto b = header();
    varint(b, 1);
    varint(b, 1ull << 40);
    varint(b, 0);
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("barrier count"), std::string::npos) << err;
  }
  // A non-minimal varint (0x80 0x00 for 0) decodes to a value whose
  // re-encoding differs: the canonical form forbids it.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 0);
    varint(b, 1);
    b.push_back(static_cast<std::uint8_t>(OpKind::Read));
    b.push_back(0x80);                 // address delta 0, padded
    b.push_back(0x00);
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("non-minimal"), std::string::npos) << err;
  }
  // The has-arg tag bit is set only for a nonzero arg.
  {
    auto b = header();
    varint(b, 1);
    varint(b, 0);
    varint(b, 1);
    b.push_back(static_cast<std::uint8_t>(OpKind::Think) | 0x4u);
    varint(b, 0);
    EXPECT_FALSE(decode_trace(b.data(), b.size(), out, &err));
    EXPECT_NE(err.find("arg 0"), std::string::npos) << err;
  }
  // A corrupt file on disk surfaces the decode error through load_trace.
  {
    const std::string path = ::testing::TempDir() + "/mdw_test_corrupt.mdwt";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a trace";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
    EXPECT_FALSE(load_trace(path, out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
  }
}

TEST(BinaryTrace, EverySingleBitFlipFailsCleanlyOrRoundTrips) {
  // Corrupt a small saved trace one bit at a time.  Each flip must either
  // fail to decode with a message, or decode to a trace that re-encodes to
  // the same bytes and replays (on a mesh with a node per proc) without
  // tripping an assertion.
  TraceBuilder tb(4);
  for (int proc = 0; proc < 4; ++proc) {
    tb.read(proc, 100 + static_cast<BlockAddr>(proc));
    tb.think(proc, 3);
  }
  tb.barrier();
  for (int proc = 0; proc < 4; ++proc) {
    tb.write(proc, 100 + static_cast<BlockAddr>((proc + 1) % 4));
    tb.read(proc, 140);
  }
  tb.barrier();
  const std::vector<std::uint8_t> saved = encode_trace(tb.take());
  int decoded = 0;
  for (std::size_t bit = 0; bit < 8 * saved.size(); ++bit) {
    auto bytes = saved;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Trace t;
    std::string err;
    if (!decode_trace(bytes.data(), bytes.size(), t, &err)) {
      EXPECT_FALSE(err.empty()) << "bit " << bit;
      continue;
    }
    ++decoded;
    EXPECT_EQ(encode_trace(t), bytes) << "bit " << bit;
    int k = 2;
    while (k * k < t.nprocs) ++k;
    dsm::SystemParams p = small_params(core::Scheme::EcCmHg);
    p.mesh_w = p.mesh_h = k;
    dsm::Machine m(p);
    (void)replay(m, t, 1'000'000);
  }
  EXPECT_GT(decoded, 0);  // some flips (addresses, think times) stay valid
}

TEST(BinaryTrace, FileRoundTripAndLoadedReplayFingerprint) {
  // A recorded app trace saved to disk and loaded back must replay to the
  // same machine-stats fingerprint as the in-memory original.
  const Trace t = barnes_hut_trace(16, 32, 1, 7);
  const std::string path =
      ::testing::TempDir() + "/mdw_test_barnes.mdwt";
  std::string err;
  ASSERT_TRUE(save_trace(t, path, &err)) << err;
  Trace loaded;
  ASSERT_TRUE(load_trace(path, loaded, &err)) << err;
  expect_traces_equal(t, loaded);

  dsm::Machine orig(small_params(core::Scheme::EcCmHg));
  dsm::Machine again(small_params(core::Scheme::EcCmHg));
  const auto r1 = replay(orig, t);
  const auto r2 = replay(again, loaded);
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.accesses, r2.accesses);
  EXPECT_EQ(orig.stats().inval_txns, again.stats().inval_txns);
  EXPECT_EQ(orig.stats().inval_latency.sum(),
            again.stats().inval_latency.sum());
  EXPECT_EQ(orig.network().stats().link_flit_hops,
            again.network().stats().link_flit_hops);
  EXPECT_EQ(orig.engine().now(), again.engine().now());
}

TEST(BinaryTrace, MissingFileReportsError) {
  Trace out;
  std::string err;
  EXPECT_FALSE(load_trace("/nonexistent/dir/trace.mdwt", out, &err));
  EXPECT_FALSE(err.empty());
}

// --- stream runner ---------------------------------------------------------

struct Fingerprint {
  Cycle cycles = 0;
  std::size_t accesses = 0;
  std::uint64_t steady_accesses = 0;
  std::uint64_t steady_txns = 0;
  double lat_mean = 0;
  std::uint64_t inval_txns = 0;
  std::uint64_t link_flit_hops = 0;
  Cycle end = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_stream(GenKind kind, std::uint64_t seed) {
  dsm::Machine m(small_params(core::Scheme::EcCmHg));
  const auto src =
      make_generator(small_config(kind, seed), m.network().mesh());
  StreamRunnerOptions opt;
  opt.warmup_accesses = 64;
  opt.window_cycles = 2000;
  StreamRunner runner(m, *src, opt);
  const StreamResult r = runner.run();
  EXPECT_TRUE(r.completed) << gen_name(kind);
  EXPECT_EQ(m.check_coherence(), "") << gen_name(kind);
  Fingerprint fp;
  fp.cycles = r.cycles;
  fp.accesses = r.accesses;
  fp.steady_accesses = r.steady_accesses;
  fp.steady_txns = r.steady_txns;
  fp.lat_mean = r.lat_mean;
  fp.inval_txns = m.stats().inval_txns;
  fp.link_flit_hops = m.network().stats().link_flit_hops;
  fp.end = m.engine().now();
  return fp;
}

TEST(StreamRunner, EveryGeneratorCompletesCoherently) {
  for (GenKind kind : kAllGenKinds) {
    const Fingerprint fp = run_stream(kind, 9);
    EXPECT_EQ(fp.accesses, 16u * 60u) << gen_name(kind);
    EXPECT_GT(fp.link_flit_hops, 0u) << gen_name(kind);
    if (kind != GenKind::FalseSharing) {
      // Pure-write streams bounce ownership without ever building a sharer
      // set, so they complete with zero multi-sharer invalidations.
      EXPECT_GT(fp.inval_txns, 0u) << gen_name(kind);
    }
  }
}

TEST(StreamRunner, SameSeedSameFingerprint) {
  EXPECT_EQ(run_stream(GenKind::Zipfian, 9), run_stream(GenKind::Zipfian, 9));
  EXPECT_NE(run_stream(GenKind::Zipfian, 9).link_flit_hops,
            run_stream(GenKind::Zipfian, 10).link_flit_hops);
}

TEST(StreamRunner, WarmupAndWindowsPartitionTheSteadyState) {
  dsm::Machine m(small_params(core::Scheme::UiUa));
  const auto src =
      make_generator(small_config(GenKind::ProducerConsumer, 4),
                     m.network().mesh());
  StreamRunnerOptions opt;
  opt.warmup_accesses = 100;
  opt.window_cycles = 1000;
  StreamRunner runner(m, *src, opt);
  const StreamResult r = runner.run();
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.warmup_end, 0u);
  EXPECT_LT(r.steady_accesses, r.accesses);

  // Window rows tile [warmup_end, end) and sum to the steady aggregates.
  ASSERT_FALSE(r.windows.empty());
  std::uint64_t acc = 0, txns = 0;
  Cycle expect_start = r.warmup_end;
  for (const auto& w : r.windows) {
    EXPECT_EQ(w.start, expect_start);
    EXPECT_GT(w.length, 0u);
    expect_start = w.start + opt.window_cycles;
    acc += w.accesses;
    txns += w.inval_txns;
  }
  EXPECT_EQ(acc, r.steady_accesses);
  EXPECT_EQ(txns, r.steady_txns);
  EXPECT_GT(r.accesses_per_kcycle, 0.0);

  // snapshot_metrics mirrors the aggregates into a registry.
  obs::MetricsRegistry reg;
  runner.snapshot_metrics(reg);
  EXPECT_EQ(reg.counter("stream.steady_accesses").value(),
            r.steady_accesses);
  EXPECT_EQ(reg.counter("stream.steady_txns").value(), r.steady_txns);
  EXPECT_EQ(reg.find_histogram("stream.steady_inval_latency")->count(),
            r.steady_txns);
}

TEST(StreamRunner, ZeroWarmupCountsEverything) {
  dsm::Machine m(small_params(core::Scheme::UiUa));
  const auto src =
      make_generator(small_config(GenKind::Zipfian, 6), m.network().mesh());
  StreamRunnerOptions opt;
  opt.warmup_accesses = 0;
  StreamRunner runner(m, *src, opt);
  const StreamResult r = runner.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.warmup_end, 0u);
  EXPECT_EQ(r.steady_accesses, static_cast<std::uint64_t>(r.accesses));
}

/// What a replay pin checks: the run's length and work, and the machine's
/// invalidation, occupancy and traffic totals.
struct ReplayPin {
  Cycle cycles;
  std::size_t accesses;
  std::uint64_t inval_txns;
  std::uint64_t occupancy;
  std::uint64_t link_flit_hops;
};

void expect_replay_pin(const Trace& t, int outstanding, const ReplayPin& pin) {
  dsm::Machine m(small_params(core::Scheme::EcCmCg));
  TraceSource src(t);
  StreamRunnerOptions opt;
  opt.outstanding = outstanding;
  StreamRunner runner(m, src, opt);
  const StreamResult r = runner.run();
  ASSERT_TRUE(r.completed) << r.describe_stalls();
  EXPECT_EQ(r.cycles, pin.cycles);
  EXPECT_EQ(r.accesses, pin.accesses);
  EXPECT_EQ(m.stats().inval_txns, pin.inval_txns);
  EXPECT_EQ(m.total_occupancy(), pin.occupancy);
  EXPECT_EQ(m.network().stats().link_flit_hops, pin.link_flit_hops);
  ASSERT_EQ(r.procs.size(), static_cast<std::size_t>(t.nprocs));
  for (std::size_t p = 0; p < r.procs.size(); ++p) {
    EXPECT_TRUE(r.procs[p].done) << "proc " << p;
    EXPECT_EQ(r.procs[p].ops_retired, t.per_proc[p].size()) << "proc " << p;
  }
  EXPECT_EQ(m.check_coherence(), "");
}

TEST(StreamRunner, TraceSourceReplayIsPinned) {
  // A blocking replay of a barrier trace, pinned to what the dedicated
  // trace-replay wrapper produced before trace replay moved onto
  // StreamRunner's session loop.
  expect_replay_pin(lu_trace(16, 32, 8, 6), 1, {4405, 100, 0, 4660, 5568});
}

TEST(StreamRunner, BarrierDrainsTheWindowAtOutstandingFour) {
  // With four accesses in flight a processor pulls a barrier while earlier
  // accesses are still outstanding; it must drain its window before it
  // arrives.  Pinned to what the runner produced before its blocking and
  // windowed issue loops were merged.
  expect_replay_pin(lu_trace(16, 64, 8, 6), 4, {8138, 744, 0, 25282, 19872});
}

TEST(StreamResultProgress, ReportsPerProcRetirementAndStalls) {
  // Complete run: every proc retired its whole stream.
  dsm::Machine m(small_params(core::Scheme::UiUa));
  const Trace t = random_trace(16, 20, 8, 0.3, 2);
  const auto r = replay(m, t);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.procs.size(), 16u);
  for (const auto& pp : r.procs) {
    EXPECT_TRUE(pp.done);
    EXPECT_EQ(pp.ops_retired, 20u);
    EXPECT_FALSE(pp.at_barrier);
  }
  EXPECT_EQ(r.describe_stalls(), "");

  // Lopsided barrier: proc 0 waits forever, the budget expires, and the
  // stall report names the parked processor and barrier id.
  Trace stuck;
  stuck.nprocs = 4;
  stuck.num_barriers = 1;
  stuck.per_proc.resize(4);
  stuck.per_proc[0].push_back({OpKind::Barrier, 0, 0});
  dsm::Machine m2(small_params(core::Scheme::UiUa));
  const auto rs = replay(m2, stuck, 20'000);
  EXPECT_FALSE(rs.completed);
  ASSERT_EQ(rs.procs.size(), 4u);
  EXPECT_TRUE(rs.procs[0].at_barrier);
  EXPECT_EQ(rs.procs[0].barrier_id, 0u);
  EXPECT_FALSE(rs.procs[0].done);
  EXPECT_TRUE(rs.procs[1].done);
  const std::string stalls = rs.describe_stalls();
  EXPECT_NE(stalls.find("proc 0"), std::string::npos);
  EXPECT_NE(stalls.find("at barrier 0"), std::string::npos);
}

TEST(StreamResultProgress, DescribeStallsOutputIsPinned) {
  // The exact report format, pinned: tooling (and humans reading CI logs)
  // depend on it.  describe_stalls is a pure function of StreamResult, so
  // the pin constructs the result by hand.
  StreamResult r;
  r.completed = false;
  r.procs.resize(4);
  r.procs[0].ops_retired = 17;
  r.procs[0].at_barrier = true;
  r.procs[0].barrier_id = 2;
  r.procs[1].done = true;       // finished procs are omitted
  r.procs[1].ops_retired = 40;
  r.procs[2].ops_retired = 23;  // stuck mid-access
  r.procs[3].done = true;
  r.home_queue_depths = {0, 0, 0, 0, 0, 3, 0, 0, 0, 1};
  EXPECT_EQ(r.describe_stalls(),
            "proc 0: 17 ops, at barrier 2; proc 2: 23 ops, in flight; "
            "home queues: node 5=3, node 9=1");

  // A completed run reports nothing, whatever the fields hold.
  r.completed = true;
  EXPECT_EQ(r.describe_stalls(), "");

  // Queue depths alone (every proc mid-access but none parked) still print.
  StreamResult q;
  q.completed = false;
  q.home_queue_depths = {0, 2};
  EXPECT_EQ(q.describe_stalls(), "home queues: node 1=2");
}

TEST(StreamResultProgress, TimeoutSamplesHomeQueueDepths) {
  // A run that exhausts its budget under heavy same-home write contention
  // with a serialized (depth 1) home records the queue it was stuck behind.
  auto p = small_params(core::Scheme::UiUa);
  p.svc.pipeline_depth = 1;
  dsm::Machine m(p);
  // Every proc hammers blocks homed at node 5.
  Trace t;
  t.nprocs = 16;
  t.per_proc.resize(16);
  for (int proc = 0; proc < 16; ++proc) {
    for (int k = 0; k < 30; ++k) {
      t.per_proc[static_cast<std::size_t>(proc)].push_back(
          {OpKind::Write,
           static_cast<BlockAddr>(16 * ((proc + k) % 8 + 1) + 5), 0});
    }
  }
  const auto r = replay(m, t, 2'000);  // far too small a budget
  ASSERT_FALSE(r.completed);
  // The snapshot reflects the timeout instant, NOT the post-drain state:
  // some procs must still be mid-access, so the report is never empty, and
  // the per-home queue vector is populated (depth values are load-timing
  // dependent; nonzero depths are pinned deterministically in test_svc).
  ASSERT_EQ(r.home_queue_depths.size(), 16u);
  bool any_in_flight = false;
  for (const auto& pp : r.procs) any_in_flight |= !pp.done;
  EXPECT_TRUE(any_in_flight);
  EXPECT_NE(r.describe_stalls(), "");
}

} // namespace
} // namespace mdw::workload
