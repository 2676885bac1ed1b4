// The CLIs' input validation: strict numeric flag parsing (sim/cli.h) and
// range checks in mdw_workload and mdw_sweep, and mdw_workload's handling of
// trace files the MDWT decoder rejects.  The end-to-end cases run the built
// binaries and check their exit status and message.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.h"

namespace mdw {
namespace {

struct CmdResult {
  int status = -1;  // exit code, or 128 + signal number
  std::string output;
};

/// Run `cmd` through the shell, capturing stdout and stderr together.
CmdResult run(const std::string& cmd) {
  CmdResult r;
  std::FILE* f = popen((cmd + " 2>&1").c_str(), "r");
  if (f == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) r.output.append(buf, n);
  const int rc = pclose(f);
  if (WIFEXITED(rc)) r.status = WEXITSTATUS(rc);
  if (WIFSIGNALED(rc)) r.status = 128 + WTERMSIG(rc);
  return r;
}

TEST(CliFlags, ParseNumberTakesTheWholeTokenOrNothing) {
  std::uint64_t u = 5;
  EXPECT_TRUE(cli::parse_number("42", u));
  EXPECT_EQ(u, 42u);
  for (const char* bad : {"", "xyz", "12abc", " 7", "+7", "-1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(cli::parse_number(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 42u) << "untouched on failure";
  }
  int i = 0;
  EXPECT_TRUE(cli::parse_number("-3", i));
  EXPECT_EQ(i, -3);
  EXPECT_FALSE(cli::parse_number("2147483648", i));
  std::uint32_t u32 = 0;
  EXPECT_FALSE(cli::parse_number("4294967296", u32));
  double d = 0;
  EXPECT_TRUE(cli::parse_number("0.25", d));
  EXPECT_EQ(d, 0.25);
  for (const char* bad : {"", "0.25x", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(cli::parse_number(bad, d)) << "'" << bad << "'";
  }
}

TEST(CliFlags, ParseMesh) {
  int w = 0, h = 0;
  EXPECT_TRUE(cli::parse_mesh("8", w, h));
  EXPECT_EQ(w, 8);
  EXPECT_EQ(h, 8);
  EXPECT_TRUE(cli::parse_mesh("4x6", w, h));
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 6);
  for (const char* bad : {"", "0", "-4", "4x", "x4", "0x4", "4x4x4", "4y4",
                          "4x6abc"}) {
    EXPECT_FALSE(cli::parse_mesh(bad, w, h)) << "'" << bad << "'";
  }
}

TEST(CliFlags, MalformedNumericFlagsExitTwoNamingTheFlag) {
  // Each case adds a tiny workload, so a CLI that wrongly accepted the flag
  // would finish quickly (and exit 0 or 1, not 2).  A hot-spot grid that
  // cannot place its transactions used to spin forever, so those cases run
  // under `timeout`: a hang fails the test (exit 124) instead of stalling it.
  const std::string workload =
      std::string("'") + MDW_WORKLOAD_BIN + "' --mesh=2x2 --ops=16 --warmup=0";
  const std::string sweep = std::string("'") + MDW_SWEEP_BIN +
                            "' --schemes=UI-UA --mesh=4 --no-progress";
  const std::string sweep1 =
      std::string("'") + MDW_SWEEP_BIN +
      "' --schemes=UI-UA --reps=1 --no-progress --jobs=1";
  const struct {
    std::string cmd;
    const char* flag;
  } cases[] = {
      {workload + " --seed=xyz", "--seed"},
      {workload + " --think=12abc", "--think"},
      {workload + " --write-frac=7", "--write-frac"},
      {workload + " --blocks=-3", "--blocks"},
      {workload + " --coalesce=-1", "--coalesce"},
      {workload + " --max-cycles=abc", "--max-cycles"},
      {workload + " --outstanding=4x", "--outstanding"},
      {sweep + " --d=2 --reps=abc", "--reps"},
      {sweep + " --d=2 --reps=0", "--reps"},
      {sweep + " --d=2x", "--d"},
      // A d the mesh or pattern cannot hold for some writer.
      {sweep + " --d=20", "--d"},
      {sweep + " --d=0 --pattern=same-row", "--d"},
      {sweep + " --mesh=16 --d=15 --pattern=same-column", "--d"},
      // Values out of range, and hot-spot points the mesh cannot place.
      {sweep1 + " --mesh=-3 --d=1", "--mesh"},
      {sweep1 + " --mesh=4 --d=-1", "--d"},
      {sweep1 + " --mesh=4 --d=2 --concurrent=-1", "--concurrent"},
      {"timeout 10 " + sweep1 + " --mesh=2 --d=1 --concurrent=4 --rounds=3",
       "--concurrent"},
      {"timeout 10 " + sweep1 + " --mesh=2 --d=1 --concurrent=5 --rounds=3",
       "--concurrent"},
      {sweep1 + " --mesh=4 --d=2 --concurrent=2 --rounds=0", "--rounds"},
      {sweep1 + " --mesh=4 --d=2 --concurrent=2 --rounds=-1", "--rounds"},
      {sweep1 + " --gens=zipfian --mesh=4 --gen-blocks=0 --gen-ops=10",
       "--gen-blocks"},
      {sweep1 + " --gens=zipfian --mesh=4 --gen-ops=0", "--gen-ops"},
  };
  for (const auto& c : cases) {
    const CmdResult r = run(c.cmd);
    EXPECT_EQ(r.status, 2) << c.cmd << "\n" << r.output;
    EXPECT_NE(r.output.find(c.flag), std::string::npos)
        << c.cmd << "\n" << r.output;
  }
}

std::vector<std::uint8_t> mdwt_header() {
  return {'M', 'D', 'W', 'T', 1, 0, 0, 0};
}

TEST(CliFlags, RejectedTraceFilesFailLoadWithoutAborting) {
  // Payloads the decoder must reject; before it did, replaying the first
  // two aborted on an assertion.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      {0, 0},                     // no processors
      {1, 2, 2, 0x6, 1, 0x2},     // barrier 1 before barrier 0
      {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0},  // 2^40 barriers
      {1, 0, 1, 0x0, 0x80, 0x00}, // non-minimal varint
      {1, 0, 1, 0x7, 0},          // has-arg tag carrying arg 0
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::vector<std::uint8_t> bytes = mdwt_header();
    bytes.insert(bytes.end(), payloads[i].begin(), payloads[i].end());
    const std::string path =
        ::testing::TempDir() + "/mdw_cli_bad_" + std::to_string(i) + ".mdwt";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    const CmdResult r = run(std::string("'") + MDW_WORKLOAD_BIN +
                            "' --mesh=2x2 --load-trace='" + path + "'");
    EXPECT_EQ(r.status, 1) << "payload " << i << "\n" << r.output;
    EXPECT_NE(r.output.find("failed to load"), std::string::npos)
        << "payload " << i << "\n" << r.output;
    std::remove(path.c_str());
  }
}

} // namespace
} // namespace mdw
