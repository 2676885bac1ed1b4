// E9: design-parameter ablation — i-ack buffer entries (the paper proposes
// 2-4) and consumption channels (4 guarantee deadlock freedom on a 2-D
// mesh [39]) under the MI-MA schemes.  Sensitivity only appears under
// concurrent transactions (isolated transactions never collide in a bank),
// so this bench drives 16 simultaneous invalidations per round.
#include "bench_common.h"

using namespace mdw;

namespace {

analysis::HotspotMeasurement run(core::Scheme s, int entries, int channels) {
  analysis::HotspotConfig cfg;
  cfg.mesh = 16;
  cfg.scheme = s;
  cfg.d = 24;
  cfg.concurrent = 16;
  cfg.rounds = 3;
  cfg.seed = 23;
  cfg.base.noc.iack_entries = entries;
  cfg.base.noc.consumption_channels = channels;
  return analysis::measure_hotspot(cfg);
}

} // namespace

int main() {
  bench::banner("E9", "i-ack buffer / consumption-channel ablation "
                      "(16x16 mesh, 16 concurrent transactions, d=24, "
                      "MI-MA schemes)");

  const core::Scheme schemes[] = {core::Scheme::EcCmCg, core::Scheme::EcCmHg,
                                  core::Scheme::WfP2Sg};

  std::printf("--- vs i-ack buffer entries (4 consumption channels) ---\n");
  {
    std::vector<std::string> headers{"entries"};
    for (core::Scheme s : schemes) headers.push_back(bench::S(s) + " lat");
    headers.push_back("bank-blocked cyc (EC-CM-CG)");
    headers.push_back("deferred gathers (EC-CM-CG)");
    analysis::Table t(headers);
    for (int entries : {1, 2, 3, 4, 8}) {
      std::vector<std::string> row{std::to_string(entries)};
      double blocked = 0, deferred = 0;
      for (core::Scheme s : schemes) {
        const auto m = run(s, entries, 4);
        row.push_back(m.completed ? analysis::Table::num(m.inval_latency)
                                  : std::string("deadlock"));
        if (s == core::Scheme::EcCmCg) {
          blocked = m.bank_blocked_cycles;
          deferred = m.deferred_gathers;
        }
      }
      row.push_back(analysis::Table::num(blocked, 0));
      row.push_back(analysis::Table::num(deferred, 0));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  std::printf("\n--- vs consumption channels (4 i-ack entries) ---\n");
  {
    std::vector<std::string> headers{"channels"};
    for (core::Scheme s : schemes) headers.push_back(bench::S(s) + " lat");
    analysis::Table t(headers);
    for (int ch : {1, 2, 4, 8}) {
      std::vector<std::string> row{std::to_string(ch)};
      for (core::Scheme s : schemes) {
        const auto m = run(s, 4, ch);
        row.push_back(m.completed ? analysis::Table::num(m.inval_latency)
                                  : std::string("deadlock"));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  std::printf("\nExpected shape: EC-CM-CG and WF-PB-SG are flat from 2 "
              "entries on, EC-CM-HG from 3 (the paper proposes 2-4); fewer "
              "entries show bank-blocking or deadlock under concurrent "
              "transactions.  Fewer consumption channels serialize "
              "forward-and-absorb at shared intermediate destinations; 1 "
              "channel deadlocks WF-PB-SG.  \"deadlock\" means the round "
              "did not complete within measure_hotspot's 1,000,000-cycle "
              "budget, not a detected wait-for cycle.\n");
  return 0;
}
