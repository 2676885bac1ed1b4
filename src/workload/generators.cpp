#include "workload/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mdw::workload {

const char* gen_name(GenKind k) {
  switch (k) {
    case GenKind::None: return "none";
    case GenKind::Zipfian: return "zipfian";
    case GenKind::ReadMostly: return "read-mostly";
    case GenKind::WriteHeavy: return "write-heavy";
    case GenKind::Migratory: return "migratory";
    case GenKind::ProducerConsumer: return "producer-consumer";
    case GenKind::FalseSharing: return "false-sharing";
  }
  return "?";
}

bool gen_from_name(const std::string& name, GenKind& out) {
  for (GenKind k : kAllGenKinds) {
    if (name == gen_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

// --- alias table -----------------------------------------------------------

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  assert(n > 0);
  prob_.assign(n, 1.0);
  alias_.assign(n, 0);
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);

  // Vose's method: split columns into under- and over-full relative to the
  // uniform height, then repeatedly top an under-full column up from an
  // over-full one.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are exactly-full columns (up to rounding).
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::uint32_t AliasTable::sample(sim::Rng& rng) const {
  const auto col =
      static_cast<std::uint32_t>(rng.next_below(prob_.size()));
  return rng.next_double() < prob_[col] ? col : alias_[col];
}

// --- the generator family --------------------------------------------------

namespace {

/// All six kinds share one chassis: a block pool with pattern-placed
/// accessor groups, per-proc membership lists, and per-proc SplitMix64
/// sub-stream RNGs.  The kind only changes how the next op for a proc is
/// derived from its list.
class SyntheticSource final : public StreamSource {
public:
  SyntheticSource(const GenConfig& cfg, const noc::MeshShape& mesh)
      : cfg_(cfg) {
    assert(cfg_.nprocs > 0);
    assert(cfg_.nblocks > 0);
    const int n = mesh.num_nodes();
    assert(cfg_.nprocs <= n);
    // Accessor groups never include the block's home (make_sharers
    // excludes it), so clamp to the eligible population — the whole mesh
    // minus home for the scattered patterns, one row/column minus home for
    // the line patterns.  Tiny or one-wide meshes leave no eligible node:
    // the groups are then empty and the coverage rule below gives each
    // proc one block.
    int max_group = n - 2;
    if (cfg_.pattern == SharerPattern::SameColumn) {
      max_group = mesh.height() - 1;
    } else if (cfg_.pattern == SharerPattern::SameRow) {
      max_group = mesh.width() - 1;
    }
    const int group = std::max(0, std::min(cfg_.group, max_group));

    // Pattern-placed accessor group per block.  The placement RNG draws
    // from its own sub-stream (index well outside the per-proc range) so
    // group geometry and per-proc op draws never alias.
    sim::Rng place(sim::split_seed(cfg_.seed, 0xB10C0000ull));
    members_.resize(cfg_.nblocks);
    blocks_of_.resize(static_cast<std::size_t>(cfg_.nprocs));
    for (std::uint32_t b = 0; b < cfg_.nblocks; ++b) {
      const NodeId home =
          static_cast<NodeId>((cfg_.base_addr + b) % static_cast<BlockAddr>(n));
      members_[b] = make_sharers(place, mesh, home, home, group, cfg_.pattern);
      for (std::size_t mi = 0; mi < members_[b].size(); ++mi) {
        const NodeId m = members_[b][mi];
        if (m < cfg_.nprocs) {
          blocks_of_[static_cast<std::size_t>(m)].push_back(
              Membership{b, static_cast<std::uint32_t>(mi)});
        }
      }
    }
    // Coverage: a proc outside every group would have an empty stream;
    // adopt it into one block deterministically instead.
    for (int p = 0; p < cfg_.nprocs; ++p) {
      if (blocks_of_[static_cast<std::size_t>(p)].empty()) {
        const auto b = static_cast<std::uint32_t>(
            static_cast<std::uint32_t>(p) % cfg_.nblocks);
        members_[b].push_back(static_cast<NodeId>(p));
        blocks_of_[static_cast<std::size_t>(p)].push_back(Membership{
            b, static_cast<std::uint32_t>(members_[b].size() - 1)});
      }
    }

    const bool zipf = cfg_.kind == GenKind::Zipfian ||
                      cfg_.kind == GenKind::ReadMostly ||
                      cfg_.kind == GenKind::WriteHeavy;
    if (zipf) {
      // Per-proc alias table over the proc's own blocks, weighted by the
      // block's *global* Zipf rank, so the global popularity skew survives
      // the group partitioning.
      alias_.reserve(static_cast<std::size_t>(cfg_.nprocs));
      for (int p = 0; p < cfg_.nprocs; ++p) {
        const auto& list = blocks_of_[static_cast<std::size_t>(p)];
        std::vector<double> w(list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
          w[i] = std::pow(static_cast<double>(list[i].block + 1),
                          -cfg_.zipf_alpha);
        }
        alias_.emplace_back(w);
      }
    }
    reset();
  }

  [[nodiscard]] int nprocs() const override { return cfg_.nprocs; }
  [[nodiscard]] const char* name() const override {
    return gen_name(cfg_.kind);
  }

  void reset() override {
    rng_.clear();
    rng_.reserve(static_cast<std::size_t>(cfg_.nprocs));
    for (int p = 0; p < cfg_.nprocs; ++p) {
      rng_.emplace_back(
          sim::split_seed(cfg_.seed, static_cast<std::uint64_t>(p)));
    }
    remaining_.assign(static_cast<std::size_t>(cfg_.nprocs),
                      cfg_.ops_per_proc);
    cursor_.assign(static_cast<std::size_t>(cfg_.nprocs), 0);
    phase_.assign(static_cast<std::size_t>(cfg_.nprocs), 0);
    // Stagger rotation starts so group members don't hit their shared
    // blocks in lockstep (drawn from the proc's own sub-stream, so still
    // deterministic).
    for (int p = 0; p < cfg_.nprocs; ++p) {
      const auto& list = blocks_of_[static_cast<std::size_t>(p)];
      cursor_[static_cast<std::size_t>(p)] = static_cast<std::uint32_t>(
          rng_[static_cast<std::size_t>(p)].next_below(list.size()));
    }
  }

  bool next(int proc, TraceOp& out) override {
    const auto pi = static_cast<std::size_t>(proc);
    if (remaining_[pi] == 0) return false;
    --remaining_[pi];
    sim::Rng& rng = rng_[pi];
    const auto& list = blocks_of_[pi];

    switch (cfg_.kind) {
      case GenKind::Zipfian:
      case GenKind::ReadMostly:
      case GenKind::WriteHeavy: {
        const Membership m = list[alias_[pi].sample(rng)];
        const bool write = rng.next_bool(write_fraction());
        out = {write ? OpKind::Write : OpKind::Read, addr_of(m.block), 0};
        return true;
      }
      case GenKind::Migratory: {
        // Read-modify-write each block in rotation: the line migrates
        // (Modified) member to member.
        const Membership m = list[cursor_[pi] % list.size()];
        if (phase_[pi] == 0) {
          out = {OpKind::Read, addr_of(m.block), 0};
          phase_[pi] = 1;
        } else {
          out = {OpKind::Write, addr_of(m.block), 0};
          phase_[pi] = 0;
          ++cursor_[pi];
        }
        return true;
      }
      case GenKind::ProducerConsumer: {
        // Group member 0 produces (writes); everyone else consumes
        // (re-reads after each invalidation).
        const Membership m = list[cursor_[pi] % list.size()];
        ++cursor_[pi];
        out = {m.rank == 0 ? OpKind::Write : OpKind::Read, addr_of(m.block),
               0};
        return true;
      }
      case GenKind::FalseSharing: {
        // Every member writes its own word of the shared block; the word
        // index rides in `arg` (the protocol invalidates whole blocks —
        // all of this traffic is false-sharing overhead).
        const Membership m = list[cursor_[pi] % list.size()];
        ++cursor_[pi];
        out = {OpKind::Write, addr_of(m.block), m.rank};
        return true;
      }
      case GenKind::None: break;
    }
    return false;
  }

private:
  struct Membership {
    std::uint32_t block = 0;  // index into the pool
    std::uint32_t rank = 0;   // position within the block's group
  };

  [[nodiscard]] BlockAddr addr_of(std::uint32_t block) const {
    return cfg_.base_addr + block;
  }
  [[nodiscard]] double write_fraction() const {
    switch (cfg_.kind) {
      case GenKind::ReadMostly: return 0.05;
      case GenKind::WriteHeavy: return 0.60;
      default: return cfg_.write_fraction;
    }
  }

  GenConfig cfg_;
  std::vector<std::vector<NodeId>> members_;       // per block
  std::vector<std::vector<Membership>> blocks_of_; // per proc
  std::vector<AliasTable> alias_;                  // per proc (zipf kinds)
  std::vector<sim::Rng> rng_;                      // per proc
  std::vector<std::uint64_t> remaining_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint8_t> phase_;
};

} // namespace

std::unique_ptr<StreamSource> make_generator(const GenConfig& cfg,
                                             const noc::MeshShape& mesh) {
  assert(cfg.kind != GenKind::None);
  return std::make_unique<SyntheticSource>(cfg, mesh);
}

} // namespace mdw::workload
