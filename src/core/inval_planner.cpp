#include "core/inval_planner.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "core/sharer_set.h"

namespace mdw::core {

namespace {

using noc::DestAction;
using noc::DestSpec;
using noc::MeshShape;
using noc::RoutingAlgo;
using noc::VNet;
using noc::WormKind;

/// Append straight-line hops from path.back() to (x, y); the move must be
/// purely horizontal or purely vertical.
void append_straight(std::vector<NodeId>& path, const MeshShape& mesh, int x,
                     int y) {
  noc::Coord cur = mesh.coord_of(path.back());
  assert(cur.x == x || cur.y == y);
  const int dx = (x > cur.x) - (x < cur.x);
  const int dy = (y > cur.y) - (y < cur.y);
  while (cur.x != x || cur.y != y) {
    cur.x += dx;
    cur.y += dy;
    path.push_back(mesh.id_of(cur));
  }
}

/// Flat insert-or-assign map from node to DestSpec used while assembling one
/// worm.  Worms carry at most a few dozen destinations, so a membership
/// bitmap plus a linear entry array beats per-node rb-tree allocation, and
/// lookups on the (common) non-destination path nodes are one bitmap test.
class ActionMap {
 public:
  DestSpec& operator[](NodeId n) {
    if (present_.contains(n)) {
      for (auto& d : entries_)
        if (d.node == n) return d;
    }
    present_.insert(n);
    entries_.push_back(DestSpec{n, DestAction::Deliver, 1});
    return entries_.back();
  }
  [[nodiscard]] const DestSpec* find(NodeId n) const {
    if (!present_.contains(n)) return nullptr;
    for (const auto& d : entries_)
      if (d.node == n) return &d;
    return nullptr;  // unreachable: the bitmap mirrors the entries
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  SharerBitmap present_;
  std::vector<DestSpec> entries_;
};

/// Emit DestSpecs for every node of `actions` in path order (each exactly
/// once, at its first traversal).  Asserts that all of them lie on the path.
std::vector<DestSpec> dests_by_path_scan(const std::vector<NodeId>& path,
                                         const ActionMap& actions) {
  const std::size_t want = actions.size();
  std::vector<DestSpec> out;
  out.reserve(want);
  SharerBitmap emitted;  // stack-local dedup; no node allocations
  for (NodeId n : path) {
    if (emitted.contains(n)) continue;
    if (const DestSpec* d = actions.find(n)) {
      out.push_back(*d);
      emitted.insert(n);
      if (out.size() == want) break;  // turnaround tails carry no new dests
    }
  }
  assert(out.size() == want);
  return out;
}

struct PlannerCtx {
  const MeshShape& mesh;
  NodeId home;
  TxnId txn;
  const noc::WormSizing& sizing;
  std::shared_ptr<InvalPattern> pattern;
  std::shared_ptr<InvalDirective> directive;
  InvalPlan plan;

  noc::Coord h() const { return mesh.coord_of(home); }

  void add_request_worm(RoutingAlgo algo, std::vector<NodeId> path,
                        const ActionMap& actions) {
    auto dests = dests_by_path_scan(path, actions);
    // The worm terminates at its last destination: trim the path there.
    while (path.back() != dests.back().node) path.pop_back();
    const int len = sizing.control_size(static_cast<int>(dests.size()));
    plan.request_worms.push_back(noc::make_multidest(
        mesh, algo, WormKind::Multicast, VNet::Request, std::move(path),
        std::move(dests), len, txn, directive));
  }

  /// Register a gather blueprint and mark its initiator.
  void add_gather(NodeId initiator, RoutingAlgo algo, std::vector<NodeId> path,
                  const ActionMap& actions, int vc_class,
                  int covers) {
    GatherPlan g;
    g.initiator = initiator;
    g.path = std::move(path);
    g.dests = dests_by_path_scan(g.path, actions);
    g.length_flits = sizing.control_size(static_cast<int>(g.dests.size()));
    g.vc_class = vc_class;
    g.covers = covers;
    const bool ends_at_home = g.path.back() == home;
    // Validate the blueprint now (the worm itself is built at launch time).
#ifndef NDEBUG
    noc::Worm probe;
    probe.kind = WormKind::Gather;
    probe.path.assign(g.path.begin(), g.path.end());
    probe.dests.assign(g.dests.begin(), g.dests.end());
    assert(noc::worm_is_well_formed(mesh, algo, probe));
#endif
    (void)algo;
    pattern->roles[initiator] = SharerRole::LaunchGather;
    pattern->gather_of[initiator] = static_cast<int>(pattern->gathers.size());
    pattern->gathers.push_back(std::move(g));
    if (ends_at_home) plan.expected_ack_messages += 1;
  }
};

// ---------------------------------------------------------------------------
// UI-UA: one unicast invalidation per sharer; unicast acks.
// ---------------------------------------------------------------------------
void plan_ui_ua(PlannerCtx& ctx, const std::vector<NodeId>& sharers,
                RoutingAlgo request_algo) {
  for (NodeId s : sharers) {
    ctx.plan.request_worms.push_back(
        noc::make_unicast(ctx.mesh, request_algo, VNet::Request, ctx.home, s,
                          ctx.sizing.control_size(1), ctx.txn, ctx.directive));
    ctx.pattern->roles[s] = SharerRole::UnicastAck;
  }
  ctx.plan.expected_ack_messages = static_cast<int>(sharers.size());
}

// ---------------------------------------------------------------------------
// E-cube column grouping (EC-CM-*): see DESIGN.md section 3 schemes 1-3.
// ---------------------------------------------------------------------------
struct EcSideGroups {
  // Column x -> sharer rows above home row (ascending) / below (descending);
  // the last element of each vector is the extreme (worm turnaround point).
  std::map<int, std::vector<int>> up, down;
  // Home-row sharers' x coordinates, sorted near -> far from the home.
  std::vector<int> row;
};

struct EcGroups {
  EcSideGroups west, east;              // columns strictly west/east of home
  std::vector<int> home_up, home_down;  // home-column sharer rows
};

EcGroups ec_group(const MeshShape& mesh, NodeId home,
                  const std::vector<NodeId>& sharers) {
  const noc::Coord h = mesh.coord_of(home);
  EcGroups g;
  for (NodeId s : sharers) {
    const noc::Coord c = mesh.coord_of(s);
    if (c.x == h.x) {
      (c.y > h.y ? g.home_up : g.home_down).push_back(c.y);
    } else if (c.y == h.y) {
      (c.x < h.x ? g.west : g.east).row.push_back(c.x);
    } else {
      EcSideGroups& side = c.x < h.x ? g.west : g.east;
      (c.y > h.y ? side.up : side.down)[c.x].push_back(c.y);
    }
  }
  auto prep = [&](EcSideGroups& side, bool west) {
    for (auto& [x, ys] : side.up) std::sort(ys.begin(), ys.end());
    for (auto& [x, ys] : side.down)
      std::sort(ys.begin(), ys.end(), std::greater<>());
    std::sort(side.row.begin(), side.row.end());
    if (west) std::reverse(side.row.begin(), side.row.end());  // near -> far
  };
  prep(g.west, true);
  prep(g.east, false);
  std::sort(g.home_up.begin(), g.home_up.end());
  std::sort(g.home_down.begin(), g.home_down.end(), std::greater<>());
  return g;
}

/// One column/row worm specification produced by the grouping pass.
struct EcWormSpec {
  int col = 0;                 // target column (x of Y-segment or row worm end)
  bool up = false;             // Y direction of the sweep (true: +Y)
  std::vector<int> col_rows;   // off-row sharers covered in the column
  std::vector<int> row_cols;   // home-row sharers covered on the X segment
  bool row_worm = false;       // pure row worm (no Y segment)
};

/// Compute the per-side worm specs, near -> far (shared by UA/CG/HG).
std::vector<EcWormSpec> ec_side_worms(const EcSideGroups& side, int hx) {
  std::vector<EcWormSpec> specs;
  for (const auto& [x, ys] : side.up)
    specs.push_back(EcWormSpec{x, true, ys, {}, false});
  for (const auto& [x, ys] : side.down)
    specs.push_back(EcWormSpec{x, false, ys, {}, false});
  std::sort(specs.begin(), specs.end(), [&](const auto& a, const auto& b) {
    const int da = std::abs(a.col - hx), db = std::abs(b.col - hx);
    return da != db ? da < db : a.up > b.up;
  });
  if (!side.row.empty()) {
    // Home-row sharers ride on the farthest column worm when it passes
    // them; the remainder (beyond every column worm) get a pure row worm.
    const int reach = specs.empty() ? 0 : std::abs(specs.back().col - hx);
    std::vector<int> attached, beyond;
    for (int x : side.row) {
      (std::abs(x - hx) <= reach ? attached : beyond).push_back(x);
    }
    if (!attached.empty()) specs.back().row_cols = attached;
    if (!beyond.empty()) {
      EcWormSpec row_spec;
      row_spec.col = beyond.back();  // farthest row sharer
      row_spec.row_cols = beyond;
      row_spec.row_worm = true;
      specs.push_back(row_spec);
    }
  }
  return specs;
}

enum class EcVariant { Ua, Cg, Hg };

void plan_ec(PlannerCtx& ctx, const std::vector<NodeId>& sharers,
             EcVariant variant) {
  const MeshShape& mesh = ctx.mesh;
  const noc::Coord h = ctx.h();
  const EcGroups g = ec_group(mesh, ctx.home, sharers);
  const RoutingAlgo req = RoutingAlgo::EcubeXY;
  const RoutingAlgo rep = RoutingAlgo::EcubeYX;
  const bool ma = variant != EcVariant::Ua;  // multidestination acks

  for (NodeId s : sharers) {
    ctx.pattern->roles[s] = ma ? SharerRole::PostLocal : SharerRole::UnicastAck;
  }
  if (!ma) ctx.plan.expected_ack_messages = static_cast<int>(sharers.size());

  // --- Home-column worms (their gathers terminate directly at the home). --
  auto home_col_worm = [&](const std::vector<int>& rows) {
    if (rows.empty()) return;
    std::vector<NodeId> path{ctx.home};
    append_straight(path, mesh, h.x, rows.back());
    const NodeId initiator = mesh.id_of({h.x, rows.back()});
    ActionMap acts;
    for (int y : rows) {
      const NodeId n = mesh.id_of({h.x, y});
      acts[n] = DestSpec{n,
                         ma && n != initiator ? DestAction::DeliverAndReserve
                                              : DestAction::Deliver,
                         1};
    }
    ctx.add_request_worm(req, path, acts);
    if (ma) {
      std::vector<NodeId> gpath{initiator};
      append_straight(gpath, mesh, h.x, h.y);
      ActionMap gacts;
      for (int y : rows) {
        const NodeId n = mesh.id_of({h.x, y});
        if (n != initiator) gacts[n] = DestSpec{n, DestAction::GatherPickup, 1};
      }
      gacts[ctx.home] = DestSpec{ctx.home, DestAction::Deliver, 1};
      ctx.add_gather(initiator, rep, std::move(gpath), gacts, -1,
                     static_cast<int>(rows.size()));
    }
  };
  home_col_worm(g.home_up);
  home_col_worm(g.home_down);

  // --- Per-side worms. ----------------------------------------------------
  auto do_side = [&](const EcSideGroups& side) {
    auto specs = ec_side_worms(side, h.x);
    if (specs.empty()) return;
    const int n_specs = static_cast<int>(specs.size());

    // Hierarchical bookkeeping: expected i-ack posts per leader router
    // (c, hy) = deposits of non-trunk gathers + home-row sharers' local
    // posts (minus the trunk initiator, who never posts).
    std::map<int, int> leader_expected;
    std::map<int, int> reserve_carrier;  // column -> spec index carrying it
    const int trunk_index = variant == EcVariant::Hg ? n_specs - 1 : -1;
    if (variant == EcVariant::Hg) {
      for (int i = 0; i < n_specs; ++i) {
        const auto& s = specs[i];
        if (!s.row_worm && i != trunk_index) leader_expected[s.col] += 1;
        for (int x : s.row_cols) leader_expected[x] += 1;
        if (!s.row_worm && !reserve_carrier.count(s.col))
          reserve_carrier[s.col] = i;
      }
      if (specs[trunk_index].row_worm) {
        leader_expected[specs[trunk_index].col] -= 1;  // row-trunk initiator
      }
    }

    for (int i = 0; i < n_specs; ++i) {
      const auto& s = specs[i];
      const bool is_trunk = variant == EcVariant::Hg && i == trunk_index;
      const NodeId initiator =
          s.row_worm ? mesh.id_of({s.col, h.y})
                     : mesh.id_of({s.col, s.col_rows.back()});

      // ---- Request worm ----------------------------------------------
      ActionMap acts;
      for (int y : s.col_rows) {
        const NodeId n = mesh.id_of({s.col, y});
        const bool init = ma && n == initiator;
        acts[n] = DestSpec{n,
                           !ma || init ? DestAction::Deliver
                                       : DestAction::DeliverAndReserve,
                           1};
      }
      for (int x : s.row_cols) {
        const NodeId n = mesh.id_of({x, h.y});
        DestAction a = !ma || n == initiator ? DestAction::Deliver
                                             : DestAction::DeliverAndReserve;
        int expected = 1;
        if (variant == EcVariant::Hg && a == DestAction::DeliverAndReserve) {
          expected = std::max(1, leader_expected[x]);
        }
        acts[n] = DestSpec{n, a, static_cast<std::uint16_t>(expected)};
      }
      if (variant == EcVariant::Hg && !s.row_worm &&
          reserve_carrier[s.col] == i) {
        // Reserve the leader entry at (c, hy) unless a home-row sharer's
        // DeliverAndReserve (on some worm) already covers that router.
        const NodeId leader = mesh.id_of({s.col, h.y});
        const auto it = leader_expected.find(s.col);
        const int expected = it == leader_expected.end() ? 0 : it->second;
        const bool row_sharer_there =
            std::find(side.row.begin(), side.row.end(), s.col) !=
            side.row.end();
        if (expected > 0 && !row_sharer_there) {
          acts[leader] = DestSpec{leader, DestAction::ReserveOnly,
                                  static_cast<std::uint16_t>(expected)};
        }
      }
      std::vector<NodeId> path{ctx.home};
      append_straight(path, mesh, s.col, h.y);
      if (!s.row_worm) append_straight(path, mesh, s.col, s.col_rows.back());
      ctx.add_request_worm(req, std::move(path), acts);

      if (!ma) continue;

      // ---- Gather worm -------------------------------------------------
      std::vector<NodeId> gpath{initiator};
      if (!s.row_worm) append_straight(gpath, mesh, s.col, h.y);
      ActionMap gacts;
      for (int y : s.col_rows) {
        const NodeId n = mesh.id_of({s.col, y});
        if (n != initiator) gacts[n] = DestSpec{n, DestAction::GatherPickup, 1};
      }
      const bool to_home = variant == EcVariant::Cg || is_trunk;
      if (to_home) {
        append_straight(gpath, mesh, h.x, h.y);
        if (variant == EcVariant::Cg) {
          // The farthest gather of the side also picks up the home-row
          // sharers' locally-posted acks (their routers lie on its X leg).
          if (i == n_specs - 1) {
            for (const auto& s2 : specs) {
              for (int x : s2.row_cols) {
                const NodeId n = mesh.id_of({x, h.y});
                if (n != initiator)
                  gacts[n] = DestSpec{n, DestAction::GatherPickup, 1};
              }
            }
          }
        } else {
          // Hierarchical trunk: pick up every leader entry on the way home.
          for (const auto& [c, expected] : leader_expected) {
            if (expected <= 0) continue;
            const NodeId n = mesh.id_of({c, h.y});
            if (n != initiator)
              gacts[n] = DestSpec{n, DestAction::GatherPickup,
                                  static_cast<std::uint16_t>(expected)};
          }
        }
        gacts[ctx.home] = DestSpec{ctx.home, DestAction::Deliver, 1};
      } else {
        // Non-trunk HG gather: sink into the leader's i-ack bank.
        const NodeId leader = mesh.id_of({s.col, h.y});
        gacts[leader] = DestSpec{leader, DestAction::GatherDeposit, 1};
      }
      ctx.add_gather(initiator, rep, std::move(gpath), gacts, -1,
                     static_cast<int>(s.col_rows.size()) +
                         (s.row_worm ? static_cast<int>(s.row_cols.size())
                                     : 0));
    }
  };
  do_side(g.west);
  do_side(g.east);
}

// ---------------------------------------------------------------------------
// West-first serpentine grouping (WF-*): see DESIGN.md section 3 schemes 4-6.
//
// A serpentine path visits sharer columns in one horizontal direction,
// sweeping each column vertically between its extremes; sweep directions
// alternate strictly (the only vertical moves legal after a sweep continue
// in the sweep's direction, so the next column is always entered from
// beyond one of its extremes).
// ---------------------------------------------------------------------------

struct ColRun {
  int x = 0;
  int lo = 0, hi = 0;               // row extremes of the sharers in x
  std::vector<int> rows;            // all sharer rows (sorted ascending)
};

std::vector<ColRun> make_runs(const std::map<int, std::vector<int>>& cols,
                              bool ascending) {
  std::vector<ColRun> runs;
  for (const auto& [x, ys] : cols) {
    ColRun r;
    r.x = x;
    r.rows = ys;
    std::sort(r.rows.begin(), r.rows.end());
    r.lo = r.rows.front();
    r.hi = r.rows.back();
    runs.push_back(std::move(r));
  }
  if (!ascending) std::reverse(runs.begin(), runs.end());
  return runs;
}

/// Forward-greedy serpentine from a fixed start (request worms; no exit
/// constraint).  The first run may share start's column, in which case its
/// rows must be one-sided w.r.t. start.y (the caller splits if needed).
/// `arrived_westward` marks a start reached by a W prefix along start.y: the
/// first move of the body must then not be an eastward hop at that same row
/// (a 180-degree reversal); a vertical detour is inserted when needed.
std::vector<NodeId> serpentine_from(const MeshShape& mesh, noc::Coord start,
                                    const std::vector<ColRun>& runs,
                                    bool arrived_westward) {
  std::vector<NodeId> path{mesh.id_of(start)};
  noc::Coord cur = start;
  int dir = 0;  // vertical freedom in cur's column: +1 up, -1 down, 0 free
  bool no_vertical_yet = true;
  for (const auto& r : runs) {
    if (r.x == cur.x) {
      assert(r.lo >= cur.y || r.hi <= cur.y);  // one-sided
      const int target = r.lo >= cur.y ? r.hi : r.lo;
      if (target != cur.y) {
        assert(dir == 0 || (target > cur.y) == (dir > 0));
        append_straight(path, mesh, r.x, target);
        dir = target > cur.y ? +1 : -1;
        cur.y = target;
        no_vertical_yet = false;
      }
      continue;
    }
    // Position vertically (respecting dir), hop horizontally, then sweep.
    int entry, target;
    if (dir > 0) {
      entry = std::max(cur.y, r.hi);
      target = r.lo;
    } else if (dir < 0) {
      entry = std::min(cur.y, r.lo);
      target = r.hi;
    } else if (cur.y <= r.lo) {
      entry = cur.y;
      target = r.hi;
    } else if (cur.y >= r.hi) {
      entry = cur.y;
      target = r.lo;
    } else {
      entry = (cur.y - r.lo <= r.hi - cur.y) ? r.lo : r.hi;
      target = entry == r.lo ? r.hi : r.lo;
    }
    if (arrived_westward && no_vertical_yet && entry == cur.y) {
      // A W prefix delivered us here along this row; hopping E at the same
      // row would reverse 180 degrees.  Detour to the nearest row that
      // still covers the run (<= lo or >= hi) — dir is free (no vertical
      // movement has happened yet).
      assert(dir == 0);
      if (cur.y > r.lo) {
        entry = r.lo;   // dip below the run, then sweep up through it
        target = r.hi;
      } else if (cur.y < r.hi) {
        entry = r.hi;   // rise above the run, then sweep down through it
        target = r.lo;
      } else if (cur.y + 1 < mesh.height()) {
        entry = cur.y + 1;  // single-row run at this very row
        target = r.lo;
      } else {
        entry = cur.y - 1;
        target = r.hi;
      }
    }
    if (entry != cur.y) no_vertical_yet = false;
    append_straight(path, mesh, cur.x, entry);
    append_straight(path, mesh, r.x, entry);
    cur = {r.x, entry};
    dir = 0;  // fresh column: vertical freedom until the sweep moves
    if (target != cur.y) {
      append_straight(path, mesh, r.x, target);
      dir = target > cur.y ? +1 : -1;
      cur.y = target;
      no_vertical_yet = false;
    }
  }
  return path;
}

/// Gather serpentine: starts at an extreme of the first run (the initiator,
/// chosen here) and must exit the last run at `exit_y`, which must be one of
/// its extremes.  Sweep directions are assigned backward from the exit and
/// alternate strictly.
std::vector<NodeId> serpentine_gather(const MeshShape& mesh,
                                      const std::vector<ColRun>& runs,
                                      int exit_y, noc::Coord* initiator_out) {
  assert(!runs.empty());
  const auto& last = runs.back();
  assert(exit_y == last.lo || exit_y == last.hi);
  const int m = static_cast<int>(runs.size());
  // sweep_up[i]: direction of run i's sweep.  Exit at hi -> final sweep up.
  std::vector<bool> sweep_up(m);
  sweep_up[m - 1] = (exit_y == last.hi);
  for (int i = m - 2; i >= 0; --i) sweep_up[i] = !sweep_up[i + 1];

  const noc::Coord start{runs[0].x,
                         sweep_up[0] ? runs[0].lo : runs[0].hi};
  *initiator_out = start;
  std::vector<NodeId> path{mesh.id_of(start)};
  noc::Coord cur = start;
  for (int i = 0; i < m; ++i) {
    const auto& r = runs[i];
    if (i == 0) {
      const int target = sweep_up[0] ? r.hi : r.lo;
      append_straight(path, mesh, r.x, target);
      cur.y = target;
      continue;
    }
    // After sweeping run i-1 in direction sweep_up[i-1], we may keep moving
    // in that direction to reach run i's entry row.
    const int entry = sweep_up[i] ? std::min(cur.y, r.lo)
                                  : std::max(cur.y, r.hi);
    assert(sweep_up[i - 1] ? entry >= cur.y : entry <= cur.y);
    append_straight(path, mesh, cur.x, entry);
    append_straight(path, mesh, r.x, entry);
    cur = {r.x, entry};
    const int target = sweep_up[i] ? r.hi : r.lo;
    append_straight(path, mesh, r.x, target);
    cur.y = target;
  }
  return path;
}

/// Request-phase serpentine worms from the home covering `pending`
/// (west-first conformant: at most one W prefix, along the home row).
/// Normally one worm; a second worm is needed when the forced entry row
/// (the home row) can sweep only one side of a two-sided start column.
struct SerpentineWorm {
  std::vector<NodeId> path;
  std::vector<NodeId> covered;
};

std::vector<SerpentineWorm> wf_request_serpentines(const MeshShape& mesh,
                                                   NodeId home,
                                                   std::vector<NodeId> pending) {
  const noc::Coord h = mesh.coord_of(home);
  std::vector<SerpentineWorm> out;
  while (!pending.empty()) {
    std::map<int, std::vector<int>> cols;
    for (NodeId s : pending) {
      const noc::Coord c = mesh.coord_of(s);
      cols[c.x].push_back(c.y);
    }
    const int xmin = cols.begin()->first;
    std::vector<NodeId> leftover;
    // The start column (reached along the home row, or the home's own
    // column) can only sweep one side of hy: keep the bigger side.
    if (xmin <= h.x) {
      auto& ys = cols.begin()->second;
      std::sort(ys.begin(), ys.end());
      if (ys.front() < h.y && ys.back() > h.y) {
        std::vector<int> above, below;
        for (int y : ys) (y > h.y ? above : below).push_back(y);
        auto& keep = above.size() >= below.size() ? above : below;
        auto& drop = above.size() >= below.size() ? below : above;
        for (int y : drop) leftover.push_back(mesh.id_of({xmin, y}));
        ys = keep;
      }
    }
    SerpentineWorm w;
    for (const auto& [x, ys] : cols) {
      for (int y : ys) w.covered.push_back(mesh.id_of({x, y}));
    }
    const auto runs = make_runs(cols, /*ascending=*/true);
    if (xmin < h.x) {
      std::vector<NodeId> prefix{home};
      append_straight(prefix, mesh, xmin, h.y);
      auto body = serpentine_from(mesh, {xmin, h.y}, runs, /*arrived_westward=*/true);
      prefix.insert(prefix.end(), body.begin() + 1, body.end());
      w.path = std::move(prefix);
    } else {
      w.path = serpentine_from(mesh, h, runs, /*arrived_westward=*/false);
    }
    out.push_back(std::move(w));
    pending = std::move(leftover);
  }
  return out;
}

enum class WfVariant { ScUa, ScSg, P2Sg };

/// Split the sharers into contiguous column bands of at most kBandCols
/// occupied columns each (for the parallel banded scheme).
constexpr int kBandCols = 4;

std::vector<std::vector<NodeId>> wf_bands(const MeshShape& mesh,
                                          const std::vector<NodeId>& sharers) {
  std::map<int, std::vector<NodeId>> by_col;
  for (NodeId s : sharers) by_col[mesh.coord_of(s).x].push_back(s);
  std::vector<std::vector<NodeId>> bands;
  int cols_in_band = 0;
  for (auto& [x, members] : by_col) {
    if (cols_in_band == 0) bands.emplace_back();
    for (NodeId s : members) bands.back().push_back(s);
    if (++cols_in_band == kBandCols) cols_in_band = 0;
  }
  return bands;
}

void plan_wf(PlannerCtx& ctx, const std::vector<NodeId>& sharers,
             WfVariant variant) {
  const MeshShape& mesh = ctx.mesh;
  const noc::Coord h = ctx.h();
  const bool ma = variant != WfVariant::ScUa;

  for (NodeId s : sharers) {
    ctx.pattern->roles[s] = ma ? SharerRole::PostLocal : SharerRole::UnicastAck;
  }
  if (!ma) ctx.plan.expected_ack_messages = static_cast<int>(sharers.size());

  // Acknowledgment-side partition; gather initiators must be known before
  // the request worms are built (initiators do not reserve i-ack entries).
  std::vector<NodeId> west_set, east_set;
  for (NodeId s : sharers) {
    const noc::Coord c = mesh.coord_of(s);
    if (c.x < h.x || (c.x == h.x && c.y < h.y)) west_set.push_back(s);
    else east_set.push_back(s);
  }

  struct GatherDraft {
    NodeId initiator;
    std::vector<NodeId> path;
    ActionMap acts;
    int vc_class;
    RoutingAlgo algo;
    int covers;
  };
  std::vector<GatherDraft> gathers;
  std::set<NodeId> initiators;

  auto build_gather = [&](const std::vector<NodeId>& members, bool west) {
    if (members.empty()) return;
    std::map<int, std::vector<int>> cols;
    for (NodeId s : members) {
      const noc::Coord c = mesh.coord_of(s);
      cols[c.x].push_back(c.y);
    }
    cols[h.x].push_back(h.y);  // the walk must end exactly at the home
    const auto runs = make_runs(cols, /*ascending=*/west);
    noc::Coord init_pos;
    auto path = serpentine_gather(mesh, runs, h.y, &init_pos);
    assert(path.back() == ctx.home);
    GatherDraft d;
    d.initiator = mesh.id_of(init_pos);
    assert(std::find(members.begin(), members.end(), d.initiator) !=
           members.end());
    d.path = std::move(path);
    for (NodeId s : members) {
      if (s != d.initiator)
        d.acts[s] = DestSpec{s, DestAction::GatherPickup, 1};
    }
    d.acts[ctx.home] = DestSpec{ctx.home, DestAction::Deliver, 1};
    d.vc_class = west ? 0 : 1;
    d.algo = west ? RoutingAlgo::WestFirst : RoutingAlgo::EastFirst;
    d.covers = static_cast<int>(members.size());
    initiators.insert(d.initiator);
    gathers.push_back(std::move(d));
  };
  if (ma) {
    if (variant == WfVariant::P2Sg) {
      // Per-band gathers (matching the banded request serpentines).
      for (const auto& band : wf_bands(mesh, sharers)) {
        std::vector<NodeId> w_part, e_part;
        for (NodeId s : band) {
          const noc::Coord c = mesh.coord_of(s);
          if (c.x < h.x || (c.x == h.x && c.y < h.y)) w_part.push_back(s);
          else e_part.push_back(s);
        }
        build_gather(w_part, /*west=*/true);
        build_gather(e_part, /*west=*/false);
      }
    } else {
      build_gather(west_set, /*west=*/true);
      build_gather(east_set, /*west=*/false);
    }
  }

  // Request-phase serpentines.
  std::vector<SerpentineWorm> reqs;
  if (variant == WfVariant::P2Sg) {
    // Parallel banded serpentines: occupied columns are split into
    // contiguous bands of at most kBandCols columns, one serpentine per
    // band, all launched concurrently.  This bounds each worm's path
    // length (the single serpentine of WF-SC serializes its whole sweep)
    // at the cost of a few extra messages — the latency/message tradeoff
    // the WF schemes expose.
    for (const auto& band : wf_bands(mesh, sharers)) {
      for (auto& w : wf_request_serpentines(mesh, ctx.home, band))
        reqs.push_back(std::move(w));
    }
  } else {
    reqs = wf_request_serpentines(mesh, ctx.home, sharers);
  }
  for (const auto& r : reqs) {
    ActionMap acts;
    for (NodeId s : r.covered) {
      const bool init = ma && initiators.count(s) > 0;
      acts[s] = DestSpec{
          s, !ma || init ? DestAction::Deliver : DestAction::DeliverAndReserve,
          1};
    }
    ctx.add_request_worm(RoutingAlgo::WestFirst, r.path, acts);
  }
  for (auto& d : gathers) {
    ctx.add_gather(d.initiator, d.algo, std::move(d.path), d.acts, d.vc_class,
                   d.covers);
  }
}

} // namespace

noc::WormPtr build_gather_worm(const GatherPlan& plan, TxnId txn) {
  // The blueprint was validated when the planner built it.
  assert(plan.path.front() == plan.initiator);
  noc::WormPtr w = noc::make_from_blueprint(
      WormKind::Gather, VNet::Reply, plan.path.data(), plan.path.size(),
      plan.dests.data(), plan.dests.size(), plan.length_flits, txn, nullptr);
  w->vc_class = plan.vc_class;
  w->gathered = 1;  // the initiator's own acknowledgment
  return w;
}

InvalPlan plan_invalidation(Scheme scheme, const MeshShape& mesh, NodeId home,
                            const std::vector<NodeId>& sharers, TxnId txn,
                            const noc::WormSizing& sizing) {
  assert(!sharers.empty());
  assert(std::is_sorted(sharers.begin(), sharers.end()));
  PlannerCtx ctx{mesh,    home,
                 txn,     sizing,
                 std::make_shared<InvalPattern>(),
                 std::make_shared<InvalDirective>(),
                 InvalPlan{}};
  ctx.pattern->home = home;
  ctx.pattern->total_sharers = static_cast<int>(sharers.size());
  ctx.directive->txn = txn;
  ctx.directive->pattern = ctx.pattern;
  ctx.plan.directive = ctx.directive;

  switch (scheme) {
    case Scheme::UiUa:
      plan_ui_ua(ctx, sharers, noc::RoutingAlgo::EcubeXY);
      break;
    case Scheme::EcCmUa: plan_ec(ctx, sharers, EcVariant::Ua); break;
    case Scheme::EcCmCg: plan_ec(ctx, sharers, EcVariant::Cg); break;
    case Scheme::EcCmHg: plan_ec(ctx, sharers, EcVariant::Hg); break;
    case Scheme::WfScUa: plan_wf(ctx, sharers, WfVariant::ScUa); break;
    case Scheme::WfScSg: plan_wf(ctx, sharers, WfVariant::ScSg); break;
    case Scheme::WfP2Sg: plan_wf(ctx, sharers, WfVariant::P2Sg); break;
  }
  ctx.plan.total_ack_worms =
      framework_of(scheme) == Framework::MiMa
          ? static_cast<int>(ctx.pattern->gathers.size())
          : ctx.plan.expected_ack_messages;
  return std::move(ctx.plan);
}

InvalPlan plan_invalidation(Scheme scheme, const MeshShape& mesh, NodeId home,
                            const SharerBitmap& sharers, TxnId txn,
                            const noc::WormSizing& sizing) {
  // The grouping passes iterate the sharer set repeatedly; one ascending
  // materialization here keeps them simple.  Bitmap iteration is
  // ascending, so this is exactly the order the sorted-vector overload
  // requires.
  return plan_invalidation(scheme, mesh, home, sharers.to_vector(), txn,
                           sizing);
}

} // namespace mdw::core
