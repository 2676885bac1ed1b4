// RouterArena layout pins (DESIGN.md section 17).
//
// Every arena section has a base offset and a per-node stride that are
// multiples of 64 bytes, so each node's records start on a cache line and
// no line mixes two nodes' records; the tick loop's NodeWords fill exactly
// one line.  These tests recompute layouts for the mesh shapes the
// benchmarks exercise (square, non-square, 64x64) and check the arithmetic
// directly, with no Network construction.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "noc/arena.h"
#include "noc/geometry.h"
#include "noc/router.h"

namespace mdw::noc {
namespace {

struct Section {
  const char* name;
  std::size_t off;
  std::size_t stride;
};

std::vector<Section> sections(const RouterArena::Layout& l) {
  return {
      {"words", l.words_off, l.words_stride},
      {"vc_hot", l.vc_hot_off, l.vc_hot_stride},
      {"vc_flit", l.vc_flit_off, l.vc_flit_stride},
      {"cons_hot", l.cons_hot_off, l.cons_hot_stride},
      {"cons_flit", l.cons_flit_off, l.cons_flit_stride},
  };
}

RouterArena::Layout layout_for(const MeshShape& mesh, const NocParams& p) {
  return RouterArena::compute_layout(mesh.num_nodes(), p.vcs_total(),
                                     p.inj_vcs_total(), p.vc_buffer_flits,
                                     p.consumption_channels,
                                     p.cons_buffer_flits);
}

/// Every section must start on a cache line and advance by whole cache
/// lines per node.
void expect_line_aligned(const RouterArena::Layout& l, const char* what) {
  for (const Section& s : sections(l)) {
    EXPECT_EQ(s.off % 64, 0u) << what << ": section " << s.name;
    EXPECT_EQ(s.stride % 64, 0u) << what << ": section " << s.name;
  }
}

TEST(ArenaLayout, NodeWordsIsOneCacheLine) {
  EXPECT_EQ(sizeof(NodeWords), 64u);
  EXPECT_EQ(alignof(NodeWords), 64u);
}

TEST(ArenaLayout, SectionsCoverArenaWithoutOverlap) {
  const NocParams p;
  const MeshShape mesh(16, 16);
  const RouterArena::Layout l = layout_for(mesh, p);
  const auto n = static_cast<std::size_t>(mesh.num_nodes());
  const auto secs = sections(l);
  // Ascending, end-to-end: each section starts where the previous one ends.
  std::size_t expect_off = 0;
  for (const Section& s : secs) {
    EXPECT_EQ(s.off, expect_off) << "section " << s.name;
    expect_off = s.off + n * s.stride;
  }
  EXPECT_EQ(l.total_bytes, expect_off);
  // Strides hold the natural per-node payload.
  EXPECT_GE(l.vc_hot_stride, static_cast<std::size_t>(l.slots) * sizeof(VcHot));
  EXPECT_GE(l.vc_flit_stride, static_cast<std::size_t>(l.slots) *
                                  static_cast<std::size_t>(l.vc_cap) *
                                  sizeof(Flit));
  EXPECT_GE(l.cons_hot_stride,
            static_cast<std::size_t>(l.cons_n) * sizeof(ConsHot));
  EXPECT_GE(l.cons_flit_stride, static_cast<std::size_t>(l.cons_n) *
                                    static_cast<std::size_t>(l.cons_cap) *
                                    sizeof(Flit));
}

TEST(ArenaLayout, DefaultConfigStridesAreWholeCacheLines) {
  const NocParams params;
  const struct {
    int w, h;
  } meshes[] = {{16, 16}, {33, 17}, {64, 64}};
  for (const auto& m : meshes) {
    expect_line_aligned(layout_for(MeshShape(m.w, m.h), params), "default");
  }
}

TEST(ArenaLayout, WiderBufferConfigsKeepAlignment) {
  // Bigger rings and more consumption channels change every stride; the
  // round-to-64 rule keeps the invariant independent of the configuration.
  NocParams p;
  p.vc_buffer_flits = 7;       // odd ring depth: worst case for padding
  p.consumption_channels = 3;
  p.cons_buffer_flits = 11;
  expect_line_aligned(layout_for(MeshShape(33, 17), p), "wide-config");
}

} // namespace
} // namespace mdw::noc
