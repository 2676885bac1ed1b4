// Word-array bitset over node ids: the directory's presence bits and the
// planner's sharer-set key, end to end.
//
// The first kInlineWords words (256 nodes) live inline — on the paper's mesh
// sizes a directory entry never allocates — and larger meshes spill to a
// heap block that is retained across clear().  Iteration is ascending-id
// (bit-scan per word), matching the std::set<NodeId> order the directory
// used before, so every plan derived from a bitmap is bit-identical to one
// derived from the old sorted-set materialization.
//
// Equality and hash() are canonical: trailing zero words are ignored, so two
// bitmaps holding the same ids compare equal regardless of erase history or
// capacity.  hash() keys the replay table in plan_cache.h (one
// multiply-xor fold per occupied word).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace mdw::core {

class SharerBitmap {
public:
  static constexpr std::size_t kInlineWords = 4;  // 256 nodes inline

  SharerBitmap() = default;

  void insert(NodeId id) {
    assert(id >= 0);
    const std::size_t w = word_index(id);
    reserve_words(w + 1);
    word(w) |= bit(id);
  }

  void erase(NodeId id) {
    assert(id >= 0);
    const std::size_t w = word_index(id);
    if (w < words_) word(w) &= ~bit(id);
  }

  [[nodiscard]] bool contains(NodeId id) const {
    assert(id >= 0);
    const std::size_t w = word_index(id);
    return w < words_ && (word(w) & bit(id)) != 0;
  }

  /// Number of ids present (popcount over the words).
  [[nodiscard]] int count() const {
    int n = 0;
    for (std::size_t w = 0; w < words_; ++w)
      n += std::popcount(word(w));
    return n;
  }

  [[nodiscard]] bool empty() const {
    for (std::size_t w = 0; w < words_; ++w)
      if (word(w) != 0) return false;
    return true;
  }

  /// Drop all ids; inline words and any spill block are retained.
  void clear() {
    for (std::size_t w = 0; w < words_; ++w) word(w) = 0;
    words_ = 0;
  }

  /// Visit every id in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = word(w);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
      }
    }
  }

  [[nodiscard]] std::vector<NodeId> to_vector() const {
    std::vector<NodeId> out;
    out.reserve(static_cast<std::size_t>(count()));
    for_each([&](NodeId id) { out.push_back(id); });
    return out;
  }

  /// Canonical content hash (trailing zero words do not contribute).
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t w = 0; w < effective_words(); ++w) {
      h ^= word(w) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return h;
  }

  friend bool operator==(const SharerBitmap& a, const SharerBitmap& b) {
    const std::size_t n = a.words_ > b.words_ ? a.words_ : b.words_;
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t aw = w < a.words_ ? a.word(w) : 0;
      const std::uint64_t bw = w < b.words_ ? b.word(w) : 0;
      if (aw != bw) return false;
    }
    return true;
  }

private:
  static std::size_t word_index(NodeId id) {
    return static_cast<std::size_t>(id) >> 6;
  }
  static std::uint64_t bit(NodeId id) {
    return 1ull << (static_cast<std::size_t>(id) & 63);
  }

  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    return w < kInlineWords ? inline_[w] : spill_[w - kInlineWords];
  }
  [[nodiscard]] std::uint64_t& word(std::size_t w) {
    return w < kInlineWords ? inline_[w] : spill_[w - kInlineWords];
  }

  /// Words up to and including the last non-zero one (the canonical width).
  [[nodiscard]] std::size_t effective_words() const {
    std::size_t n = words_;
    while (n > 0 && word(n - 1) == 0) --n;
    return n;
  }

  void reserve_words(std::size_t n) {
    if (n > kInlineWords && n - kInlineWords > spill_.size())
      spill_.resize(n - kInlineWords, 0);
    if (n > words_) words_ = n;
  }

  std::uint64_t inline_[kInlineWords] = {};
  std::vector<std::uint64_t> spill_;  // words beyond the inline window
  std::size_t words_ = 0;             // high-water word count in use
};

} // namespace mdw::core
