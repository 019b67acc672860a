// Shared split-search sorting kernel: a stable LSD byte-radix sort over
// unsigned keys with a small fixed payload. It replaced a comparison sort
// that dominated training (RF train 2.92 → 1.81 ms when the DT adopted it):
// branchless scatter passes.
//
// Callers, at two key widths:
//   - once per fit and numeric column, 64-bit monotone-mapped doubles
//     (split_value_key), to rank the column (ml/coded_columns.hpp), for
//     both tree learners;
//   - per DT node and sampled feature, 32-bit dense ranks from that table.
// GBDT sorts no node: it stable-partitions a per-fit presort down each
// tree instead (ColumnPresort, docs/DESIGN.md §12).
// A pass runs per key byte the caller asks for (`key_bytes`, at most
// sizeof(Key)): ranks below 2^8 need one pass, below 2^16 two, so a node
// sort costs m × (rank bytes) scatters instead of m × 8.
//
// Skipped passes. A byte that is the same for all m keys permutes nothing,
// so its pass is skipped outright: the exponent bytes of a narrow value
// range, or the high rank bytes of a node whose rows span few ranks.
//
// Stability is load-bearing: callers feed pairs in a fixed order (row
// order for the table build, the node's index order for a DT node), so
// ties land exactly where a std::sort over (value, row) pairs put them, and
// the ranks, cut lists and class counts built on the result stay
// bit-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace frote::detail {

/// Monotone map from a finite double to an unsigned key: a < b (as
/// doubles) ⇔ map(a) < map(b). The standard IEEE-754 flip: negative values
/// invert entirely, non-negative values flip the sign bit. Note -0.0 and
/// +0.0 map to *different* keys although they compare equal as doubles;
/// callers for whom that tie split matters must canonicalise first.
inline std::uint64_t split_value_key(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u ^ (u >> 63 != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
}

inline double split_key_value(std::uint64_t key) {
  const std::uint64_t msb = std::uint64_t{1} << 63;
  const std::uint64_t u = (key & msb) != 0 ? key ^ msb : ~key;
  double v;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

/// Low-order bytes needed to hold every key in [0, max_key] (at least 1).
inline std::size_t key_bytes(std::uint64_t max_key) {
  std::size_t bytes = 1;
  while (bytes < 8 && (max_key >> (8 * bytes)) != 0) ++bytes;
  return bytes;
}

/// Add `key`'s low `bytes` bytes to the per-byte counts in `hist`
/// (bytes × 256 entries, byte b's counts at b × 256).
template <typename Key>
inline void radix_count(Key key, std::size_t bytes, std::uint32_t* hist) {
  for (std::size_t b = 0; b < bytes; ++b) {
    ++hist[b * 256 + ((key >> (8 * b)) & 0xFF)];
  }
}

/// Stable LSD byte-radix over the m (key, payload) pairs already loaded
/// into keys[0] / payloads[0], ordering by the low `bytes` bytes of each
/// key (higher bytes must be equal across all keys). `hist` must hold the
/// bytes × 256 per-byte counts of keys[0] (the caller accumulates them with
/// radix_count while loading, saving a pass). Both double-buffers are
/// required to be size m. Returns the buffer index (0 or 1) holding the
/// sorted result.
template <typename Key, typename Payload>
int radix_sort_pairs(std::vector<Key> (&keys)[2],
                     std::vector<Payload> (&payloads)[2],
                     const std::vector<std::uint32_t>& hist,
                     std::size_t bytes) {
  const std::size_t m = keys[0].size();
  int cur = 0;
  for (std::size_t b = 0; b < bytes; ++b) {
    const std::uint32_t* h = hist.data() + b * 256;
    if (m == 0 || h[(keys[cur][0] >> (8 * b)) & 0xFF] == m) continue;
    std::uint32_t offsets[256];
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      offsets[d] = sum;
      sum += h[d];
    }
    const int alt = cur ^ 1;
    for (std::size_t i = 0; i < m; ++i) {
      const Key key = keys[cur][i];
      const std::uint32_t pos = offsets[(key >> (8 * b)) & 0xFF]++;
      keys[alt][pos] = key;
      payloads[alt][pos] = payloads[cur][i];
    }
    cur = alt;
  }
  return cur;
}

}  // namespace frote::detail
