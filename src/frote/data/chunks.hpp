// Columnar chunk storage for Dataset feature values (docs/DESIGN.md §8).
//
// A Dataset's feature table is a struct-of-arrays triple — values, labels,
// row_ids — and this file owns the values column, the only one that grows
// past memory comfort (rows × features doubles). The store splits it into
// fixed-size *sealed* chunks plus one mutable tail:
//
//   [chunk 0][chunk 1]...[chunk m-1][   tail (growing vector)   ]
//    exactly chunk_rows rows each     < chunk_rows rows, or more
//                                     while a staged batch is open
//
// Rows stay row-major *within* a chunk, so Dataset::row(i) still hands out
// one contiguous span per row — every consumer of per-row spans (packed kNN
// rows, encoders, metrics) is untouched. Only whole-table contiguity is
// lost once a chunk seals (the store reports it via contiguous()), and no
// reader needs it: every consumer goes through per-row access.
//
// Sealed chunks are immutable and shared (shared_ptr) between dataset
// copies: a copy shares every sealed chunk and deep-copies only the tail.
// Mutation never touches sealed bytes — rollback truncates the tail,
// remove_rows rebuilds a fresh store — so sharing is safe by construction.
//
// Sealing policy: full chunks move from the tail to the sealed list only at
// *commit points* (add_row/append outside a staged batch, commit() itself),
// never while rows are staged. That keeps Dataset::rollback() the same O(1)
// tail truncation it was on flat storage: the pre-stage size is always at
// or past the sealed boundary.
//
// mmap policy: with StorageOptions::mmap set, sealed chunks live in
// file-backed MAP_SHARED mappings over unlinked temp files instead of the
// heap, so the kernel may write chunk pages back and evict them under
// memory pressure — the process's resident set is bounded by the working
// set of chunks a scan actually touches, not the table size. The file is
// unlinked before use (no cleanup obligations) and the fd is closed once
// mapped. On platforms without POSIX mmap — or when any syscall fails —
// the store silently falls back to heap chunks: mmap is a residency
// optimisation, never a semantics change.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "frote/util/error.hpp"

namespace frote {

/// Storage geometry of a Dataset's feature table (DatasetSpec `chunk_rows`
/// / `mmap` map straight onto this).
struct StorageOptions {
  /// Rows per sealed chunk; 0 = one contiguous in-memory table (the
  /// pre-chunking layout, still the default).
  std::size_t chunk_rows = 0;
  /// Back sealed chunks with file-backed mmap (ignored when chunk_rows
  /// is 0; falls back to heap chunks when mapping is unavailable).
  bool mmap = false;

  bool operator==(const StorageOptions&) const = default;
};

namespace detail {

/// One sealed chunk: an immutable block of `doubles_` values, heap- or
/// mmap-backed. Construction copies the bytes in; nothing mutates after.
class Chunk {
 public:
  /// Build a chunk holding `count` doubles copied from `src`. `use_mmap`
  /// requests a file-backed mapping; heap is the fallback.
  static std::shared_ptr<const Chunk> make(const double* src,
                                           std::size_t count, bool use_mmap);
  ~Chunk();
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  const double* data() const { return data_; }
  bool mapped() const { return map_bytes_ != 0; }

 private:
  Chunk() = default;

  std::vector<double> heap_;
  double* map_ = nullptr;        // non-null when mmap-backed
  std::size_t map_bytes_ = 0;
  const double* data_ = nullptr;
};

}  // namespace detail

/// The values column of a Dataset: sealed immutable chunks + mutable tail.
class ChunkStore {
 public:
  ChunkStore() = default;

  /// Set row width and geometry. Only legal while empty (Dataset
  /// constructs/rebuilds stores; it never reshapes one in place).
  void configure(std::size_t width, const StorageOptions& options);

  const StorageOptions& options() const { return options_; }
  std::size_t width() const { return width_; }
  std::size_t rows() const { return rows_; }

  /// Pointer to row i's `width()` contiguous values. No bounds check —
  /// Dataset::row() owns validation; hot loops call this straight.
  const double* row(std::size_t i) const {
    return i >= sealed_rows_
               ? tail_.data() + (i - sealed_rows_) * width_
               : sealed_[i / options_.chunk_rows]->data() +
                     (i % options_.chunk_rows) * width_;
  }

  /// True while every row lives in the tail (no chunk has sealed yet) —
  /// exactly when whole-table contiguous access is still available.
  bool contiguous() const { return sealed_.empty(); }

  std::size_t sealed_chunk_count() const { return sealed_.size(); }
  /// Sealed chunks plus the tail when non-empty — what server.stats and
  /// the checkpoint report as "chunks".
  std::size_t chunk_count() const {
    return sealed_.size() + (tail_.empty() ? 0 : 1);
  }
  std::size_t sealed_rows() const { return sealed_rows_; }
  /// Number of sealed chunks currently mmap-backed (test/stats hook).
  std::size_t mapped_chunk_count() const;

  /// Append one row of `width()` values to the tail.
  void push_row(const double* src);

  /// Move every full chunk_rows block from the tail into sealed chunks.
  /// No-op on unchunked stores. Dataset calls this only at commit points,
  /// never while a staged batch is open.
  void seal();

  /// Truncate to `new_rows` (the rollback path). Must not cut into sealed
  /// rows — guaranteed by the sealing policy: nothing seals while staged.
  void truncate(std::size_t new_rows);

  /// Reserve tail capacity toward `total_rows` total rows. On a chunked
  /// store the tail only ever holds ~a chunk plus one staged batch, so the
  /// reservation is capped at two chunks instead of the full table.
  void reserve_rows(std::size_t total_rows);

 private:
  StorageOptions options_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
  std::size_t sealed_rows_ = 0;
  std::vector<std::shared_ptr<const detail::Chunk>> sealed_;
  std::vector<double> tail_;  // rows [sealed_rows_, rows_), row-major
};

}  // namespace frote
