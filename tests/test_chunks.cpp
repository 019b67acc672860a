// Columnar chunk storage (docs/DESIGN.md §8): ChunkStore geometry units,
// the Dataset-level storage contract (stage/commit/rollback across chunk
// boundaries, copy/subset/remove under every geometry), and the headline
// equivalence lock — the same rows produce bit-identical FROTE augmentation
// under flat, chunked, and mmap-chunked storage, and a checkpoint taken on
// chunked storage restores the same geometry bit-identically.
#include "frote/data/chunks.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/spec.hpp"
#include "frote/exp/learners.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

std::vector<double> row_of(double base, std::size_t width) {
  std::vector<double> row(width);
  for (std::size_t f = 0; f < width; ++f) row[f] = base + 0.25 * f;
  return row;
}

/// Bitwise equality of every observable column: values, labels, row ids.
void expect_same_rows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "label " << i;
    EXPECT_EQ(a.row_id(i), b.row_id(i)) << "row_id " << i;
    EXPECT_EQ(std::memcmp(a.row_ptr(i), b.row_ptr(i),
                          a.num_features() * sizeof(double)),
              0)
        << "row " << i << " differs bitwise";
  }
}

TEST(ChunkStore, FlatModeStaysContiguous) {
  ChunkStore store;
  store.configure(3, {});
  for (int i = 0; i < 10; ++i) store.push_row(row_of(i, 3).data());
  store.seal();
  EXPECT_TRUE(store.contiguous());
  EXPECT_EQ(store.sealed_chunk_count(), 0u);
  EXPECT_EQ(store.chunk_count(), 1u);
  EXPECT_EQ(store.row(9), store.row(0) + 27);  // one 30-value block
  EXPECT_DOUBLE_EQ(store.row(7)[2], 7.5);
}

TEST(ChunkStore, SealsFullChunksAndKeepsTail) {
  ChunkStore store;
  store.configure(3, {/*chunk_rows=*/4, /*mmap=*/false});
  for (int i = 0; i < 10; ++i) store.push_row(row_of(i, 3).data());
  store.seal();
  EXPECT_EQ(store.sealed_chunk_count(), 2u);  // rows 0..7 sealed
  EXPECT_EQ(store.sealed_rows(), 8u);
  EXPECT_EQ(store.chunk_count(), 3u);  // + the 2-row tail
  EXPECT_FALSE(store.contiguous());
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(store.row(static_cast<std::size_t>(i))[0], i);
    EXPECT_DOUBLE_EQ(store.row(static_cast<std::size_t>(i))[2], i + 0.5);
  }
}

TEST(ChunkStore, TruncateIsTailOnly) {
  ChunkStore store;
  store.configure(2, {/*chunk_rows=*/4, /*mmap=*/false});
  for (int i = 0; i < 11; ++i) store.push_row(row_of(i, 2).data());
  store.seal();  // 8 sealed, 3 tail
  store.truncate(9);
  EXPECT_EQ(store.sealed_rows(), 8u);
  EXPECT_DOUBLE_EQ(store.row(8)[0], 8.0);
  // Unsealed rows re-appended after a truncate read back correctly.
  store.push_row(row_of(42, 2).data());
  EXPECT_DOUBLE_EQ(store.row(9)[0], 42.0);
}

TEST(ChunkStore, MmapChunksReadBackIdentically) {
  ChunkStore mapped, heap;
  mapped.configure(3, {/*chunk_rows=*/4, /*mmap=*/true});
  heap.configure(3, {/*chunk_rows=*/4, /*mmap=*/false});
  for (int i = 0; i < 13; ++i) {
    const auto row = row_of(i, 3);
    mapped.push_row(row.data());
    heap.push_row(row.data());
  }
  mapped.seal();
  heap.seal();
  ASSERT_EQ(mapped.sealed_chunk_count(), 3u);
  // This build host supports mmap; Chunk::make only falls back on syscall
  // failure, which would make the count diverge loudly here.
  EXPECT_EQ(mapped.mapped_chunk_count(), 3u);
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(std::memcmp(mapped.row(i), heap.row(i), 3 * sizeof(double)), 0);
  }
}

TEST(Dataset, SetStorageRechunksAndBumpsEpoch) {
  auto flat = testing::threshold_dataset(50);
  Dataset chunked = flat;
  const std::uint64_t epoch = chunked.append_epoch();
  chunked.set_storage({/*chunk_rows=*/8, /*mmap=*/false});
  EXPECT_GT(chunked.append_epoch(), epoch);  // rows moved addresses
  EXPECT_EQ(chunked.chunk_count(), 7u);      // 6 sealed + 2-row tail
  EXPECT_FALSE(chunked.values_contiguous());
  expect_same_rows(flat, chunked);
  // Re-chunking to the same geometry is a no-op (no epoch churn).
  const std::uint64_t epoch2 = chunked.append_epoch();
  chunked.set_storage({8, false});
  EXPECT_EQ(chunked.append_epoch(), epoch2);
}

TEST(Dataset, StageCommitRollbackAcrossChunkBoundaries) {
  auto flat = testing::threshold_dataset(10);
  Dataset chunked = flat;
  chunked.set_storage({/*chunk_rows=*/4, /*mmap=*/false});
  auto batch = testing::threshold_dataset(9, 5.0, /*seed=*/99);

  // Staged rows cross two chunk boundaries but must NOT seal: rollback has
  // to stay a pure tail truncation.
  const std::size_t sealed_before = chunked.chunk_count();
  chunked.stage_rows(batch);
  EXPECT_EQ(chunked.size(), 19u);
  EXPECT_EQ(chunked.chunk_count(), sealed_before);
  chunked.rollback();
  EXPECT_EQ(chunked.size(), 10u);
  // Row ids are monotonic — a rolled-back stage still consumes them — so
  // the flat twin replays the identical operation sequence throughout.
  flat.stage_rows(batch);
  flat.rollback();
  expect_same_rows(flat, chunked);

  // Same batch staged then committed: seals catch up, and the rows must be
  // bitwise what a flat dataset holds after the same operations.
  flat.stage_rows(batch);
  flat.commit();
  chunked.stage_rows(batch);
  chunked.commit();
  EXPECT_EQ(chunked.chunk_count(), 5u);  // 16 sealed rows + 3-row tail
  expect_same_rows(flat, chunked);
}

TEST(Dataset, CopySubsetRemoveUnderChunkedStorage) {
  auto flat = testing::threshold_dataset(30);
  Dataset chunked = flat;
  chunked.set_storage({/*chunk_rows=*/7, /*mmap=*/false});

  // Copies share sealed chunks but stay independent datasets.
  Dataset copy = chunked;
  EXPECT_EQ(copy.storage().chunk_rows, 7u);
  expect_same_rows(chunked, copy);
  copy.add_row(std::vector<double>{1.0, 2.0, 0.0}, 1);
  EXPECT_EQ(chunked.size(), 30u);

  // Subsets inherit the geometry; values/labels/ids track the source rows.
  const std::vector<std::size_t> picks = {0, 6, 7, 13, 29};
  Dataset flat_sub = flat.subset(picks);
  Dataset chunked_sub = chunked.subset(picks);
  EXPECT_EQ(chunked_sub.storage().chunk_rows, 7u);
  expect_same_rows(flat_sub, chunked_sub);

  // remove_rows rebuilds the chunk layout around the survivors.
  flat.remove_rows({2, 7, 8});
  chunked.remove_rows({2, 7, 8});
  expect_same_rows(flat, chunked);
}

TEST(DatasetSpecStorage, RoundTripsAndApplies) {
  DatasetSpec spec;
  spec.kind = "synthetic";
  spec.name = "adult";
  spec.size = 200;
  spec.chunk_rows = 32;
  spec.mmap = true;
  const auto parsed = DatasetSpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->chunk_rows, 32u);
  EXPECT_TRUE(parsed->mmap);

  auto data = load_spec_dataset(spec);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->storage().chunk_rows, 32u);
  EXPECT_TRUE(data->storage().mmap);
  EXPECT_GT(data->chunk_count(), 1u);

  // Default geometry stays absent from the JSON (old specs byte-stable).
  DatasetSpec flat_spec;
  EXPECT_EQ(flat_spec.to_json().find("chunk_rows"), nullptr);
}

/// Run one full FROTE session over `data` and return the augmented D̂.
Dataset run_session(const Dataset& data) {
  // The rule contradicts the training labels (x > 7 rows carry class 1),
  // so the loop really generates and accepts synthetic instances; the
  // engine knobs mirror test_engine_api's fixture, which asserts growth.
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  const auto learner = make_learner(LearnerKind::kRF, 42, /*fast=*/true);
  auto engine = Engine::Builder()
                    .rules(frs)
                    .tau(6)
                    .q(0.4)
                    .k(5)
                    .seed(1)
                    .build()
                    .value();
  auto session = engine.open(data, *learner).value();
  session.run();
  return std::move(session).result().augmented;
}

TEST(ChunkedEquivalence, AugmentationIsBitIdenticalAcrossGeometries) {
  const auto flat = testing::threshold_dataset(150, 5.0, /*seed=*/11);
  Dataset chunked = flat;
  chunked.set_storage({/*chunk_rows=*/16, /*mmap=*/false});
  Dataset mapped = flat;
  mapped.set_storage({/*chunk_rows=*/16, /*mmap=*/true});

  const Dataset out_flat = run_session(flat);
  const Dataset out_chunked = run_session(chunked);
  const Dataset out_mapped = run_session(mapped);
  EXPECT_GT(out_flat.size(), flat.size());  // the loop actually augmented
  expect_same_rows(out_flat, out_chunked);
  expect_same_rows(out_flat, out_mapped);
  // The augmented copies keep their respective geometries.
  EXPECT_EQ(out_chunked.storage().chunk_rows, 16u);
  EXPECT_TRUE(out_mapped.storage().mmap);
}

TEST(ChunkedEquivalence, CheckpointRestoresChunkGeometry) {
  auto data = testing::threshold_dataset(100, 5.0, /*seed=*/3);
  data.set_storage({/*chunk_rows=*/16, /*mmap=*/false});
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  const auto learner = make_learner(LearnerKind::kRF, 42, /*fast=*/true);
  auto engine = Engine::Builder()
                    .rules(frs)
                    .tau(6)
                    .q(0.4)
                    .k(5)
                    .seed(1)
                    .build()
                    .value();

  auto golden = engine.open(data, *learner).value();
  golden.run();

  auto session = engine.open(data, *learner).value();
  session.step();
  session.step();
  // Round-trip through JSON text, as the spool does.
  const std::string text = session.snapshot().to_json_text();
  auto checkpoint = SessionCheckpoint::parse(text);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->chunk_rows, 16u);
  auto restored = Session::restore(engine, *learner, *checkpoint);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->augmented().storage().chunk_rows, 16u);
  restored->run();
  expect_same_rows(golden.augmented(), restored->augmented());
}

}  // namespace
}  // namespace frote
