#include "frote/knn/knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace frote {
namespace {

TEST(MixedDistance, ZeroForIdenticalRows) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  EXPECT_DOUBLE_EQ(d(data.row(3), data.row(3)), 0.0);
}

TEST(MixedDistance, SymmetricAndNonNegative) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      const double dij = d(data.row(i), data.row(j));
      EXPECT_GE(dij, 0.0);
      EXPECT_DOUBLE_EQ(dij, d(data.row(j), data.row(i)));
    }
  }
}

TEST(MixedDistance, TriangleInequalityHolds) {
  auto data = testing::threshold_dataset(30);
  const auto d = MixedDistance::fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      for (std::size_t k = 0; k < 10; ++k) {
        EXPECT_LE(d(data.row(i), data.row(k)),
                  d(data.row(i), data.row(j)) + d(data.row(j), data.row(k)) +
                      1e-9);
      }
    }
  }
}

TEST(MixedDistance, CategoricalMismatchAddsPenalty) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  std::vector<double> a = {5.0, 5.0, 0.0};
  std::vector<double> b = {5.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(d(a, b), d.categorical_penalty());
}

TEST(BruteKnn, FindsSelfFirst) {
  auto data = testing::threshold_dataset(60);
  const BruteKnn knn(data, MixedDistance::fit(data));
  const auto nb = knn.query(data.row(17), 1);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(knn.dataset_index(nb[0].index), 17u);
  EXPECT_DOUBLE_EQ(nb[0].distance, 0.0);
}

TEST(BruteKnn, ResultsSortedByDistance) {
  auto data = testing::threshold_dataset(60);
  const BruteKnn knn(data, MixedDistance::fit(data));
  const auto nb = knn.query(data.row(0), 10);
  for (std::size_t i = 1; i < nb.size(); ++i) {
    EXPECT_LE(nb[i - 1].distance, nb[i].distance);
  }
}

TEST(BruteKnn, SubsetIndexingMapsBack) {
  auto data = testing::threshold_dataset(60);
  const struct {
    std::vector<std::size_t> subset;
    std::size_t query;
  } cases[] = {{{5, 10, 15, 20, 25}, 10}, {{2, 4, 6, 8, 10, 12, 14}, 8}};
  for (const auto& c : cases) {
    const BruteKnn knn(data, MixedDistance::fit(data), c.subset);
    EXPECT_EQ(knn.size(), c.subset.size());
    const auto nb = knn.query(data.row(c.query), 1);
    ASSERT_EQ(nb.size(), 1u);
    EXPECT_EQ(knn.dataset_index(nb[0].index), c.query);
  }
}

TEST(BruteKnn, KLargerThanSetReturnsAll) {
  auto data = testing::threshold_dataset(5);
  const BruteKnn knn(data, MixedDistance::fit(data));
  EXPECT_EQ(knn.query(data.row(0), 50).size(), 5u);
  // k = 0 asks for nothing.
  EXPECT_TRUE(knn.query(data.row(0), 0).empty());
}

// ---------------------------------------------------------------------------
// The bounded scan kernel (detail::PackedRows::squared_bounded) against the
// scalar reference squared() on adversarial packs.

std::shared_ptr<const Schema> kernel_schema(std::size_t numeric,
                                            std::size_t categorical,
                                            std::size_t cardinality) {
  std::vector<FeatureSpec> features;
  // Interleave the column kinds so packing has to permute them.
  for (std::size_t f = 0; numeric + categorical > 0; ++f) {
    if (categorical > 0 && (numeric == 0 || f % 2 == 1)) {
      std::vector<std::string> values(cardinality);
      for (std::size_t v = 0; v < cardinality; ++v) {
        values[v] = "v" + std::to_string(v);
      }
      features.push_back(
          FeatureSpec::categorical("c" + std::to_string(f), values));
      --categorical;
    } else {
      features.push_back(FeatureSpec::numeric("n" + std::to_string(f)));
      --numeric;
    }
  }
  return std::make_shared<Schema>(std::move(features),
                                  std::vector<std::string>{"a", "b"});
}

/// `n` seeded rows over kernel_schema: numerics on a coarse grid (so ties
/// are common), codes drawn from `codes`, and every fifth row a copy of the
/// previous one.
Dataset kernel_pack(std::size_t numeric, std::size_t categorical,
                    std::size_t cardinality, const std::vector<double>& codes,
                    std::size_t n, std::uint64_t seed) {
  Dataset data(kernel_schema(numeric, categorical, cardinality));
  Rng rng(seed);
  std::vector<double> row(data.num_features());
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || i % 5 != 0) {
      for (std::size_t f = 0; f < row.size(); ++f) {
        row[f] = data.schema().feature(f).is_categorical()
                     ? codes[rng.index(codes.size())]
                     : static_cast<double>(rng.index(4));
      }
    }
    data.add_row(row, static_cast<int>(i % 2));
  }
  return data;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every stored row, a freshly packed copy of it and each of
/// `extra_queries` (raw rows that may hold codes no dataset accepts) against
/// every stored row, at limits around the pair's own exact distance
/// (±1 ulp, the replay margin's edges), at 0, at +inf and at an unrelated
/// pair's distance: wherever the exact value is <= limit the kernel must
/// return it bit for bit, and elsewhere something > limit.
void expect_bounded_matches_reference(
    const Dataset& data,
    const std::vector<std::vector<double>>& extra_queries = {}) {
  const MixedDistance distance = MixedDistance::fit(data);
  std::vector<std::size_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  const detail::PackedRows packed(data, distance, ids);
  std::vector<std::vector<double>> queries;
  for (std::size_t i = 0; i < data.size(); ++i) {
    queries.emplace_back(packed.row(i), packed.row(i) + packed.stride());
    queries.emplace_back();
    packed.pack_query(data.row(i), queries.back());
  }
  for (const auto& raw : extra_queries) {
    queries.emplace_back();
    packed.pack_query(raw, queries.back());
  }
  KnnScanStats stats;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double* a = queries[i].data();
    for (std::size_t j = 0; j < data.size(); ++j) {
      const double* b = packed.row(j);
      const double exact = packed.squared(a, b);
      ASSERT_EQ(bits(exact), bits(packed.squared(b, a)));
      const double other =
          packed.squared(a, packed.row((i + j + 1) % data.size()));
      for (const double limit :
           {inf, exact, std::nextafter(exact, inf),
            std::nextafter(exact, -inf), exact * (1.0 + 1e-12),
            exact * (1.0 - 1e-12), 0.0, other}) {
        for (const double got : {packed.squared_bounded(a, b, limit, stats),
                                 packed.squared_bounded(b, a, limit, stats)}) {
          if (exact <= limit || std::isnan(exact)) {
            EXPECT_EQ(bits(got), bits(exact))
                << "query " << i << " row " << j << " limit " << limit;
          } else {
            EXPECT_GT(got, limit)
                << "query " << i << " row " << j << " limit " << limit;
          }
        }
      }
    }
  }
}

TEST(PackedRowsKernel, MixedWithDuplicatesAndTies) {
  expect_bounded_matches_reference(
      kernel_pack(3, 4, 5, {0, 1, 2, 3, 4}, 40, 1));
}

TEST(PackedRowsKernel, AllNumeric) {
  expect_bounded_matches_reference(kernel_pack(5, 0, 1, {0}, 40, 2));
}

TEST(PackedRowsKernel, AllCategorical) {
  expect_bounded_matches_reference(kernel_pack(0, 6, 3, {0, 1, 2}, 40, 3));
}

TEST(PackedRowsKernel, MoreThanEightCategoricalColumns) {
  // 19 categorical columns span three folded words.
  expect_bounded_matches_reference(
      kernel_pack(2, 19, 4, {0, 1, 2, 3}, 40, 4));
}

TEST(PackedRowsKernel, CodesAtOrAboveByteRangeFallBack) {
  // 255 still folds; 256 and up clear the fold flag of their row, so pairs
  // mix folded and fallback comparisons.
  expect_bounded_matches_reference(
      kernel_pack(2, 9, 300, {0, 1, 255, 256, 299}, 40, 5));
}

TEST(PackedRowsKernel, NanAndNonIntegerCodesFallBack) {
  // A dataset only holds valid codes, but a query row is packed from raw
  // values: NaN, fractional, negative and huge codes clear its fold flag.
  const Dataset data = kernel_pack(2, 5, 4, {0, 1, 2, 3}, 30, 6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> queries;
  for (const double code : {nan, 2.5, -1.0, 1e9, -0.0}) {
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<double> raw(data.row(i).begin(), data.row(i).end());
      for (std::size_t f = 0; f < raw.size(); ++f) {
        if (data.schema().feature(f).is_categorical() && f % 3 == i) {
          raw[f] = code;
        }
      }
      queries.push_back(std::move(raw));
    }
  }
  expect_bounded_matches_reference(data, queries);
}

TEST(PackedRowsKernel, PenaltyAbsorbedByHugeNumericSums) {
  // MixedDistance fixes the mismatch cost at 1 and standardises fitted
  // columns, so a zero or negligible penalty only arises against query
  // rows far outside the data. Numeric sums in [2^53, 2^55) round each
  // +1 penalty add to even, so the estimate acc + m·pen and the replayed
  // sum differ there by a few ulps; near 1e34 every add is absorbed.
  const Dataset data = kernel_pack(3, 4, 3, {0, 1, 2}, 30, 7);
  std::vector<std::vector<double>> queries;
  for (const double value : {1.05e8, 1.2e8, 1.45e8, 2e8, 2.6e8, 1e17}) {
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<double> raw(data.row(i).begin(), data.row(i).end());
      raw[0] = value + static_cast<double>(i);
      queries.push_back(std::move(raw));
    }
  }
  expect_bounded_matches_reference(data, queries);
}

TEST(PackedRowsKernel, ScanBuildsTheReferenceTopK) {
  // scan() scores rows several at a time under a shared limit; its heap
  // must equal heap_offer over squared() for every k and range shape.
  const Dataset data = kernel_pack(3, 9, 4, {0, 1, 2, 3}, 203, 8);
  const MixedDistance distance = MixedDistance::fit(data);
  std::vector<std::size_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  const detail::PackedRows packed(data, distance, ids);
  for (const std::size_t k : {1u, 2u, 6u, 15u, 300u}) {
    for (const std::size_t begin : {0u, 3u}) {
      for (std::size_t q = 0; q < data.size(); q += 17) {
        const double* query = packed.row(q);
        std::vector<Neighbor> expected;
        for (std::size_t p = begin; p < data.size(); ++p) {
          detail::heap_offer(expected, k,
                             {p, packed.squared(query, packed.row(p))});
        }
        std::vector<Neighbor> actual;
        KnnScanStats stats;
        packed.scan(query, begin, data.size(), k, actual,
                    [](std::size_t p) { return p; }, stats);
        EXPECT_EQ(stats.pairs, data.size() - begin);
        expected = detail::heap_sorted(std::move(expected));
        actual = detail::heap_sorted(std::move(actual));
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t r = 0; r < expected.size(); ++r) {
          EXPECT_EQ(actual[r].index, expected[r].index)
              << "k=" << k << " query=" << q << " rank=" << r;
          EXPECT_EQ(bits(actual[r].distance), bits(expected[r].distance));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BruteKnn's chunk merge and the blocked batch scan against reference
// orders.

TEST(BruteKnn, ChunkMergeMatchesReferenceSortAtEveryThreadCount) {
  // Every row twice: row i and row i + 1,600 are identical, so every
  // distance ties at least once and each tie pairs rows from different
  // kScanGrain chunks (3,200 rows span four). The merged top-k must order
  // the ties by row index exactly as a reference sort of every row by
  // (PackedRows::squared, index) does, whatever the thread count.
  const Dataset base = testing::threshold_dataset(1600);
  Dataset data = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    data.add_row(base.row(i), base.label(i));
  }
  ASSERT_GE(data.size(), 3 * BruteKnn::kScanGrain);
  const MixedDistance distance = MixedDistance::fit(data);
  std::vector<std::size_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  const detail::PackedRows packed(data, distance, ids);
  std::vector<double> query;
  for (const int threads : {1, 2, 4}) {
    const BruteKnn knn(data, distance, {}, threads);
    for (std::size_t row = 0; row < data.size(); row += 97) {
      packed.pack_query(data.row(row), query);
      std::vector<Neighbor> reference(data.size());
      for (std::size_t p = 0; p < data.size(); ++p) {
        reference[p] = {p, packed.squared(query.data(), packed.row(p))};
      }
      std::sort(reference.begin(), reference.end(), detail::NeighborCmp{});
      for (const std::size_t k : {1u, 6u, 15u}) {
        std::vector<Neighbor> got;
        knn.query_squared(data.row(row), k, got);
        ASSERT_EQ(got.size(), k);
        for (std::size_t r = 0; r < k; ++r) {
          EXPECT_EQ(got[r].index, reference[r].index)
              << "threads=" << threads << " row=" << row << " k=" << k
              << " rank=" << r;
          EXPECT_EQ(bits(got[r].distance), bits(reference[r].distance));
        }
      }
    }
  }
}

/// Property: the blocked batch scan (nearest_rows) returns exactly the
/// per-query scan's lists, for a sweep of dataset sizes (2,300 crosses a
/// row tile) and k values, at 1 and 4 threads.
class BatchScanAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BatchScanAgreement, MatchesPerQueryScan) {
  const auto [n, k] = GetParam();
  auto data = testing::threshold_dataset(n, 5.0, /*seed=*/n * 31 + k);
  const auto distance = MixedDistance::fit(data);
  const BruteKnn brute(data, distance);
  std::vector<std::size_t> rows;
  for (std::size_t q = 0; q < n; q += std::max<std::size_t>(1, n / 25)) {
    rows.push_back(q);
  }
  std::vector<Neighbor> expected;
  for (const int threads : {1, 4}) {
    const auto lists = nearest_rows(data, distance, rows, k, threads);
    ASSERT_EQ(lists.size(), rows.size());
    for (std::size_t s = 0; s < rows.size(); ++s) {
      brute.query_squared(data.row(rows[s]), k, expected);
      ASSERT_EQ(lists[s].size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(lists[s][i].index, brute.dataset_index(expected[i].index))
            << "n=" << n << " k=" << k << " row=" << rows[s]
            << " rank=" << i << " threads=" << threads;
        EXPECT_EQ(bits(lists[s][i].distance), bits(expected[i].distance));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchScanAgreement,
    ::testing::Combine(::testing::Values<std::size_t>(3, 10, 50, 200, 500,
                                                      2300),
                       ::testing::Values<std::size_t>(1, 3, 5, 11)));

}  // namespace
}  // namespace frote
