#include "frote/knn/sharded.hpp"

#include <algorithm>
#include <utility>

#include "frote/util/parallel.hpp"

namespace frote {

namespace {

bool is_identity(const std::vector<std::size_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) return false;
  }
  return true;
}

}  // namespace

std::size_t ShardedKnnIndex::plan_shards(std::size_t n,
                                         const KnnIndexConfig& config) {
  const std::size_t target = std::max<std::size_t>(1, config.shard_target_rows);
  const std::size_t wanted = config.shards >= 2
                                 ? config.shards
                                 : std::max<std::size_t>(2, (n + target - 1) / target);
  // Never more shards than rows: every shard must be non-empty (an empty
  // explicit index list would mean "all rows" to the sub-engines).
  return std::max<std::size_t>(1, std::min(wanted, std::max<std::size_t>(1, n)));
}

ShardedKnnIndex::ShardedKnnIndex(const Dataset& data, MixedDistance distance,
                                 std::vector<std::size_t> indices,
                                 const KnnIndexConfig& config)
    : config_(config) {
  // An identity row set is kept implicit (row_ids_ empty): at the scales
  // this engine targets the mapping array would cost 8 bytes/row for a
  // lookup the shard offsets already encode.
  const std::size_t n = indices.empty() ? data.size() : indices.size();
  if (!indices.empty() && !is_identity(indices)) {
    row_ids_ = std::move(indices);
  }
  total_rows_ = n;
  const std::size_t count = plan_shards(n, config_);
  shards_.clear();
  shards_.resize(count);
  // Shard boundaries depend only on (n, count); each shard builds its own
  // sub-index independently, so build order (= thread schedule) cannot
  // affect any result bit.
  parallel_for(count, 1, config_.threads, [&](std::size_t begin, std::size_t) {
    const std::size_t s = begin;
    const std::size_t lo = s * n / count;
    const std::size_t hi = (s + 1) * n / count;
    std::vector<std::size_t> ids;
    ids.reserve(hi - lo);
    for (std::size_t pos = lo; pos < hi; ++pos) {
      ids.push_back(dataset_index(pos));
    }
    shards_[s].begin = lo;
    shards_[s].index =
        make_single_knn_index(data, distance, std::move(ids), config_);
  });
}

void ShardedKnnIndex::query_squared(std::span<const double> query,
                                    std::size_t k,
                                    std::vector<Neighbor>& out) const {
  out.clear();
  if (k == 0 || total_rows_ == 0) return;
  // Fan out: each shard reports its own k best by squared distance. The
  // per-shard lists land in per-shard slots, so the thread schedule is
  // invisible to the merge. Bind a reference to the caller's scratch before
  // the lambda: a thread_local name used inside a pool worker would resolve
  // to the worker's own instance.
  static thread_local std::vector<std::vector<Neighbor>> per_shard_tls;
  auto& per_shard = per_shard_tls;
  per_shard.resize(shards_.size());
  parallel_for(shards_.size(), 1, config_.threads,
               [&](std::size_t begin, std::size_t) {
                 shards_[begin].index->query_squared(query, k,
                                                     per_shard[begin]);
               });
  // Merge in ascending shard order under the (squared distance, global
  // index) total order. Contiguous ascending shards make the global
  // position a plain offset add, which preserves the index tie-break; the
  // k-best set under a total order does not depend on the partition, so
  // this equals a single index over the union bit for bit.
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const Neighbor& nb : per_shard[s]) {
      detail::heap_offer(heap, k, {shards_[s].begin + nb.index, nb.distance});
    }
  }
  out = detail::heap_sorted(std::move(heap));
}

}  // namespace frote
