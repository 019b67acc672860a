#include "frote/core/workspace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "frote/util/parallel.hpp"

namespace frote {

namespace {

/// min over columns of (new_scale / old_scale)²: multiplying an old squared
/// distance by this lower-bounds its value under the new fit, because every
/// per-column squared term rescales by exactly its own ratio². Returns 0.0
/// (bound degenerates, forcing requeries) when the fits are not comparable
/// or a scale is non-positive.
double min_scale_ratio_sq(const MixedDistance& old_fit,
                          const MixedDistance& new_fit) {
  if (old_fit.num_columns() != new_fit.num_columns()) return 0.0;
  double min_r2 = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < new_fit.num_columns(); ++f) {
    if (old_fit.column_categorical(f) != new_fit.column_categorical(f)) {
      return 0.0;
    }
    const double old_scale = new_fit.column_categorical(f)
                                 ? old_fit.categorical_penalty()
                                 : old_fit.column_inv_std(f);
    const double new_scale = new_fit.column_categorical(f)
                                 ? new_fit.categorical_penalty()
                                 : new_fit.column_inv_std(f);
    if (!(old_scale > 0.0) || !(new_scale > 0.0)) return 0.0;
    const double r = new_scale / old_scale;
    min_r2 = std::min(min_r2, r * r);
  }
  if (!std::isfinite(min_r2)) return min_r2 > 0.0 ? 1.0 : 0.0;
  return min_r2;
}

/// Margin the certification shaves off its bound: the analytic inequality
/// new_sq ≥ min_r2 · old_sq is exact over the reals but each side carries
/// O(d·ε) float rounding, so the strict comparison keeps a relative safety
/// gap rather than trusting the last few ulps.
constexpr double kBoundSafety = 1.0 - 1e-9;

/// Candidate entries kept beyond the served (k+1)-prefix. The certificate
/// only has to prove no row OUTSIDE the stored list reaches the prefix, so
/// a longer stored list starts `outside_bound` at the (k+1+pad+1)-th
/// distance instead of the (k+2)-th — far more headroom before accepted
/// batches decay the bound past the (k+1)-th distance and force a requery.
/// Exactness is claimed (and tested) for the prefix only; the tail is an
/// internal candidate set.
constexpr std::size_t kNbrPad = 8;

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_lp(const LpProblem& a, const LpProblem& b) {
  return a.num_vars == b.num_vars && a.num_rows == b.num_rows &&
         same_bytes(a.c, b.c) && same_bytes(a.lo, b.lo) &&
         same_bytes(a.hi, b.hi) && same_bytes(a.a, b.a) &&
         same_bytes(a.b, b.b);
}

}  // namespace

void SessionWorkspace::bind(const Dataset& data) {
  // Staged rows are revocable: absorbing them would leave the caches
  // describing rows a rollback deletes, and the snapshot key could not
  // tell a re-staged same-size batch apart. Only committed state binds.
  FROTE_CHECK_MSG(!data.has_staged(),
                  "SessionWorkspace::bind on a dataset with staged rows");
  const DatasetSnapshot snap = snapshot_of(data);
  const bool extends_bound =
      data_ != nullptr && bound_.uid == snap.uid &&
      bound_.append_epoch == snap.append_epoch &&
      snap.rows >= moments_.absorbed_rows();
  if (&data != data_) {
    // Same logical dataset at a new address (e.g. a moved Session): the
    // value caches survive, but the generators hold raw row pointers.
    drop_generators();
  }
  data_ = &data;
  if (!extends_bound) {
    moments_ = ColumnMoments(data.schema());
    distance_valid_ = false;
    weights_valid_ = false;
    predictions_.invalidate();
    drop_generators();
    nbr_valid_ = false;
    nbr_entries_.clear();
    nbr_packed_.reset();
    nbr_packed_ids_.clear();
  }
  if (!data.empty() &&
      (moments_.absorbed_rows() != snap.rows || !distance_valid_)) {
    moments_.absorb(data);
    distance_ = MixedDistance::from_moments(data.schema(), moments_);
    distance_valid_ = true;
  }
  bound_ = snap;
}

void SessionWorkspace::set_model_stamp(std::uint64_t stamp) {
  model_stamp_ = stamp;
}

const std::vector<double>* SessionWorkspace::cached_weights(
    const std::vector<std::size_t>& rows) const {
  if (!weights_valid_ || weights_snapshot_ != bound_ ||
      weights_model_stamp_ != model_stamp_ || weight_rows_ != rows) {
    return nullptr;
  }
  return &weights_;
}

void SessionWorkspace::store_weights(const std::vector<std::size_t>& rows,
                                     std::vector<double> weights) {
  weights_ = std::move(weights);
  weight_rows_ = rows;
  weights_snapshot_ = bound_;
  weights_model_stamp_ = model_stamp_;
  weights_valid_ = true;
}

const IpResult& SessionWorkspace::solve_ip(
    const LpProblem& lp, const std::vector<std::size_t>& binaries,
    const IpConfig& config) {
  if (ip_valid_ && same_lp(lp, ip_lp_) && binaries == ip_binaries_ &&
      config == ip_config_) {
    ++ip_memo_hits_;
    return ip_result_;
  }
  ip_valid_ = false;
  ip_result_ = solve_binary_ip(lp, binaries, config);
  ip_lp_ = lp;
  ip_binaries_ = binaries;
  ip_config_ = config;
  ip_valid_ = true;
  ++ip_solves_;
  return ip_result_;
}

std::vector<const RowNeighborhood*> SessionWorkspace::neighborhoods(
    const std::vector<std::size_t>& rows, std::size_t k) {
  FROTE_CHECK_MSG(data_ != nullptr && distance_valid_,
                  "workspace neighborhoods requested before bind");
  FROTE_CHECK(k > 0 && bound_.rows > 0);
  const std::size_t n = bound_.rows;
  const std::size_t cap = std::min(k + 1, n);  // exact prefix, self included
  const std::size_t stored = std::min(cap + kNbrPad, n);  // kept candidates

  const bool same_snapshot =
      nbr_valid_ && nbr_k_ == k && nbr_snapshot_ == bound_;
  const bool extends = nbr_valid_ && nbr_k_ == k && !same_snapshot &&
                       nbr_snapshot_.uid == bound_.uid &&
                       nbr_snapshot_.append_epoch == bound_.append_epoch &&
                       nbr_snapshot_.rows <= bound_.rows;
  if (!same_snapshot && !extends) nbr_entries_.clear();
  if (!same_snapshot) ++nbr_stamp_;
  const std::size_t old_rows = extends ? nbr_snapshot_.rows : n;
  const double min_r2 =
      extends ? min_scale_ratio_sq(nbr_distance_, distance_) : 1.0;

  // Keep the private packed mirror in sync with (bound_, distance_): pack
  // only the appended rows while the scales hold, else repack in one pass.
  if (nbr_packed_ids_.size() < n) {
    const std::size_t have = nbr_packed_ids_.size();
    nbr_packed_ids_.resize(n);
    std::iota(nbr_packed_ids_.begin() + static_cast<std::ptrdiff_t>(have),
              nbr_packed_ids_.end(), have);
  }
  nbr_packed_ids_.resize(n);
  if (nbr_packed_ == nullptr) {
    nbr_packed_ = std::make_unique<detail::PackedRows>(*data_, distance_,
                                                       nbr_packed_ids_);
  } else if (!nbr_packed_->scales_match(distance_) ||
             nbr_packed_->rows() > n) {
    nbr_packed_->repack(*data_, distance_, nbr_packed_ids_);
  } else if (nbr_packed_->rows() < n) {
    nbr_packed_->append(*data_,
                        std::span<const std::size_t>(nbr_packed_ids_)
                            .subspan(nbr_packed_->rows()));
  }

  // Pass 1 (serial): create slots and classify each distinct row as
  // already-current, incrementally updatable, or needing a full scan.
  std::vector<const RowNeighborhood*> out(rows.size());
  std::vector<std::pair<std::size_t, NbrSlot*>> incremental, fresh;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    FROTE_CHECK(rows[s] < n);
    auto [it, inserted] = nbr_entries_.try_emplace(rows[s]);
    out[s] = &it->second.hood;
    if (it->second.stamp == nbr_stamp_) continue;  // duplicate / current
    if (!inserted && extends) {
      incremental.emplace_back(rows[s], &it->second);
    } else {
      fresh.emplace_back(rows[s], &it->second);
    }
    it->second.stamp = nbr_stamp_;
  }

  // Pass 2: certified incremental updates — score only (kept list ∪
  // appended rows) with the packed mirror and keep the result only when the
  // rescaled bound proves no other row can reach the new top (cap). Rows
  // whose certificate fails degrade to the pass-3 fill (exact either way).
  // The top stored+1 of that pool is all the update reads — the list plus
  // the next distance — so a bounded heap with the exact scan kernel
  // replaces sorting the whole pool.
  const detail::PackedRows& mirror = *nbr_packed_;
  const auto identity = [](std::size_t pos) { return pos; };
  if (!incremental.empty()) {
    std::vector<std::uint8_t> failed(incremental.size(), 0);
    std::vector<KnnScanStats> chunk_stats(chunk_count(incremental.size(), 4));
    parallel_for(
        incremental.size(), 4, threads_,
        [&](std::size_t begin, std::size_t end) {
          KnnScanStats& stats = chunk_stats[begin / 4];
          std::vector<Neighbor> heap;
          for (std::size_t w = begin; w < end; ++w) {
            auto& [row, slot] = incremental[w];
            RowNeighborhood& hood = slot->hood;
            const double* q = mirror.row(row);
            heap.clear();
            for (const Neighbor& nb : hood.list) {
              const double* r = mirror.row(nb.index);
              const double d =
                  heap.size() <= stored
                      ? mirror.squared(q, r)
                      : mirror.squared_bounded(q, r, heap.front().distance,
                                               stats);
              detail::heap_offer(heap, stored + 1, {nb.index, d});
            }
            stats.pairs += hood.list.size();
            mirror.scan(q, old_rows, n, stored + 1, heap, identity, stats);
            std::sort_heap(heap.begin(), heap.end(), detail::NeighborCmp{});
            const std::vector<Neighbor>& pool = heap;
            const bool covered_all =
                !(hood.outside_bound < std::numeric_limits<double>::infinity());
            if (covered_all) {
              // The old list held every old row, so the pool holds every
              // row: the new top (stored) is exact unconditionally.
              hood.outside_bound =
                  pool.size() > stored
                      ? pool[stored].distance
                      : std::numeric_limits<double>::infinity();
              hood.list.assign(
                  pool.begin(),
                  pool.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(stored, pool.size())));
              continue;
            }
            const double bound =
                min_r2 * hood.outside_bound * kBoundSafety;
            if (!(min_r2 > 0.0) || pool.size() < cap ||
                !(pool[cap - 1].distance < bound)) {
              failed[w] = 1;
              continue;
            }
            // Rows outside the new list are either outside the old
            // list ∪ appended (≥ bound) or dropped pool entries
            // (≥ pool[stored]); the min of the two keeps the invariant.
            hood.outside_bound =
                pool.size() > stored ? std::min(bound, pool[stored].distance)
                                     : bound;
            hood.list.assign(
                pool.begin(),
                pool.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(stored, pool.size())));
          }
        });
    for (std::size_t w = 0; w < incremental.size(); ++w) {
      if (failed[w]) fresh.push_back(incremental[w]);
    }
    for (const KnnScanStats& stats : chunk_stats) nbr_scan_ += stats;
  }

  // Pass 3: exact (stored+1)-nearest rows of every new or uncertified row,
  // by one blocked batch scan of the packed mirror (detail::scan_batch):
  // bit-identical to an index query and independent of blocking and thread
  // count. The first stored entries are the list, the next distance (if
  // any) the exact outside bound the next accept certifies against.
  if (!fresh.empty()) {
    nbr_queries_ += fresh.size();
    std::vector<const double*> queries(fresh.size());
    for (std::size_t w = 0; w < fresh.size(); ++w) {
      queries[w] = mirror.row(fresh[w].first);
    }
    detail::scan_batch(
        mirror, queries, stored + 1, threads_, nbr_scan_,
        [&](std::size_t w, const std::vector<Neighbor>& best) {
          RowNeighborhood& hood = fresh[w].second->hood;
          hood.list.assign(
              best.begin(),
              best.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(stored, best.size())));
          hood.outside_bound = best.size() > stored
                                   ? best[stored].distance
                                   : std::numeric_limits<double>::infinity();
        });
  }

  // Entries that were not requested this refresh would silently go stale
  // (their distances reference the pre-refresh fit) — drop them.
  if (extends) {
    for (auto it = nbr_entries_.begin(); it != nbr_entries_.end();) {
      it = it->second.stamp != nbr_stamp_ ? nbr_entries_.erase(it)
                                          : std::next(it);
    }
  }

  nbr_snapshot_ = bound_;
  nbr_distance_ = distance_;
  nbr_k_ = k;
  nbr_valid_ = true;
  return out;
}

RuleConstrainedGenerator& SessionWorkspace::generator(
    std::size_t rule_index, const FeedbackRule& rule,
    const RuleBasePopulation& bp, const GenerateConfig& config) {
  FROTE_CHECK_MSG(data_ != nullptr && distance_valid_,
                  "workspace generator requested before bind");
  if (generators_snapshot_ != bound_) {
    drop_generators();
    generators_snapshot_ = bound_;
  }
  if (rule_index >= generators_.size()) generators_.resize(rule_index + 1);
  auto& slot = generators_[rule_index];
  if (slot == nullptr) {
    slot = std::make_unique<RuleConstrainedGenerator>(*data_, rule, bp,
                                                      distance_, config);
  }
  return *slot;
}

void SessionWorkspace::drop_generators() {
  for (const auto& generator : generators_) {
    if (generator != nullptr) {
      dropped_generator_queries_ += generator->neighbor_queries();
    }
  }
  generators_.clear();
  generators_snapshot_ = {};
}

std::uint64_t SessionWorkspace::generator_queries() const {
  std::uint64_t total = dropped_generator_queries_;
  for (const auto& generator : generators_) {
    if (generator != nullptr) total += generator->neighbor_queries();
  }
  return total;
}

}  // namespace frote
