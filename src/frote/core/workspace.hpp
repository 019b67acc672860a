// SessionWorkspace — the reusable loop state of one FROTE editing session
// (docs/DESIGN.md §5).
//
// Algorithm 1 re-derives several artefacts from D̂ every iteration even
// though D̂ only changes on *accepted* steps, and then only by an appended
// tail: the fitted SMOTE-NC distance, a packed mirror of D̂ and the rows'
// cached neighbourhoods, the current model's predictions, the IP
// selector's borderline weights, the per-rule constrained generators with
// their memoised neighbour lists, and IP (5)'s last solution. The workspace
// owns all of them, keyed by a cheap dataset snapshot (uid / append_epoch /
// row count) — the IP memo by the LP's own bytes — so
//   - rejected iterations reuse everything (the "reject fast-path"),
//   - accepted iterations refresh incrementally: column moments absorb only
//     the appended rows (bit-identical to a full refit, see ColumnMoments),
//     the packed mirror of D̂ packs only the appended rows (or repacks in
//     one pass when the refit rescaled a column), and cached
//     neighbourhoods are certified against the batch instead of re-scanned.
// Every cache read is bit-identical to recomputing from scratch — the
// determinism suites (test_determinism / test_engine_api / test_workspace)
// lock that equivalence.
//
// Ownership: a Session owns one workspace; standalone callers (benchmarks,
// custom drivers) may own one and pass it to IpSelector::select /
// GenerationContext. The workspace stores raw pointers into the bound
// dataset and the caller's BasePopulation, so it must not outlive them.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "frote/core/generate.hpp"
#include "frote/knn/knn.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/opt/ip.hpp"

namespace frote {

/// One row's cached neighbourhood (docs/DESIGN.md §10): the first
/// min(k+1, n) entries of `list` are bit-identical to
/// BruteKnn(data, distance).query_squared(row, k+1) — ascending
/// (squared distance, dataset row index) — and every dataset row NOT in
/// the list is provably at least `outside_bound` away (squared). The bound
/// is what lets an accepted batch update the list by scoring only (list ∪
/// appended rows) instead of re-scanning the whole dataset. `list` keeps a
/// few candidate entries past the exact prefix (certification headroom —
/// the bound starts further out); consumers must treat entries beyond k+1
/// as internal.
struct RowNeighborhood {
  std::vector<Neighbor> list;
  double outside_bound = std::numeric_limits<double>::infinity();
};

/// Cheap identity of a dataset state: same uid + append_epoch + row count
/// implies every row a consumer absorbed is still byte-identical (staging a
/// tail and rolling it back returns to the same snapshot).
struct DatasetSnapshot {
  std::uint64_t uid = 0;
  std::uint64_t append_epoch = 0;
  std::size_t rows = 0;
  bool operator==(const DatasetSnapshot&) const = default;
};

inline DatasetSnapshot snapshot_of(const Dataset& data) {
  return {data.uid(), data.append_epoch(), data.size()};
}

class SessionWorkspace {
 public:
  SessionWorkspace() = default;
  explicit SessionWorkspace(int threads) : threads_(threads) {}

  /// Threads for the hot paths the workspace serves (kNN scans, batch
  /// predictions); 0 ⇒ FROTE_NUM_THREADS. Deterministic for every value.
  int threads() const { return threads_; }

  /// Bind to (or refresh against) the committed state of `data`: absorbs
  /// appended rows into the column moments and refits the distance. Binding
  /// a different dataset, or one whose existing rows changed
  /// (append_epoch), drops every cache and refits from scratch.
  void bind(const Dataset& data);
  bool bound() const { return data_ != nullptr; }
  const Dataset& data() const {
    FROTE_CHECK_MSG(data_ != nullptr, "workspace not bound");
    return *data_;
  }

  /// The SMOTE-NC distance fitted on the bound dataset — bit-identical to
  /// MixedDistance::fit(data) at every bind point.
  const MixedDistance& distance() const {
    FROTE_CHECK_MSG(distance_valid_, "workspace distance not fitted");
    return distance_;
  }

  /// Owner-managed stamp of the model whose derived caches (predictions,
  /// IP weights) are valid; bump it whenever the model is retrained.
  void set_model_stamp(std::uint64_t stamp);
  std::uint64_t model_stamp() const { return model_stamp_; }

  /// Predicted-label cache slot (see PredictionCache); the Ĵ evaluation
  /// fills it, the IP selector reads it.
  PredictionCache& predictions() { return predictions_; }

  /// IP selection weights cached for (bound snapshot, model stamp, rows);
  /// nullptr on miss.
  const std::vector<double>* cached_weights(
      const std::vector<std::size_t>& rows) const;
  void store_weights(const std::vector<std::size_t>& rows,
                     std::vector<double> weights);

  /// solve_binary_ip(lp, binaries, config), memoised over the last solve
  /// (docs/DESIGN.md §5): when the LP's dimensions and c/lo/hi/a/b arrays
  /// are bytewise equal to the stored ones (memcmp, so -0.0 and NaN
  /// payloads cannot alias) and the binaries and config compare equal, the
  /// stored result is returned; otherwise the LP is solved and replaces the memo. The solver
  /// is a pure function that draws no randomness, so a hit is exact by
  /// construction and no accept, rebind or model stamp invalidates it.
  /// Never serialised. The reference stays valid until the next call.
  const IpResult& solve_ip(const LpProblem& lp,
                           const std::vector<std::size_t>& binaries,
                           const IpConfig& config);

  /// solve_ip() calls since construction that ran the solver, and those
  /// answered from the memo.
  std::uint64_t ip_solves() const { return ip_solves_; }
  std::uint64_t ip_memo_hits() const { return ip_memo_hits_; }
  /// The memo's problem and binaries (empty before the first solve): what
  /// a benchmark hands solve_binary_ip to time the solve a hit skips.
  const LpProblem& ip_problem() const { return ip_lp_; }
  const std::vector<std::size_t>& ip_binaries() const { return ip_binaries_; }

  /// Exact (k+1)-nearest neighbourhoods of each `rows[i]` over the bound
  /// dataset — the first min(k+1, n) entries of out[i]->list are
  /// bit-identical to a fresh BruteKnn(data(), distance())'s
  /// query_squared(data().row(rows[i]), k+1); the list may carry extra
  /// candidate entries (see RowNeighborhood). Maintained incrementally:
  /// after an accepted batch, a row whose certified bound still separates
  /// its kept list from the rest of the dataset is updated by scoring only
  /// list ∪ appended rows; rows whose certificate fails (or that are new to
  /// the cache) are filled by one blocked batch scan of the packed mirror
  /// (detail::scan_batch). Both passes use the bounded scan kernel
  /// (detail::PackedRows::squared_bounded). Returned pointers stay valid
  /// until the next neighborhoods()/bind() call. `rows` may contain
  /// duplicates.
  std::vector<const RowNeighborhood*> neighborhoods(
      const std::vector<std::size_t>& rows, std::size_t k);

  /// How many rows neighborhoods() has filled by a full scan since this
  /// workspace was constructed — the observability hook the incremental
  /// tests use to prove the certified fast path actually ran.
  std::uint64_t neighborhood_queries() const { return nbr_queries_; }

  /// Work of neighborhoods()' exact scans (certified pass and fill) since
  /// construction: distance pairs evaluated and how many of them were
  /// finished exactly (detail::PackedRows::squared_bounded).
  const KnnScanStats& neighborhood_scan() const { return nbr_scan_; }

  /// How many neighbour lists the workspace's generators have computed
  /// since this workspace was constructed (RuleConstrainedGenerator::
  /// neighbor_queries, summed over live and dropped generators). A step
  /// that re-selects base slots already memoised adds none.
  std::uint64_t generator_queries() const;

  /// Per-rule constrained generator, cached until the bound snapshot moves.
  /// `rule` / `bp` must be the same objects across calls for a given bound
  /// snapshot (the Session's rule set and base population).
  RuleConstrainedGenerator& generator(std::size_t rule_index,
                                      const FeedbackRule& rule,
                                      const RuleBasePopulation& bp,
                                      const GenerateConfig& config);

 private:
  const Dataset* data_ = nullptr;
  DatasetSnapshot bound_;

  ColumnMoments moments_;
  MixedDistance distance_;
  bool distance_valid_ = false;

  int threads_ = 0;

  std::uint64_t model_stamp_ = 0;
  PredictionCache predictions_;

  std::vector<double> weights_;
  std::vector<std::size_t> weight_rows_;
  DatasetSnapshot weights_snapshot_;
  std::uint64_t weights_model_stamp_ = 0;
  bool weights_valid_ = false;

  /// IP memo (see solve_ip()): the last solved problem and its result.
  LpProblem ip_lp_;
  std::vector<std::size_t> ip_binaries_;
  IpConfig ip_config_;
  IpResult ip_result_;
  bool ip_valid_ = false;
  std::uint64_t ip_solves_ = 0;
  std::uint64_t ip_memo_hits_ = 0;

  /// Neighbourhood cache (see neighborhoods()). The slot stamp marks which
  /// refresh generation last touched an entry, so one pass can tell
  /// duplicates, already-current entries, and stale entries apart without a
  /// per-call set. The private PackedRows mirrors the bound dataset under
  /// nbr_distance_ — packing and the scan kernel are byte-for-byte
  /// BruteKnn's own, which is what makes every cached distance
  /// bit-identical to an index query.
  struct NbrSlot {
    RowNeighborhood hood;
    std::uint64_t stamp = 0;
  };
  std::unordered_map<std::size_t, NbrSlot> nbr_entries_;
  DatasetSnapshot nbr_snapshot_;
  MixedDistance nbr_distance_;
  std::unique_ptr<detail::PackedRows> nbr_packed_;
  std::vector<std::size_t> nbr_packed_ids_;  // identity [0, rows)
  std::size_t nbr_k_ = 0;
  std::uint64_t nbr_stamp_ = 0;
  std::uint64_t nbr_queries_ = 0;
  KnnScanStats nbr_scan_;
  bool nbr_valid_ = false;

  /// Drop the cached generators, keeping their query counts.
  void drop_generators();

  std::vector<std::unique_ptr<RuleConstrainedGenerator>> generators_;
  DatasetSnapshot generators_snapshot_;
  std::uint64_t dropped_generator_queries_ = 0;
};

}  // namespace frote
