// IncrementalDiscoverer: tableau maintenance for append-only streams.
//
// DiscoverTableau (core/tableau.h) recomputes generation + cover from
// scratch; for an append-only series that repeats almost all of its work
// every batch. This engine maintains the tableau across AppendBatch calls
// in amortized o(full-run) time by exploiting how the generators' per-anchor
// tests behave under extension n -> n' (DESIGN.md §4g):
//
//   * Every generator emits at most one candidate per anchor, so a
//     per-anchor candidate store is a complete representation of the
//     candidate set, and candidates have pairwise-distinct positions.
//   * A per-anchor test (breakpoint search + confidence probe) is SETTLED
//     when its result provably cannot change under any extension: a level /
//     chain breakpoint strictly below the old n is settled forever (the
//     sparsification area is nondecreasing in j, so area(t+1) > T persists),
//     while a breakpoint AT the old n may extend. Settled confidence tests
//     fold into a per-anchor (best_j, best_conf) pair once and are never
//     re-evaluated; the at-most-one unsettled frontier test per anchor is
//     re-probed per batch in O(1) (is area(n') still within the frontier
//     threshold?) and searched for only when it settles. AB settles the
//     levels one append crosses together, largest first, with per-batch
//     Lemma 3 level pointers (DESIGN.md §4g).
//   * NAB/NAB-opt candidates for old right anchors are exactly unchanged
//     (their length schedule prefix and left-anchor probes are independent
//     of n), so only the m new anchors walk at all.
//   * The cover is DiscoverTableau's own (core::CoverCandidates) run over
//     the live store gathered in anchor order: O(n + k log k) per refresh,
//     however many batches were deferred. Stored candidates are pairwise
//     position-distinct, so the deterministic tie-break never reaches input
//     order and the selection matches a fresh run by construction.
//
// Exactness contract: after every AppendBatch the maintained tableau is
// bit-identical to DiscoverTableau over the full series in the fields
// (rows, covered, required, support_satisfied, num_candidates).
// generation_stats / cover_stats / timings describe execution shape and are
// excluded. tests/incr_differential_test.cc enforces the contract across
// all five generators, models, tableau types, batch patterns, fresh-side
// thread counts and sketch settings.
//
// Correct-by-reset escape hatches (rare, counted in incr.* metrics):
//   * Delta (the area base unit) decreasing re-levels every AB/AB-opt
//     threshold ladder -> full per-anchor state rebuild (exhaustive and NAB
//     are Delta-independent).
//   * A credit/debit-model append can change SuffixMinGap(i) for old
//     anchors i >= first_changed_s; those anchors' baselines moved, so they
//     reset to fresh and re-walk (the balance model never dirties).
//
// Scope: sequential execution (the fresh side may use any thread count /
// sketch mode — candidates are bit-identical by those knobs' contracts);
// stop_on_full_cover is rejected (its emitted set depends on visit order,
// which incremental maintenance cannot reproduce); the sketch screen is not
// consulted on delta paths — the per-anchor frontier already restricts
// re-walks to exactly the anchors whose reachable suffix changed, which
// subsumes what a per-batch screen rebuild (O((n/block)^2)) would prune.
// The engine assumes B dominates A (paper §II; run series preprocessing
// first), which is what makes the sparsification areas monotone and the
// frontier O(1) probes sound — the same assumption the generators' binary
// searches already make.

#ifndef CONSERVATION_INCR_INCREMENTAL_H_
#define CONSERVATION_INCR_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "interval/generator.h"
#include "interval/interval.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "series/store.h"
#include "util/status.h"

namespace conservation::incr {

// Cumulative counters for one discoverer (docs/OBSERVABILITY.md incr.*;
// the registry mirrors accumulate across discoverers).
struct IncrStats {
  // AppendBatch calls processed (the initial Create batch included).
  int64_t batches = 0;
  // Anchor updates that changed the stored candidate's validity or
  // interval (a confidence-only change does not count).
  int64_t candidates_extended = 0;
  // Heap pops of the cover refreshes (the sum of their
  // CoverStats::heap_pops).
  int64_t cover_warm_pops = 0;
  // Whole-state resets (Delta decreased under kMinPositiveCount).
  int64_t full_rebuilds = 0;
  // Old anchors re-walked because their SuffixMinGap changed (credit/debit).
  int64_t dirty_anchors = 0;
};

class IncrementalDiscoverer {
 public:
  // Validates the request exactly like DiscoverTableau (plus: rejects
  // stop_on_full_cover), then processes `initial` as the first batch. The
  // tableau is available immediately after Create.
  static util::Result<IncrementalDiscoverer> Create(
      const series::CountSequence& initial, const core::TableauRequest& request);

  IncrementalDiscoverer(IncrementalDiscoverer&&) = default;
  IncrementalDiscoverer& operator=(IncrementalDiscoverer&&) = default;

  // Appends m ticks (a[k], b[k] >= 0) and brings the tableau up to date.
  // Returns the maintained tableau (also available via tableau()).
  const core::Tableau& AppendBatch(const double* a, const double* b,
                                   int64_t m);
  const core::Tableau& AppendBatch(const std::vector<double>& a,
                                   const std::vector<double>& b);

  // Append-only mode (off by default): AppendBatch maintains the per-anchor
  // candidate state but defers the cover until RefreshCover(). Between
  // refreshes tableau() is the last refreshed snapshot (stale by
  // construction); at every refresh point the tableau is bit-identical to
  // what non-deferred maintenance (and hence from-scratch discovery) would
  // produce, because the candidate store alone determines the cover — no
  // deferred work accumulates. Built for the serving daemon, which pays
  // cover on a periodic scheduler tick instead of on every small batch.
  void SetAppendOnly(bool append_only) { append_only_ = append_only; }
  bool append_only() const { return append_only_; }
  // True when batches were applied since the last cover refresh.
  bool cover_stale() const { return cover_stale_; }
  // Brings the tableau up to date with every applied batch; no-op when the
  // cover is already fresh. Returns the refreshed tableau.
  const core::Tableau& RefreshCover();

  const core::Tableau& tableau() const { return tableau_; }
  const series::CumulativeSeries& series() const { return *series_; }
  const core::TableauRequest& request() const { return request_; }
  int64_t n() const { return series_->n(); }
  const IncrStats& stats() const { return stats_; }

  // Optional columnar-arena maintenance: when enabled with a reserved
  // capacity, every AppendBatch also grows a SeriesStore in place
  // (series/store.h), keeping the sketch tier current for other tenants of
  // the arena. The store is byte-identical to a fresh Build at the same
  // capacity. Returns false when the capacity cannot hold the current n.
  bool AttachStore(int64_t capacity,
                   int64_t block = series::SeriesSketch::kDefaultBlock);
  const series::SeriesStore* store() const {
    return store_.empty() ? nullptr : &store_;
  }

 private:
  // Per-anchor resume state for the area-based level walk. `level` is the
  // stopped level (kStopped) or the next unprocessed one (kExhausted). A
  // fail tableau's zero level is unsettled exactly while the anchor is
  // fresh or stopped on it (level 0).
  struct AbState {
    enum : uint8_t { kFresh = 0, kStopped = 1, kExhausted = 2 };
    uint8_t stage = kFresh;
    uint32_t level = 0;
    int64_t best_j = 0;
    double best_conf = 0.0;
  };

  // Per-anchor resume state for the AB-opt breakpoint chain. O(1) per
  // anchor: pending search parameters re-derive from `cur` (the last
  // settled chain position), so the walk never stores its breakpoint list.
  struct AbOptState {
    enum : uint8_t {
      kFresh = 0,        // never walked, or sticky (zero-area suffix == n)
      kPendingInit = 1,  // init search's frontier result sits at n
      kPendingChain = 2,  // chain search from settled `cur` sits at n
      kChainEnd = 3,      // chain settled exactly at n; resumes from cur
    };
    uint8_t stage = kFresh;
    bool zae_settled = false;
    int64_t zae = 0;
    int64_t cur = 0;
    int64_t best_j = 0;
    double best_conf = 0.0;
  };

  // Exhaustive: every test settles the batch it runs in.
  struct ExhState {
    int64_t best_j = 0;
    double best_conf = 0.0;
  };

  IncrementalDiscoverer(const series::CountSequence& initial,
                        const core::TableauRequest& request);

  // One maintenance pass over the append described by `delta` (for the
  // Create batch, old_n == 0 and every anchor is new).
  void ProcessBatch(const series::CumulativeSeries::AppendResult& delta);

  void ResetAllAnchorStates();
  void GrowStateArrays(int64_t n);

  // Per-algorithm delta generation. Each updates the candidate store for
  // the anchors it touches and records changes via UpdateCandidate.
  void ProcessAreaBased(const series::CumulativeSeries::AppendResult& delta,
                        int64_t dirty_begin);
  void ProcessAreaBasedOpt(
      const series::CumulativeSeries::AppendResult& delta,
      int64_t dirty_begin);
  void ProcessExhaustive(const series::CumulativeSeries::AppendResult& delta,
                         int64_t dirty_begin);
  void ProcessNonAreaBased(
      const series::CumulativeSeries::AppendResult& delta);

  // Stores anchor's candidate for this batch (valid == false: none).
  void UpdateCandidate(int64_t anchor, bool valid, int64_t begin, int64_t end,
                       double conf);

  core::TableauRequest request_;
  interval::GeneratorOptions gen_options_;  // request mirror, sequential
  // Held by pointer: eval_ keeps the series address, which must survive
  // moves of the discoverer.
  std::unique_ptr<series::CumulativeSeries> series_;
  std::unique_ptr<core::ConfidenceEvaluator> eval_;
  series::SeriesStore store_;  // empty unless AttachStore
  int64_t store_block_ = 0;

  double prev_delta_ = 0.0;
  bool credit_fail_ = false;
  bool fail_type_ = false;
  bool append_only_ = false;
  bool cover_stale_ = false;

  // 1-based per-anchor state (index 0 unused); only the request's
  // algorithm's vector is populated.
  std::vector<AbState> ab_;
  std::vector<AbOptState> abopt_;
  std::vector<ExhState> exh_;

  // 1-based per-anchor candidate store; interval.begin == 0 marks an
  // anchor without a candidate (slot 0 is unused and stays empty). For
  // left-anchored algorithms the anchor is the interval begin; for NAB it
  // is the end.
  std::vector<interval::Candidate> cand_;
  // RefreshCover's gather of the live candidates, split as the cover takes
  // them. Kept across refreshes so that a refresh allocates only the
  // cover's own working memory.
  std::vector<interval::Interval> live_intervals_;
  std::vector<double> live_confidences_;

  core::Tableau tableau_;
  IncrStats stats_;
};

}  // namespace conservation::incr

#endif  // CONSERVATION_INCR_INCREMENTAL_H_
