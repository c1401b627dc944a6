#include "incr/incremental.h"

#include <algorithm>
#include <vector>

#include "interval/area_based.h"
#include "interval/kernel.h"
#include "interval/non_area_based.h"
#include "interval/walk.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace conservation::incr {

namespace {

using interval::internal::ConfidenceKernel;
using interval::internal::LargestEndpointWithin;

// Registry mirror of IncrStats (which stays the API-stable per-discoverer
// view); these counters accumulate across discoverers. Batch-published at
// the end of every ProcessBatch, cover pops at every refresh.
struct IncrMetrics {
  obs::Counter& batches;
  obs::Counter& candidates_extended;
  obs::Counter& cover_warm_pops;
  obs::Counter& full_rebuilds;
  obs::Counter& dirty_anchors;
  // Per-AppendBatch wall time; the source of the windowed p50/p99 tick
  // latency quantiles on the scrape endpoint.
  obs::Histogram& batch_seconds;

  static IncrMetrics& Get() {
    static IncrMetrics* metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new IncrMetrics{registry.Counter("incr.batches"),
                             registry.Counter("incr.candidates_extended"),
                             registry.Counter("incr.cover_warm_pops"),
                             registry.Counter("incr.full_rebuilds"),
                             registry.Counter("incr.dirty_anchors"),
                             registry.Histogram(
                                 "incr.batch_seconds",
                                 {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0})};
    }();
    return *metrics;
  }
};

// One relaxed-threshold confidence test folded into a (best_j, best_conf)
// accumulator — the generators' exact guard (valid + qualifying + longer
// than the incumbent). kernel.Confidence is bit-identical to the batch
// kernels the fresh sweeps use (kernel.h contract), so folding tests one
// at a time across batches reproduces their single-pass folds.
void FoldRelaxedTest(const ConfidenceKernel& kernel,
                     const interval::GeneratorOptions& options, int64_t j,
                     int64_t* best_j, double* best_conf) {
  double conf;
  if (kernel.Confidence(j, &conf) &&
      interval::PassesRelaxedThreshold(conf, options) && j > *best_j) {
    *best_j = j;
    *best_conf = conf;
  }
}

// Credit-fail zero-prefix probes strictly below `zae`, over the
// generators' own length list for the current n (ZeroPrefixLengths;
// duplicates from floor((1+eps)^h) included — they cannot displace
// themselves under the j > best_j guard, exactly as in the fresh sweep).
// The probed set is n-independent once zae is settled: every consumed
// entry is an uncapped floor power < zae <= n, and the list's final capped
// entry `n` maps to j = i + n - 1 >= zae, past the break.
void FoldZeroPrefix(const ConfidenceKernel& kernel,
                    const interval::GeneratorOptions& options,
                    const std::vector<int64_t>& lengths, int64_t i,
                    int64_t zae, int64_t* best_j, double* best_conf) {
  for (const int64_t len : lengths) {
    const int64_t j = i + len - 1;
    if (j >= zae) return;
    FoldRelaxedTest(kernel, options, j, best_j, best_conf);
  }
}

}  // namespace

util::Result<IncrementalDiscoverer> IncrementalDiscoverer::Create(
    const series::CountSequence& initial, const core::TableauRequest& request) {
  if (util::Status status = core::ValidateTableauRequest(request);
      !status.ok()) {
    return status;
  }
  if (request.stop_on_full_cover) {
    return util::Status::InvalidArgument(
        "incremental maintenance does not support stop_on_full_cover (its "
        "emitted candidate set depends on sweep order, which maintenance "
        "cannot reproduce)");
  }
  IncrementalDiscoverer discoverer(initial, request);
  // The initial series is the first batch: every anchor is new.
  discoverer.ProcessBatch(series::CumulativeSeries::AppendResult{0, 1, false});
  return discoverer;
}

IncrementalDiscoverer::IncrementalDiscoverer(
    const series::CountSequence& initial, const core::TableauRequest& request)
    : request_(request),
      series_(std::make_unique<series::CumulativeSeries>(initial)),
      eval_(std::make_unique<core::ConfidenceEvaluator>(series_.get(),
                                                        request.model)) {
  // Sequential mirror of DiscoverTableau's options copy: the delta paths
  // run per-anchor O(1) resumes, which neither shard nor consult the
  // sketch screen (the per-anchor frontier already restricts re-walks).
  gen_options_.type = request.type;
  gen_options_.c_hat = request.c_hat;
  gen_options_.epsilon = request.epsilon;
  gen_options_.delta_mode = request.delta_mode;
  gen_options_.stop_on_full_cover = false;
  gen_options_.largest_first_early_exit = request.largest_first_early_exit;
  gen_options_.num_threads = 1;
  gen_options_.chunks_per_thread = request.chunks_per_thread;
  gen_options_.sketch = interval::SketchMode::kOff;
  gen_options_.sketch_block = request.sketch_block;
  credit_fail_ = request.type == core::TableauType::kFail &&
                 request.model == core::ConfidenceModel::kCredit;
  fail_type_ = request.type == core::TableauType::kFail;
  tableau_.type = request.type;
  tableau_.model = request.model;
}

const core::Tableau& IncrementalDiscoverer::AppendBatch(const double* a,
                                                        const double* b,
                                                        int64_t m) {
  CR_CHECK(m > 0);
  obs::ScopedDeadline deadline("incr.append_batch");
  util::Stopwatch batch_timer;
  const series::CumulativeSeries::AppendResult delta =
      series_->Append(a, b, m);
  if (!store_.empty()) {
    if (series_->n() <= store_.capacity()) {
      store_.Append(*series_, delta);
    } else {
      // Reserved capacity exhausted: detach rather than rebuild — arena
      // growth policy is the owner's call, not the maintenance loop's.
      store_ = series::SeriesStore();
    }
  }
  ProcessBatch(delta);
  IncrMetrics::Get().batch_seconds.Record(batch_timer.ElapsedSeconds());
  return tableau_;
}

const core::Tableau& IncrementalDiscoverer::AppendBatch(
    const std::vector<double>& a, const std::vector<double>& b) {
  CR_CHECK(a.size() == b.size());
  return AppendBatch(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

bool IncrementalDiscoverer::AttachStore(int64_t capacity, int64_t block) {
  if (block <= 0 || capacity < series_->n()) return false;
  store_ = series::SeriesStore::Build(*series_, block, capacity);
  store_block_ = block;
  return true;
}

void IncrementalDiscoverer::ProcessBatch(
    const series::CumulativeSeries::AppendResult& delta) {
  const IncrStats before = stats_;
  const int64_t old_n = delta.old_n;
  const double cur_delta = interval::ResolveDelta(*series_, gen_options_);
  const bool uses_delta =
      request_.algorithm == interval::AlgorithmKind::kAreaBased ||
      request_.algorithm == interval::AlgorithmKind::kAreaBasedOpt;
  // Delta changing (a new tick introduced a smaller minimum positive count)
  // re-levels every AB/AB-opt threshold ladder: no settled level or chain
  // position survives, so reset and re-walk everything. Exhaustive and NAB
  // never consult Delta.
  bool full_rebuild = false;
  if (stats_.batches > 0 && uses_delta && cur_delta != prev_delta_) {
    full_rebuild = true;
    ++stats_.full_rebuilds;
  }
  prev_delta_ = cur_delta;
  GrowStateArrays(series_->n());

  int64_t dirty_begin = old_n + 1;
  if (full_rebuild) {
    ResetAllAnchorStates();
    dirty_begin = 1;
  } else if (request_.model != core::ConfidenceModel::kBalance &&
             delta.first_changed_s <= old_n) {
    // Credit/debit baselines read SuffixMinGap(i): anchors whose gap the
    // append lowered have moved baselines and must re-walk from scratch.
    dirty_begin = delta.first_changed_s;
    stats_.dirty_anchors += old_n - dirty_begin + 1;
  }

  switch (request_.algorithm) {
    case interval::AlgorithmKind::kAreaBased:
      ProcessAreaBased(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kAreaBasedOpt:
      ProcessAreaBasedOpt(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kExhaustive:
      ProcessExhaustive(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kNonAreaBased:
    case interval::AlgorithmKind::kNonAreaBasedOpt:
      ProcessNonAreaBased(delta);
      break;
  }

  ++stats_.batches;
  // Deferred-cover mode leaves the cover to RefreshCover(): the candidate
  // store alone determines the tableau, so deferral carries no backlog.
  cover_stale_ = true;
  if (!append_only_) RefreshCover();

  IncrMetrics& metrics = IncrMetrics::Get();
  metrics.batches.Increment();
  metrics.candidates_extended.Add(static_cast<uint64_t>(
      stats_.candidates_extended - before.candidates_extended));
  metrics.full_rebuilds.Add(
      static_cast<uint64_t>(stats_.full_rebuilds - before.full_rebuilds));
  metrics.dirty_anchors.Add(
      static_cast<uint64_t>(stats_.dirty_anchors - before.dirty_anchors));
}

const core::Tableau& IncrementalDiscoverer::RefreshCover() {
  if (!cover_stale_) return tableau_;
  // The fresh cover over the live store, gathered in anchor order. Stored
  // candidates are pairwise position-distinct (one per anchor), so the
  // deterministic tie-break never reaches input order and the selection is
  // DiscoverTableau's pick for pick. Sequential seeding: a refresh runs on
  // the caller's thread, which may itself be a pool worker.
  live_intervals_.clear();
  live_confidences_.clear();
  for (const interval::Candidate& candidate : cand_) {
    if (candidate.interval.begin == 0) continue;
    live_intervals_.push_back(candidate.interval);
    live_confidences_.push_back(candidate.confidence);
  }
  cover::CoverOptions options;
  options.s_hat = request_.s_hat;
  core::CoverCandidates(live_intervals_, live_confidences_, series_->n(),
                        options, &tableau_);
  stats_.cover_warm_pops += tableau_.cover_stats.heap_pops;
  IncrMetrics::Get().cover_warm_pops.Add(
      static_cast<uint64_t>(tableau_.cover_stats.heap_pops));
  cover_stale_ = false;
  return tableau_;
}

void IncrementalDiscoverer::ResetAllAnchorStates() {
  std::fill(ab_.begin(), ab_.end(), AbState{});
  std::fill(abopt_.begin(), abopt_.end(), AbOptState{});
  std::fill(exh_.begin(), exh_.end(), ExhState{});
}

void IncrementalDiscoverer::GrowStateArrays(int64_t n) {
  const size_t size = static_cast<size_t>(n) + 1;
  switch (request_.algorithm) {
    case interval::AlgorithmKind::kAreaBased:
      ab_.resize(size);
      break;
    case interval::AlgorithmKind::kAreaBasedOpt:
      abopt_.resize(size);
      break;
    case interval::AlgorithmKind::kExhaustive:
      exh_.resize(size);
      break;
    default:
      break;  // NAB keeps no per-anchor resume state
  }
  cand_.resize(size);
}

// ---------------------------------------------------------------------------
// Area-based (AB): per-anchor level ladder with a resumable frontier.
//
// Mirrors AbWalkState level for level (walk.h). A level's breakpoint t
// (largest j in [i, n] with area <= T) SETTLES when t < n — the area is
// nondecreasing in j, so area(t + 1) > T persists under every append — and
// its confidence test folds into the persistent (best_j, best_conf) once.
// A walk that stopped at t == n holds an O(1) frontier: while
// area(i, n') <= T it stays stopped (the breakpoint rides the frontier and
// is evaluated tentatively each batch).
//
// The levels an append makes an anchor cross settle together (DESIGN.md
// §4g):
//   * Largest-first fold. The new stop level is the first ladder level
//     whose threshold reaches area(i, n); every ladder level below it is
//     crossed. Crossed levels settle from the highest down, and the fold
//     ends at the first breakpoint that has no within-threshold endpoint,
//     is <= best_j, or qualifies (and replaces best_j): breakpoints are
//     nondecreasing in the level, so no lower level can change the argmax-j
//     fold. The zero level and its credit-fail prefix probes lie below
//     every higher breakpoint. A skipped level is never revisited, because
//     an anchor's ladder position only moves up.
//   * Per-batch Lemma 3 pointers. Each level's cursor runs over the anchors
//     that settle it in this batch (LevelBreakpoint): the first one
//     binary-searches, later ones walk forward from max(cursor, lo). lo is
//     old_n for an anchor that was stopped (area(i, old_n) <= T_stopped <=
//     T), else i.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBased(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const double growth = 1.0 + gen_options_.epsilon;
  const double dlt = prev_delta_;

  // Threshold ladder, rebuilt per batch by the fresh generator's code.
  // Prefix-stable and size-nondecreasing across appends: Delta is fixed (a
  // decrease forced a full rebuild upstream) and max_area only grows, so
  // settled levels keep their thresholds.
  const std::vector<double> thresholds =
      interval::internal::AbThresholds(*series_, gen_options_.type, dlt,
                                       growth);
  const size_t num_thresholds = thresholds.size();
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail_ ? interval::internal::ZeroPrefixLengths(n, growth)
                   : std::vector<int64_t>();

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  std::vector<int64_t> pointer(num_thresholds, 0);  // 0 = not yet located
  interval::internal::AbWalkScratch scratch;
  interval::internal::WalkStepCounters counters;  // execution shape only
  for (int64_t i = 1; i <= n; ++i) {
    AbState& st = ab_[static_cast<size_t>(i)];
    if (i > old_n || i >= dirty_begin) st = AbState{};

    if (st.stage == AbState::kExhausted && st.level >= num_thresholds) {
      // Ladder fully consumed and no new levels appeared: the candidate is
      // exactly the settled fold.
      UpdateCandidate(i, st.best_j >= i, i, st.best_j, st.best_conf);
      continue;
    }
    kernel.BeginAnchor(i);
    const double area_n = kernel.SparseArea(n);

    // Unsettled ladder: the zero level (fail tableaux, until it settles),
    // then levels [from, num_thresholds). first_level replicates
    // AbWalkState::Begin; for a clean anchor it is batch-invariant (credit/
    // debit anchors whose SuffixMinGap changed were reset above).
    const bool at_zero =
        fail_type_ && (st.stage == AbState::kFresh || st.level == 0);
    size_t from = st.level;
    if (st.stage == AbState::kFresh || at_zero) {
      from = interval::internal::AbFirstLevel(kernel, i, dlt, growth,
                                              fail_type_);
    }
    // Stop level: the first unsettled level whose threshold reaches
    // area(i, n), i.e. whose breakpoint is n. stop >= num_thresholds means
    // the ladder runs out (kept as the resume level, like the walk's).
    const bool stop_at_zero = at_zero && area_n <= 0.0;
    size_t stop = from;
    if (stop_at_zero) {
      stop = 0;
    } else if (from < num_thresholds) {
      stop = static_cast<size_t>(
          std::lower_bound(thresholds.begin() + static_cast<ptrdiff_t>(from),
                           thresholds.end(), area_n) -
          thresholds.begin());
    }

    const int64_t lo = st.stage == AbState::kStopped ? old_n : i;
    int64_t t = 0;  // the last settled breakpoint
    // Settles one crossed level into the fold; false ends the fold.
    auto settle = [&](size_t level) {
      const double threshold = thresholds[level];
      t = interval::internal::LevelBreakpoint(kernel, lo, n, threshold,
                                              &pointer[level], &scratch,
                                              &counters);
      if (!(kernel.SparseArea(t) <= threshold) || t <= st.best_j) {
        return false;
      }
      double conf;
      if (kernel.Confidence(t, &conf) &&
          interval::PassesRelaxedThreshold(conf, gen_options_)) {
        st.best_j = t;
        st.best_conf = conf;
        return false;
      }
      return true;
    };
    bool folding = true;
    for (size_t level = stop; folding && level-- > from;) {
      folding = settle(level);
    }
    if (folding && at_zero && !stop_at_zero && settle(0) && credit_fail_ &&
        t > i) {
      // The zero level settled below n with zero-area end t: its prefix
      // probes are final too.
      FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, t,
                     &st.best_j, &st.best_conf);
    }

    const bool stopped = stop_at_zero || stop < num_thresholds;
    st.stage = stopped ? AbState::kStopped : AbState::kExhausted;
    st.level = static_cast<uint32_t>(stop);

    // Candidate = settled fold + this batch's tentative frontier tests.
    // Tentative results never enter st: they are recomputed (at the moved
    // frontier) next batch. The fold is argmax-j over qualifying tests, so
    // combining order does not matter.
    int64_t cj = st.best_j;
    double cc = st.best_conf;
    if (stopped) {
      if (stop_at_zero && credit_fail_ && n > i) {
        FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i,
                       /*zae=*/n, &cj, &cc);
      }
      FoldRelaxedTest(kernel, gen_options_, n, &cj, &cc);
    }
    UpdateCandidate(i, cj >= i, i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// AB-opt: per-anchor breakpoint chain with a resumable frontier.
//
// Mirrors the scalar per-anchor path of area_based_opt.cc. A breakpoint
// found strictly below n settles forever (same monotone-area argument as
// AB); a search whose result would sit at n — detected by the O(1) frontier
// probe area(i, n) <= threshold BEFORE any binary search — parks the anchor
// in a pending stage and is evaluated tentatively. Storing only the last
// settled chain position `cur` (the pending search re-derives its
// parameters from it) keeps the state O(1) per anchor; persisting the
// breakpoint list itself would be O(n) per anchor — ~12 GB at n = 1M.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBasedOpt(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const double growth = 1.0 + gen_options_.epsilon;
  const double dlt = prev_delta_;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail_ ? interval::internal::ZeroPrefixLengths(n, growth)
                   : std::vector<int64_t>();

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  for (int64_t i = 1; i <= n; ++i) {
    AbOptState& st = abopt_[static_cast<size_t>(i)];
    if (i > old_n || i >= dirty_begin) st = AbOptState{};
    kernel.BeginAnchor(i);

    enum { kStepZero, kStepInit, kStepChain } step;
    int64_t cur = 0;
    switch (st.stage) {
      case AbOptState::kFresh:
        step = credit_fail_ ? kStepZero : kStepInit;
        break;
      case AbOptState::kPendingInit:
        step = kStepInit;
        break;
      default:  // kPendingChain, kChainEnd
        step = kStepChain;
        cur = st.cur;
        break;
    }

    bool parked = false;      // pending this batch: frontier test below
    bool tent_zp = false;     // sticky zero suffix: tentative zero prefix
    if (step == kStepZero) {
      if (kernel.SparseArea(n) <= 0.0) {
        // Sticky: the whole of [i, n] is zero-area. The fresh walk's
        // zae, init and chain breakpoints all collapse onto n; everything
        // is tentative and the stage stays kFresh for the next batch.
        tent_zp = true;
        parked = true;
      } else {
        const int64_t zae = LargestEndpointWithin(kernel, i, n, 0.0);
        // Settled: area(zae + 1) > 0 persists.
        st.zae = zae;
        st.zae_settled = true;
        if (zae >= i) {
          FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, zae,
                         &st.best_j, &st.best_conf);
          FoldRelaxedTest(kernel, gen_options_, zae, &st.best_j,
                          &st.best_conf);
        }
        step = kStepInit;
      }
    }

    if (!parked && step == kStepInit) {
      if (kernel.SparseArea(n) <= dlt) {
        // The init breakpoint sits at n: evaluate tentatively, settle when
        // the area crosses Delta.
        st.stage = AbOptState::kPendingInit;
        parked = true;
      } else {
        const int64_t r = LargestEndpointWithin(kernel, i, n, dlt);
        cur = r >= i ? r : i;  // forced start when even [i, i] exceeds Delta
        // Dedup mirror of the fresh push guard (breakpoints.back() < cur):
        // the only possible back entry is a pushed zae, and cur >= zae
        // always, so the test is skipped exactly when cur == zae (already
        // folded above). A forced start implies zae < i (zero area is
        // within Delta), so it always tests.
        const bool zae_is_back =
            credit_fail_ && st.zae_settled && st.zae >= i && st.zae == cur;
        if (!zae_is_back) {
          FoldRelaxedTest(kernel, gen_options_, cur, &st.best_j,
                          &st.best_conf);
        }
        step = kStepChain;
      }
    }

    if (!parked) {
      // Chain from the last settled position. Each iteration probes the
      // frontier FIRST, so a binary search only ever runs (and settles)
      // when its result is provably below n; the loop exits at cur == n
      // only through a forced advance, which is settled too (the forcing
      // area(cur + 1) > target persists), so kChainEnd resumes exactly.
      while (cur < n) {
        const double target =
            std::max(kernel.SparseArea(cur), dlt) * growth;
        if (kernel.SparseArea(n) <= target) {
          st.stage = AbOptState::kPendingChain;
          st.cur = cur;
          parked = true;
          break;
        }
        int64_t next = LargestEndpointWithin(kernel, cur + 1, n, target);
        if (next < cur + 1) next = cur + 1;  // forced advance
        FoldRelaxedTest(kernel, gen_options_, next, &st.best_j,
                        &st.best_conf);
        cur = next;
      }
      if (!parked) {
        st.stage = AbOptState::kChainEnd;
        st.cur = n;
      }
    }

    int64_t cj = st.best_j;
    double cc = st.best_conf;
    if (tent_zp && n > i) {
      FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, /*zae=*/n,
                     &cj, &cc);
    }
    if (parked) {
      FoldRelaxedTest(kernel, gen_options_, n, &cj, &cc);
    }
    UpdateCandidate(i, cj >= i, i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive: every confidence test settles the batch it runs in, so old
// clean anchors scan only the appended suffix (old_n, n]. The fresh
// generator's per-block reverse scan + cross-block overwrite computes the
// largest qualifying j regardless of block boundaries, so resuming at
// old_n + 1 with re-based blocks folds identically.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessExhaustive(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  ConfidenceKernel kernel(*eval_, gen_options_.type);
  constexpr int64_t kBatch = 512;
  double conf[kBatch];
  uint8_t valid[kBatch];
  for (int64_t i = 1; i <= n; ++i) {
    ExhState& st = exh_[static_cast<size_t>(i)];
    int64_t scan_from;
    if (i > old_n || i >= dirty_begin) {
      st = ExhState{};
      scan_from = i;
    } else {
      scan_from = old_n + 1;
    }
    kernel.BeginAnchor(i);
    for (int64_t j0 = scan_from; j0 <= n; j0 += kBatch) {
      const int64_t j1 = std::min<int64_t>(n, j0 + kBatch - 1);
      kernel.ConfidenceBatch(j0, j1, conf, valid);
      for (int64_t k = j1 - j0; k >= 0; --k) {
        if (valid[k] &&
            interval::PassesExactThreshold(conf[k], gen_options_)) {
          st.best_j = j0 + k;
          st.best_conf = conf[k];
          break;
        }
      }
    }
    UpdateCandidate(i, st.best_j >= i, i, st.best_j, st.best_conf);
  }
}

// ---------------------------------------------------------------------------
// NAB / NAB-opt: purely additive. An old right anchor's candidate is
// exactly unchanged under appends — its applicable schedule prefix and
// probe anchors are n-independent (entries below the first covering length
// are uncapped; the covering entry clamps to i = 1 under both the old and
// new cap) — so only the m new anchors walk. Balance-only (enforced at
// Create), hence never dirty; Delta is never consulted.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessNonAreaBased(
    const series::CumulativeSeries::AppendResult& delta) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const auto schedule =
      request_.algorithm == interval::AlgorithmKind::kNonAreaBased
          ? interval::NonAreaBasedGenerator::LengthSchedule::kGeometric
          : interval::NonAreaBasedGenerator::LengthSchedule::kRecursive;
  const std::vector<int64_t> lengths =
      interval::NonAreaBasedGenerator::MakeLengthSchedule(
          schedule, gen_options_.epsilon, n);

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  const interval::internal::NabWalkContext ctx{&lengths, &gen_options_};
  interval::internal::NabWalkScratch scratch;
  interval::internal::WalkStepCounters counters;
  interval::internal::NabWalkState walk;
  for (int64_t j = old_n + 1; j <= n; ++j) {
    // The fresh sweep's descending first_covering cursor lands on the
    // first schedule entry >= j; lower_bound computes the same index
    // directly for the ascending anchor order here.
    const size_t first_covering = static_cast<size_t>(
        std::lower_bound(lengths.begin(), lengths.end(), j) -
        lengths.begin());
    kernel.BeginRightAnchor(j);
    walk.Begin(j, first_covering + 1);
    while (!walk.finished) {
      walk.Step(kernel, ctx, &scratch, &counters);
    }
    UpdateCandidate(j, walk.best_i >= 1, walk.best_i, j, walk.best_conf);
  }
}

void IncrementalDiscoverer::UpdateCandidate(int64_t anchor, bool valid,
                                            int64_t begin, int64_t end,
                                            double conf) {
  // A dirty re-walk can recompute the same interval under moved credit/
  // debit baselines, so the confidence is stored even when the interval
  // is unchanged (and then does not count as an extension).
  const interval::Candidate next =
      valid ? interval::Candidate{interval::Interval{begin, end}, conf}
            : interval::Candidate{};
  interval::Candidate& stored = cand_[static_cast<size_t>(anchor)];
  if (stored.interval != next.interval) ++stats_.candidates_extended;
  stored = next;
}

}  // namespace conservation::incr
