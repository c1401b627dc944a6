// Resumable walk states for cross-anchor batched execution.
//
// The per-anchor sparsification walks of AB and AB-opt are serial: every
// probe's address depends on the previous probe's outcome, so one anchor's
// walk can never fill a SIMD lane, and its accept/reject branch — a
// binary-search direction, i.e. data-random — mispredicts every other
// probe (BENCH_kernel.json's ~1.0x end-to-end ceiling against 1.4-3.5x
// op-level wins). This header turns the walk into an explicit state
// machine — probe address out, probed area in — so a scheduler can keep W
// independent walks in flight with their search registers in
// structure-of-arrays lane buffers, advancing all lanes per round through
// one branchless kernel step (kernel_simd.h SparseWalkRound) and touching
// per-walk scalar code only when a lane's search completes (~1 round in
// log n per lane).
//
// Bit-identity contract: a walk advanced this way visits exactly the probe
// sequence of the scalar per-anchor code (area_based_opt.cc's calls to
// kernel.h's LargestEndpointWithin), counts exactly the probes that code
// counts, and produces the same breakpoint list bit for bit — regardless of
// how many other walks interleave between its probes. Checkpointing a state
// mid-walk (it is a plain copyable value) and resuming later is therefore
// exact, which tests/walk_resume_test.cc exercises at adversarial
// boundaries.
//
// The walk width knob (GeneratorOptions::walk_width) picks W; 0 = auto
// (backend lane count x unroll factor). Width 1 — and any scalar backend,
// including CONSERVATION_SIMD=off builds — delegates to the untouched
// per-anchor scalar walk, which stays the reference semantics.

#ifndef CONSERVATION_INTERVAL_WALK_H_
#define CONSERVATION_INTERVAL_WALK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/kernel_simd.h"

namespace conservation::interval::internal {

// Lane capacity of one SparseWalkRound call: completions are reported as a
// uint64_t bitmask. A scheduler running wider than this advances its lanes
// in banks of 64 within each round.
inline constexpr int kMaxRoundLanes = 64;

// Scheduler-level cap on concurrently active walks. Wider keeps more
// independent probe chains in flight (better latency hiding) at the cost
// of lane-buffer footprint; 256 lanes is ~12 KB of SoA state, still
// L1-resident alongside the hot sp lines.
inline constexpr int kMaxWalkWidth = 256;

// Active-walk width for a generator run: explicit option value, or
// backend lanes x unroll on auto. The auto unroll (128 walks on a 4-lane
// backend) is chosen to saturate the core's memory-level parallelism:
// each lane's next probe is a dependent load, so only independent walks
// can overlap the binary searches' cache traffic, and measured throughput
// peaks near 128 before lane-buffer footprint starts crowding L1. The
// scalar backend always walks one anchor at a time.
inline int ResolveWalkWidth(const GeneratorOptions& options,
                            SimdBackend backend) {
  if (backend == SimdBackend::kScalar) return 1;
  if (options.walk_width > 0) {
    return std::min(options.walk_width, kMaxWalkWidth);
  }
  return std::min(SimdLaneWidth(backend) * 32, kMaxWalkWidth);
}

// Structure-of-arrays lane state for a walk scheduler: one slot per
// concurrently active walk, laid out contiguously so the round kernel
// reads and writes lane registers with plain vector loads/stores. The
// anchor-hoisted fields (i, sp_prev, h_sp) change only when a slot is
// (re)filled; the search registers (lo..probe_area) are mutated in place
// by SparseWalkRound between phase changes.
struct WalkLaneBuffers {
  std::vector<int64_t> i;
  std::vector<double> sp_prev;
  std::vector<double> h_sp;
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  std::vector<double> threshold;
  // Generic probe scratch for gather-form rounds (AB's exists probes and
  // pending-confidence flushes).
  std::vector<int64_t> j;
  std::vector<double> area;

  explicit WalkLaneBuffers(int width)
      : i(static_cast<size_t>(width)),
        sp_prev(static_cast<size_t>(width)),
        h_sp(static_cast<size_t>(width)),
        lo(static_cast<size_t>(width)),
        hi(static_cast<size_t>(width)),
        threshold(static_cast<size_t>(width)),
        j(static_cast<size_t>(width)),
        area(static_cast<size_t>(width)) {}

  // Copies lane `from`'s state into lane `to` (slot compaction after a
  // walk retires).
  void MoveLane(int to, int from) {
    const size_t t = static_cast<size_t>(to);
    const size_t f = static_cast<size_t>(from);
    i[t] = i[f];
    sp_prev[t] = sp_prev[f];
    h_sp[t] = h_sp[f];
    lo[t] = lo[f];
    hi[t] = hi[f];
    threshold[t] = threshold[f];
  }

  // Round-kernel argument block for the lane bank starting at `base`
  // (the kernel's completion mask covers kMaxRoundLanes lanes per call).
  WalkRoundArgs RoundArgs(int base = 0) {
    const size_t o = static_cast<size_t>(base);
    return WalkRoundArgs{nullptr,      sp_prev.data() + o,   h_sp.data() + o,
                         i.data() + o, threshold.data() + o, lo.data() + o,
                         hi.data() + o};
  }
};

// Shared chunk-level context for AB-opt walks: everything the per-anchor
// scalar code closes over.
struct AbOptWalkContext {
  int64_t n = 0;
  double delta = 0.0;
  double growth = 0.0;
  // Credit-model fail tableaux prepend a zero-area search and the
  // length-geometric zero-prefix probes (see area_based_opt.cc).
  bool credit_fail = false;
  const std::vector<int64_t>* zero_prefix_lengths = nullptr;
  // The kernel's sparsification cumulative array (ConfidenceKernel::sp()),
  // for re-deriving a completed search's accepted-probe area — the round
  // kernel does not maintain a result_area register (see WalkRoundArgs).
  const double* sp = nullptr;
};

// One anchor's AB-opt breakpoint construction as a resumable state
// machine. The walk is a chain of largest-endpoint binary searches:
//
//   kZeroSearch  (credit_fail only) largest j with area == 0 over [i, n];
//                on completion emits the zero-prefix breakpoints and the
//                zero-area end, then starts kInitSearch.
//   kInitSearch  largest j with area <= Delta over [i, n]; completion
//                yields the initial breakpoint cur (forced to i when even
//                [i, i] exceeds Delta).
//   kNextSearch  largest j with area <= max(area(cur), Delta)*(1+eps)
//                over [cur+1, n]; repeats until cur reaches n.
//   kEvaluate    breakpoints complete; ready for the confidence batch.
//
// Two stepping forms drive it, interchangeable probe for probe:
//   - Advance(area): consume one probe scalar-style (probe_j() exposes the
//     next probe endpoint). Used by the resume tests and anywhere a single
//     walk is stepped in isolation.
//   - StoreRegs/CompleteSearch: park the in-progress search registers in
//     WalkLaneBuffers lanes, let kernel SparseWalkRound advance all lanes
//     branchlessly, and pull a lane back in only when its search finished.
//
// area(cur) never costs a counted probe. The lane registers end a search
// holding only lo/hi (the round kernel maintains no result or probe-area
// register — see WalkRoundArgs); completion reconstructs the rest:
//   - result == lo - 1 always (accepting a probe sets result = mid and
//     lo = mid + 1 in the same step; both start at lo0 - 1 / lo0).
//   - If any probe was accepted, the last accepted one was at result, and
//     its area re-derives from the lane's hoisted (sp_prev, h_sp)
//     baselines — the identical expression the kernel evaluated when it
//     accepted that probe, hence the identical double.
//   - If every probe failed (forced advance), the final probe was at
//     exactly lo == the forced point == result + 1 (hi shrinks onto lo
//     before the range empties), and its area re-derives the same way.
// Both reproduce kernel.SparseArea(cur) bit for bit, so the growth
// target — and with it every later probe — matches the scalar walk.
class AbOptWalkState {
 public:
  enum class Phase { kZeroSearch, kInitSearch, kNextSearch, kEvaluate };

  // Resets this state to the start of anchor i's walk. The breakpoint
  // storage is reused across Begin calls (the schedulers recycle retired
  // walk slots).
  void Begin(int64_t i, const AbOptWalkContext& ctx) {
    anchor_ = i;
    probes_ = 0;
    breakpoints_.clear();
    if (ctx.credit_fail) {
      StartSearch(Phase::kZeroSearch, i, ctx.n, 0.0);
    } else {
      StartSearch(Phase::kInitSearch, i, ctx.n, ctx.delta);
    }
  }

  // Endpoint of the next sparsification-area probe. Valid while !done().
  int64_t probe_j() const { return lo_ + (hi_ - lo_) / 2; }

  bool done() const { return phase_ == Phase::kEvaluate; }

  // Consumes the probed area for probe_j() and advances the machine.
  // Branchless accept/reject mirror of one SparseWalkRound lane step.
  void Advance(double area, const AbOptWalkContext& ctx) {
    ++probes_;
    probe_area_ = area;
    const int64_t mid = probe_j();
    const bool ok = area <= threshold_;
    result_ = ok ? mid : result_;
    result_area_ = ok ? area : result_area_;
    lo_ = ok ? mid + 1 : lo_;
    hi_ = ok ? hi_ : mid - 1;
    if (lo_ <= hi_) return;  // search continues
    OnSearchComplete(ctx);
  }

  // Seeds lane k of the buffers with the current search registers (after
  // Begin or a phase change).
  void StoreRegs(WalkLaneBuffers* lanes, int k) const {
    const size_t s = static_cast<size_t>(k);
    lanes->lo[s] = lo_;
    lanes->hi[s] = hi_;
    lanes->threshold[s] = threshold_;
  }

  // Pulls lane k's finished search registers back in (the lane's completed
  // bit was set by SparseWalkRound), reconstructs result/result_area per
  // the invariants in the class comment, and advances the phase. Returns
  // true when the walk retired (kEvaluate); otherwise the next search's
  // registers have been stored back into lane k. Note: probe counting for
  // lane-stepped walks is the scheduler's (one per lane per round);
  // probes() tracks Advance()-stepped probes only.
  bool CompleteSearch(WalkLaneBuffers* lanes, int k,
                      const AbOptWalkContext& ctx) {
    const size_t s = static_cast<size_t>(k);
    lo_ = lanes->lo[s];
    hi_ = lanes->hi[s];
    result_ = lo_ - 1;
    // Re-derive the two areas the phase transition can need, branchlessly
    // (which one a completion reads is data-random): the last accepted
    // probe's area (at result) and a forced search's final probe area (at
    // result + 1 == start_). Each is the exact expression SparseWalkRound
    // evaluated for that probe. When a value is meaningless — result_area
    // on a forced search (result < start_, index start_ - 1 >= 0),
    // probe_area on a found one (result + 1 capped at ctx.n) — it is
    // well-defined garbage that OnSearchComplete never reads.
    const int64_t iv = lanes->i[s];
    const double sp_prev = lanes->sp_prev[s];
    const double h_sp = lanes->h_sp[s];
    const int64_t forced_j = result_ + 1 <= ctx.n ? result_ + 1 : ctx.n;
    const double found_raw =
        (ctx.sp[result_] - sp_prev) -
        static_cast<double>(result_ - iv + 1) * h_sp;
    const double forced_raw =
        (ctx.sp[forced_j] - sp_prev) -
        static_cast<double>(forced_j - iv + 1) * h_sp;
    result_area_ = found_raw < 0.0 ? 0.0 : found_raw;
    probe_area_ = forced_raw < 0.0 ? 0.0 : forced_raw;
    OnSearchComplete(ctx);
    if (done()) return true;
    StoreRegs(lanes, k);
    return false;
  }

  int64_t anchor() const { return anchor_; }
  Phase phase() const { return phase_; }
  // Counted search probes so far — matches the scalar walk's ++*probes.
  uint64_t probes() const { return probes_; }
  const std::vector<int64_t>& breakpoints() const { return breakpoints_; }

 private:
  void StartSearch(Phase phase, int64_t lo, int64_t hi, double threshold) {
    phase_ = phase;
    lo_ = lo;
    hi_ = hi;
    start_ = lo;
    result_ = lo - 1;
    threshold_ = threshold;
  }

  // Phase transition on search completion (lo_ > hi_).
  void OnSearchComplete(const AbOptWalkContext& ctx) {
    switch (phase_) {
      case Phase::kZeroSearch: {
        const int64_t zero_area_end = result_;
        for (const int64_t len : *ctx.zero_prefix_lengths) {
          const int64_t j = anchor_ + len - 1;
          if (j >= zero_area_end) break;  // zero_area_end is a breakpoint
          breakpoints_.push_back(j);
        }
        if (zero_area_end >= anchor_) breakpoints_.push_back(zero_area_end);
        StartSearch(Phase::kInitSearch, anchor_, ctx.n, ctx.delta);
        return;
      }
      case Phase::kInitSearch: {
        // Forced start (no probe accepted): the search's final failing
        // probe was at anchor_ itself, so probe_area_ is area(i, i).
        // Whether a step is forced is data-random; select branchlessly.
        const bool found = result_ >= anchor_;
        cur_ = found ? result_ : anchor_;
        cur_area_ = found ? result_area_ : probe_area_;
        if (breakpoints_.empty() || breakpoints_.back() < cur_) {
          breakpoints_.push_back(cur_);
        }
        StartNextOrEvaluate(ctx);
        return;
      }
      case Phase::kNextSearch: {
        // Forced advance: final failing probe was at cur_ + 1.
        const bool found = result_ >= cur_ + 1;
        cur_ = found ? result_ : cur_ + 1;
        cur_area_ = found ? result_area_ : probe_area_;
        breakpoints_.push_back(cur_);
        StartNextOrEvaluate(ctx);
        return;
      }
      case Phase::kEvaluate:
        return;  // unreachable: no probes are issued once done
    }
  }

  void StartNextOrEvaluate(const AbOptWalkContext& ctx) {
    if (cur_ < ctx.n) {
      StartSearch(Phase::kNextSearch, cur_ + 1, ctx.n,
                  std::max(cur_area_, ctx.delta) * ctx.growth);
    } else {
      phase_ = Phase::kEvaluate;
    }
  }

  int64_t anchor_ = 0;
  Phase phase_ = Phase::kEvaluate;
  int64_t lo_ = 0;
  int64_t hi_ = -1;
  int64_t start_ = 0;  // the search's initial lo (forced-advance detection)
  int64_t result_ = 0;
  double threshold_ = 0.0;
  double result_area_ = 0.0;
  double probe_area_ = 0.0;
  int64_t cur_ = 0;
  double cur_area_ = 0.0;
  uint64_t probes_ = 0;
  std::vector<int64_t> breakpoints_;
};

// Counters a walk step accumulates; field-for-field the scalar loops'
// chunk counters, so the shard sums match bit for bit.
struct WalkStepCounters {
  uint64_t tested = 0;
  uint64_t steps = 0;
  uint64_t batches = 0;
};

// Chunk-level context an AB walk steps against. `pointer` is the
// never-retreating per-level breakpoint cursor shared by every anchor in
// the chunk (Lemma 3) — AB walks in one chunk are therefore coupled
// through it, and checkpointing an AB walk means checkpointing the chunk's
// pointer vector alongside the state (walk_resume_test.cc does exactly
// that). This coupling is also why AB keeps per-anchor stepping rather
// than the cross-anchor lane scheduler: interleaved anchors would race on
// the pointers' amortization, and the linear walks they amortize are
// already batched wide through SparseAreaBatch.
struct AbWalkContext {
  int64_t n = 0;
  double delta = 0.0;
  double growth = 0.0;
  const std::vector<double>* thresholds = nullptr;
  std::vector<int64_t>* pointer = nullptr;
  const GeneratorOptions* options = nullptr;
  bool fail_type = false;    // tableau has the prepended zero level
  bool credit_fail = false;  // fail tableau under the credit model
  const std::vector<int64_t>* zero_prefix_lengths = nullptr;
};

// Reusable scratch for AB walk steps (batch walk window, zero-prefix probe
// lists); chunk-local, carries no walk state.
struct AbWalkScratch {
  static constexpr int64_t kMaxWalk = 256;
  double area_buf[kMaxWalk];
  std::vector<int64_t> zp_js;
  std::vector<double> zp_conf;
  std::vector<uint8_t> zp_valid;
};

// First nonzero ladder level of an anchor's AB sweep. Levels whose
// threshold is below area(i, i) have no breakpoint for this anchor; the
// sweep skips straight past them (with a safety margin of one level
// against floating-point rounding). The zero level for fail tableaux
// (index 0, threshold 0) is never skipped: it precedes this level.
inline size_t AbFirstLevel(const ConfidenceKernel& kernel, int64_t i,
                           double delta, double growth, bool fail_type) {
  size_t first_level = fail_type ? 1 : 0;
  const double anchor_area = kernel.SparseArea(i);
  if (anchor_area > delta) {
    const double levels_below =
        std::log(anchor_area / delta) / std::log(growth);
    first_level += static_cast<size_t>(std::max(0.0, levels_below - 1.0));
  }
  return first_level;
}

// One AB level's breakpoint for the anchored kernel: the largest j in
// [lo, n] whose area is within `threshold`, or lo when there is none (the
// caller tests existence with one more probe). `*pointer` is the level's
// never-retreating cursor over ascending anchors (Lemma 3): 0 means not yet
// located, and the level is binary-searched over [lo, n]; otherwise the
// search walks forward from max(*pointer, lo) in SparseAreaBatch windows.
// The result is stored back into *pointer. The walk is exact because the
// area is nondecreasing in j and an earlier anchor's breakpoint never lies
// past a later anchor's; its start must be within the threshold or be the
// anchor itself. Counter increments are the scalar loop's: one per search
// probe or advanced endpoint, one batch per window. Always inlined: it is
// the body of the fresh sweep's hottest step.
[[gnu::always_inline]] inline int64_t LevelBreakpoint(
    const ConfidenceKernel& kernel, int64_t lo, int64_t n, double threshold,
    int64_t* pointer, AbWalkScratch* scratch, WalkStepCounters* counters) {
  int64_t t;
  if (*pointer == 0) {
    // First touch: t = lo when even [i, lo] exceeds the threshold,
    // matching the walk's no-advance case.
    t = std::max(
        LargestEndpointWithin(kernel, lo, n, threshold, &counters->steps), lo);
  } else {
    t = std::max(*pointer, lo);
    // Batched linear walk: evaluate the next window of areas in one
    // SparseAreaBatch call and advance through its within-threshold
    // prefix. Stops at the same breakpoint as the scalar walk (the area is
    // evaluated for every advanced endpoint plus the first failing one —
    // extra lanes are speculative and side-effect free), and `steps` still
    // counts only actual advances.
    int64_t window = 4;
    while (t + 1 <= n) {
      const int64_t j1 = std::min<int64_t>(n, t + window);
      const int64_t len = j1 - t;
      kernel.SparseAreaBatch(t + 1, j1, scratch->area_buf);
      ++counters->batches;
      int64_t advanced = 0;
      while (advanced < len && scratch->area_buf[advanced] <= threshold) {
        ++advanced;
      }
      t += advanced;
      counters->steps += static_cast<uint64_t>(advanced);
      if (advanced < len) break;  // hit the first endpoint past T
      window = std::min<int64_t>(window * 2, AbWalkScratch::kMaxWalk);
    }
  }
  *pointer = t;
  return t;
}

// One anchor's AB level sweep as a resumable state machine. Each Step()
// consumes one level — LevelBreakpoint, then the breakpoint's confidence
// probe — and the credit-fail zero-prefix batch runs as a final step.
// Checkpointing between steps and resuming (with the chunk's pointer
// vector restored) reproduces the uninterrupted walk's candidate and
// counters exactly: a step is the scalar loop body verbatim, and all
// cross-step state lives in this struct plus ctx.pointer. The kernel must
// be anchored at anchor() (BeginAnchor) when Begin/Step run.
class AbWalkState {
 public:
  enum class Phase { kLevels, kZeroPrefix, kDone };

  void Begin(int64_t i, const ConfidenceKernel& kernel,
             const AbWalkContext& ctx) {
    anchor_ = i;
    best_j_ = 0;
    best_conf_ = 0.0;
    zero_area_end_ = 0;
    first_level_ = AbFirstLevel(kernel, i, ctx.delta, ctx.growth,
                                ctx.fail_type);
    level_ = ctx.fail_type ? 0 : first_level_;
    phase_ = level_ < ctx.thresholds->size() ? Phase::kLevels
                                             : Phase::kZeroPrefix;
    if (phase_ == Phase::kZeroPrefix && !NeedsZeroPrefix(ctx)) {
      phase_ = Phase::kDone;
    }
  }

  bool done() const { return phase_ == Phase::kDone; }
  int64_t anchor() const { return anchor_; }
  Phase phase() const { return phase_; }
  int64_t best_j() const { return best_j_; }
  double best_conf() const { return best_conf_; }

  // Executes one resumable slice of the walk (one level, or the final
  // zero-prefix batch). Counter increments are the scalar loop's, step for
  // step.
  void Step(const ConfidenceKernel& kernel, const AbWalkContext& ctx,
            AbWalkScratch* scratch, WalkStepCounters* counters) {
    if (phase_ == Phase::kZeroPrefix) {
      StepZeroPrefix(kernel, ctx, scratch, counters);
      return;
    }
    const double threshold = (*ctx.thresholds)[level_];
    const int64_t t = LevelBreakpoint(kernel, anchor_, ctx.n, threshold,
                                      &(*ctx.pointer)[level_], scratch,
                                      counters);
    const bool exists = kernel.SparseArea(t) <= threshold;
    if (exists) {
      if (threshold == 0.0) zero_area_end_ = t;
      double conf;
      ++counters->tested;
      if (kernel.Confidence(t, &conf) &&
          PassesRelaxedThreshold(conf, *ctx.options) && t > best_j_) {
        best_j_ = t;
        best_conf_ = conf;
      }
    }
    // Once the breakpoint reaches n, higher levels produce the same
    // interval; the paper's level count L_i = ceil(log(area(i,n)/Delta))
    // stops here too.
    if (exists && t == ctx.n) {
      FinishLevels(ctx);
      return;
    }
    ++level_;
    if (level_ == 1 && first_level_ > 1) level_ = first_level_;  // after zero
    if (level_ >= ctx.thresholds->size()) FinishLevels(ctx);
  }

 private:
  bool NeedsZeroPrefix(const AbWalkContext& ctx) const {
    return ctx.credit_fail && zero_area_end_ > anchor_;
  }

  void FinishLevels(const AbWalkContext& ctx) {
    phase_ = NeedsZeroPrefix(ctx) ? Phase::kZeroPrefix : Phase::kDone;
  }

  void StepZeroPrefix(const ConfidenceKernel& kernel, const AbWalkContext& ctx,
                      AbWalkScratch* scratch, WalkStepCounters* counters) {
    // Zero-prefix probes, batched through the index-list kernel. Duplicate
    // lengths (floor((1+eps)^h) repeats for small eps) are kept: each
    // counts as a test, exactly as the scalar loop counted them, and a
    // duplicate j can never displace itself (j > best_j).
    scratch->zp_js.clear();
    for (const int64_t len : *ctx.zero_prefix_lengths) {
      const int64_t j = anchor_ + len - 1;
      if (j >= zero_area_end_) break;  // zero_area_end itself was tested
      scratch->zp_js.push_back(j);
    }
    if (!scratch->zp_js.empty()) {
      scratch->zp_conf.resize(scratch->zp_js.size());
      scratch->zp_valid.resize(scratch->zp_js.size());
      kernel.ConfidenceIndexBatch(scratch->zp_js.data(),
                                  static_cast<int64_t>(scratch->zp_js.size()),
                                  scratch->zp_conf.data(),
                                  scratch->zp_valid.data());
      ++counters->batches;
      counters->tested += scratch->zp_js.size();
      for (size_t k = 0; k < scratch->zp_js.size(); ++k) {
        if (scratch->zp_valid[k] &&
            PassesRelaxedThreshold(scratch->zp_conf[k], *ctx.options) &&
            scratch->zp_js[k] > best_j_) {
          best_j_ = scratch->zp_js[k];
          best_conf_ = scratch->zp_conf[k];
        }
      }
    }
    phase_ = Phase::kDone;
  }

  int64_t anchor_ = 0;
  Phase phase_ = Phase::kDone;
  size_t level_ = 0;
  size_t first_level_ = 0;
  int64_t best_j_ = 0;
  double best_conf_ = 0.0;
  int64_t zero_area_end_ = 0;
};

// Chunk-level context for NAB walk steps.
struct NabWalkContext {
  const std::vector<int64_t>* lengths = nullptr;
  const GeneratorOptions* options = nullptr;
};

// Reusable scratch for NAB walk steps.
struct NabWalkScratch {
  std::vector<int64_t> level_is;
  std::vector<double> conf;
  std::vector<uint8_t> valid;
};

// One right anchor's NAB sweep as a resumable state. The level probes are
// already a wide batch (lanes fill within the anchor), so cross-anchor
// scheduling has nothing to add; the state machine is the checkpoint and
// resume surface. Begin() snapshots the applicable level count; each
// Step() consumes one probe block — the whole sweep, or one reverse
// largest-first block — until `finished`. The kernel must be right-anchored
// at j (BeginRightAnchor) when Step runs.
struct NabWalkState {
  int64_t j = 0;          // right anchor
  size_t applicable = 0;  // schedule entries probed for this anchor
  // Reverse-block cursor for largest_first_early_exit; `applicable` down
  // to 0. For the plain sweep a single step consumes everything.
  size_t block_end = 0;
  int64_t best_i = 0;
  double best_conf = 0.0;
  bool finished = false;

  void Begin(int64_t right_anchor, size_t applicable_levels) {
    j = right_anchor;
    applicable = applicable_levels;
    block_end = applicable_levels;
    best_i = 0;
    best_conf = 0.0;
    finished = false;
  }

  void Step(const ConfidenceKernel& kernel, const NabWalkContext& ctx,
            NabWalkScratch* scratch, WalkStepCounters* counters) {
    const std::vector<int64_t>& lengths = *ctx.lengths;
    const GeneratorOptions& options = *ctx.options;
    // Left anchors per level, probed through the right-anchored batch
    // kernel (index-list gather over a, SA, SB). Recomputed per step from
    // the state alone so a resumed walk sees identical lanes.
    scratch->level_is.resize(applicable);
    scratch->conf.resize(applicable);
    scratch->valid.resize(applicable);
    for (size_t h = 0; h < applicable; ++h) {
      scratch->level_is[h] = std::max<int64_t>(1, j + 1 - lengths[h]);
    }
    if (options.largest_first_early_exit) {
      // Longest level first, one reverse block per step; the first
      // qualifying level wins (best_i is always 0 at that point, so the
      // scalar `i < best_i` refinement is vacuous). Lanes past the winner
      // are speculative and uncounted, keeping `tested` scalar-identical.
      constexpr size_t kProbeBlock = 8;
      const size_t end = block_end;
      const size_t begin = end >= kProbeBlock ? end - kProbeBlock : 0;
      kernel.ConfidenceFromBatch(scratch->level_is.data() + begin,
                                 static_cast<int64_t>(end - begin),
                                 scratch->conf.data(), scratch->valid.data());
      ++counters->batches;
      for (size_t h = end; h-- > begin;) {
        ++counters->tested;
        if (scratch->valid[h - begin] &&
            PassesRelaxedThreshold(scratch->conf[h - begin], options)) {
          best_i = scratch->level_is[h];
          best_conf = scratch->conf[h - begin];
          finished = true;
          return;
        }
      }
      block_end = begin;
      if (block_end == 0) finished = true;
      return;
    }
    kernel.ConfidenceFromBatch(scratch->level_is.data(),
                               static_cast<int64_t>(applicable),
                               scratch->conf.data(), scratch->valid.data());
    ++counters->batches;
    counters->tested += applicable;
    for (size_t h = 0; h < applicable; ++h) {
      if (scratch->valid[h] &&
          PassesRelaxedThreshold(scratch->conf[h], options) &&
          (best_i == 0 || scratch->level_is[h] < best_i)) {
        best_i = scratch->level_is[h];
        best_conf = scratch->conf[h];
      }
    }
    finished = true;
  }
};

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_WALK_H_
