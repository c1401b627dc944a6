// Resumable per-anchor walk states for the AB and NAB sweeps.
//
// Each state is one anchor's sweep as an explicit state machine: a plain,
// copyable value whose Step() consumes one slice of the walk (one AB level,
// one NAB probe block) with the scalar loop's exact counter increments.
// The fresh generators (area_based.cc, non_area_based.cc) drive the states
// from empty to done, and incremental maintenance (incr/incremental.cc)
// shares the AB level step (LevelBreakpoint) and the first-level skip
// (AbFirstLevel). Checkpointing a state between steps and resuming later
// reproduces the uninterrupted walk's candidate and counters bit for bit,
// which tests/walk_resume_test.cc exercises at adversarial boundaries.
//
// AB-opt keeps its per-anchor binary-search chain inline in
// area_based_opt.cc: each anchor is a fresh chain with no cross-anchor
// state, so it needs no resumable form.

#ifndef CONSERVATION_INTERVAL_WALK_H_
#define CONSERVATION_INTERVAL_WALK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "interval/generator.h"
#include "interval/kernel.h"

namespace conservation::interval::internal {

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
// that). The linear walks the pointers amortize are batched wide through
// SparseAreaBatch.
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
// already a wide batch (lanes fill within the anchor); the state machine is
// the checkpoint and resume surface. Begin() snapshots the applicable level count; each
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
