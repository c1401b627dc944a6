// Quantized-sketch anchor screen: the generators' conservative pre-pass.
//
// Before a generator sweeps an anchor, the screen answers "can ANY interval
// anchored here pass the (relaxed) threshold?" from the SeriesSketch block
// maps alone (series/sketch.h) — an O(n / block) scan with a guaranteed
// no-false-negative verdict. Anchors whose per-anchor optimum is provably
// empty are skipped before BeginAnchor, so a high-prune-rate run touches a
// fraction of the full-precision columns; the emitted candidate set stays
// bit-identical because a pruned anchor would have emitted nothing.
//
// Soundness (DESIGN.md §4f): for each endpoint block the screen evaluates
// the same expression shapes as the exact kernel (interval/kernel.h) with
// every operand replaced by the bracketing end of its sketch range, and
// sign-aware min/max products for the len * H terms. Per-operation
// round-to-nearest monotonicity then gives conf_ub >= conf (hold) and
// conf_lb <= conf (fail) for every exact (i, j) pair the block covers, so a
// "no" verdict can never hide a passing pair. The screen over-covers
// invalid pairs (i > j, zero denominators) — that only weakens pruning,
// never correctness.
//
// Determinism: every verdict is a pure function of (series, sketch,
// options, anchor). The SIMD backends in kernel_simd.h compute lanewise
// bit-identical maybe-masks, and block accounting is chunk-granular, so
// decisions AND counters are invariant across thread counts, chunkings
// and CONSERVATION_SIMD settings — the cross-backend equality assertions
// in tests/kernel_batch_test.cc keep holding with the screen enabled.
//
// The screen is left-anchored only (exhaustive / AB / AB-opt): NAB's length
// schedule already caps its probes per right anchor at O(log n), so a
// right-anchored screen cannot pay for its scans (DESIGN.md §4f).

#ifndef CONSERVATION_INTERVAL_PRUNE_H_
#define CONSERVATION_INTERVAL_PRUNE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/confidence.h"
#include "interval/generator.h"
#include "interval/kernel_simd.h"
#include "series/sketch.h"

namespace conservation::interval::internal {

// Minimum series length, in sketch blocks, before the auto screen engages.
// Tuned with bench_micro --sketch_json sweeps over n/block ratios {2..64} at
// blocks {128, 256, 512, 1024}: a single-block sketch cannot discriminate
// anchors at all (the screen quantizes verdicts at block granularity), while
// at two blocks the screen already wins 1.9-4.7x on prunable families
// (low_conf_hold) and costs only measurement noise (<= 8%, typically <= 4%)
// on unprunable ones (uniform_pass, joblog). Raising the gate to 4 blocks
// would forfeit those ratio-2 wins without buying any overhead reduction, so
// 2 is the tuned floor. bench_micro --sketch_json --check_gate_overhead
// asserts the overhead side of this trade-off at the gate boundary.
inline constexpr int64_t kSketchAutoGateBlocks = 2;

// Whether the sketch screen should run for this call. Resolution order:
// build-time -DCONSERVATION_SKETCH=off, then the CONSERVATION_SKETCH
// environment variable (auto | off, case-insensitive; an unknown token is a
// fatal configuration error, mirroring CONSERVATION_SIMD), then
// options.sketch, then the auto gate n >= kSketchAutoGateBlocks *
// sketch_block (shorter series cannot amortize sketch construction, and the
// gate keeps tiny unit-test fixtures on the unscreened path).
bool SketchScreenEnabled(const GeneratorOptions& options, int64_t n);

// The block span the screen (and any transient sketch) should use:
// options.sketch_block when positive, else SeriesSketch::kDefaultBlock.
int64_t ResolveSketchBlock(const GeneratorOptions& options);

class SketchScreen {
 public:
  // Precomputes, for every block of `sketch.block()` consecutive anchors, a
  // group verdict: kPruned (no anchor in the block can emit — each is
  // skipped with no further work) or kMixed (anchors get an individual
  // sketch scan on first visit). `relaxed` selects the approximate
  // generators' relaxed threshold over the exhaustive generator's exact
  // one. The screen is immutable after construction and safe to share
  // across worker threads; `eval` and `sketch` must outlive it.
  SketchScreen(const core::ConfidenceEvaluator& eval,
               const series::SeriesSketch& sketch,
               const GeneratorOptions& options, bool relaxed);

  // True when some interval anchored at i may pass the threshold.
  // `scan_blocks` (required) accumulates sketch blocks scanned.
  bool MayEmit(int64_t i, uint64_t* scan_blocks) const;

  // Sketch blocks scanned while precomputing the group verdicts; callers
  // fold this into GeneratorStats::sketch_blocks once per run.
  uint64_t construction_blocks() const { return construction_blocks_; }

 private:
  // Per-anchor sketch scans in mixed groups give up after this many blocks
  // and conservatively report "may emit". A deterministic cap: the scan
  // order and the first maybe-block are backend-invariant, so the cap
  // triggers identically everywhere.
  static constexpr int64_t kAnchorScanCap = 512;
  // Per-tick code refinements allowed per anchor: on a map-level maybe
  // block, decode the 1-byte codes and retest per tick; a killed block lets
  // the scan continue past it.
  static constexpr int kRefineBudget = 2;

  uint64_t ScanLeftChunk(const SketchScanArgs& args, int64_t b0,
                         int64_t count) const;
  // True when, after decoding the per-tick codes of endpoint block b, some
  // endpoint j in it still may pass for the exact anchor scalars in `args`.
  bool RefineLeftBlock(const SketchScanArgs& args, int64_t b) const;

  const series::SeriesSketch& sketch_;
  const double* a_ = nullptr;
  const double* s_ = nullptr;
  const double* sa_ = nullptr;
  const double* sb_ = nullptr;
  core::ConfidenceModel model_;
  bool hold_ = false;
  double threshold_ = 0.0;
  int64_t n_ = 0;
  int64_t block_ = 0;
  SimdBackend backend_ = SimdBackend::kScalar;
  // 1 = mixed (anchors need individual scans), 0 = whole group pruned.
  std::vector<uint8_t> group_mixed_;
  uint64_t construction_blocks_ = 0;
};

// Owns the (possibly transient) sketch and screen for one
// GenerateCandidates call. Generators construct one before dispatching
// chunks; get() is null when the screen is disabled for this call.
// Reuses options.sketch_ptr when it matches the series and block span
// (the series/store.h tier), otherwise builds a transient sketch.
class ScopedSketchScreen {
 public:
  ScopedSketchScreen(const core::ConfidenceEvaluator& eval,
                     const GeneratorOptions& options, bool relaxed);
  ScopedSketchScreen(const ScopedSketchScreen&) = delete;
  ScopedSketchScreen& operator=(const ScopedSketchScreen&) = delete;

  const SketchScreen* get() const {
    return screen_.has_value() ? &*screen_ : nullptr;
  }
  uint64_t construction_blocks() const {
    return screen_.has_value() ? screen_->construction_blocks() : 0;
  }

 private:
  series::SeriesSketch sketch_;
  std::optional<SketchScreen> screen_;
};

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_PRUNE_H_
