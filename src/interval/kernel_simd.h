// Batched, branchless confidence-kernel backends with runtime dispatch.
//
// The generator inner sweeps (interval/kernel.h) are scan-shaped: evaluate
// one arithmetic expression over a run of endpoints (or an index list of
// endpoints) against flat cumulative arrays. This header implements those
// sweeps as batch routines in two backends — AVX2 (4 lanes) and portable
// scalar — and selects one backend per process at first use via runtime
// CPU detection (util/cpu.h), gated by the CONSERVATION_SIMD build option
// (auto | avx2 | off).
//
// Bit-identity contract (the whole point): every backend reproduces the
// scalar kernel's arithmetic lane by lane — the same operand values, the
// same operation order, only IEEE-exact lanewise add/sub/mul/div. No FMA
// (the build pins -ffp-contract=off and no backend enables an FMA ISA), no
// reassociation, no approximate reciprocals. Clamp-to-zero is a compare
// mask + select replicating `raw < 0.0 ? 0.0 : raw` exactly (a plain
// vector max would rewrite -0.0 to +0.0 and disagree with the scalar
// ternary in the last bit); validity is a `den > 0.0` compare mask.
// Consequently the candidate stream of every generator is byte-identical
// across backends, thread counts, and CONSERVATION_SIMD settings —
// enforced by tests/kernel_batch_test.cc and tools/stdout_regression.sh.
//
// Batch output contract:
//   * Lane k of a batch holds endpoint j0 + k (contiguous forms) or
//     index_list[k] (index-list forms) — ascending, no permutation.
//   * out_valid[k] is 1 iff the confidence denominator is > 0 (the paper
//     leaves conf undefined otherwise); out_conf[k] is the confidence when
//     valid and exactly 0.0 when invalid, on every backend, so whole
//     output arrays can be compared bytewise in tests.
//   * Tails shorter than the vector width run the identical scalar
//     expressions — batches never load past the requested range (the ASan
//     configuration of kernel_batch_test guards this).
//   * Exact int64 -> double lane conversion assumes indices < 2^52, far
//     above any representable tick count.

#ifndef CONSERVATION_INTERVAL_KERNEL_SIMD_H_
#define CONSERVATION_INTERVAL_KERNEL_SIMD_H_

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/model.h"
#include "obs/metrics.h"
#include "util/cpu.h"

// Compile-time backend availability. CONSERVATION_SIMD=off defines
// CONSERVATION_SIMD_DISABLED and strips every vector backend from the
// build; avx2 defines CONSERVATION_SIMD_FORCE_AVX2 and narrows the runtime
// choice to that backend (still subject to CPU support, falling back to
// scalar when the hardware lacks it).
#if !defined(CONSERVATION_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define CONSERVATION_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#else
#define CONSERVATION_KERNEL_HAVE_AVX2 0
#endif

namespace conservation::interval::internal {

// Numeric codes are stable and published as the `kernel.backend` gauge
// (docs/OBSERVABILITY.md): 0 = scalar, 1 = avx2.
enum class SimdBackend : int { kScalar = 0, kAvx2 = 1 };

inline const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kScalar:
    default:
      return "scalar";
  }
}

// --- Backend selection -----------------------------------------------------

// What a CONSERVATION_SIMD environment value asks for. kAuto covers the
// unset/empty/"auto" cases (use the build-time default and CPU detection);
// kInvalid marks a token that names no backend — SelectBackend treats it as
// a fatal configuration error rather than silently running scalar.
enum class SimdRequest { kAuto, kScalar, kAvx2, kInvalid };

// Case-insensitive parse of a CONSERVATION_SIMD value. "off" and "scalar"
// are synonyms, matching the CMake option's spelling and the backend name.
inline SimdRequest ParseSimdRequest(const char* text) {
  if (text == nullptr) return SimdRequest::kAuto;
  char lowered[8];
  size_t len = 0;
  for (; text[len] != '\0'; ++len) {
    if (len >= sizeof(lowered) - 1) return SimdRequest::kInvalid;
    lowered[len] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[len])));
  }
  lowered[len] = '\0';
  const std::string_view value(lowered, len);
  if (value.empty() || value == "auto") return SimdRequest::kAuto;
  if (value == "off" || value == "scalar") return SimdRequest::kScalar;
  if (value == "avx2") return SimdRequest::kAvx2;
  return SimdRequest::kInvalid;
}

namespace simd_detail {

// -1 = not yet selected; >= 0 holds the SimdBackend code.
inline std::atomic<int>& BackendStorage() {
  static std::atomic<int> storage{-1};
  return storage;
}

inline void PublishBackendGauge(SimdBackend backend) {
  obs::Registry::Global().Gauge("kernel.backend").Set(
      static_cast<double>(static_cast<int>(backend)));
}

// Build-time default: what the CMake CONSERVATION_SIMD option narrowed the
// runtime choice to, subject to CPU support.
inline SimdBackend SelectBackendDefault() {
#if defined(CONSERVATION_SIMD_DISABLED)
  return SimdBackend::kScalar;
#else
  const util::CpuFeatures& cpu = util::CpuInfo();
#if defined(CONSERVATION_SIMD_FORCE_AVX2)
  return (CONSERVATION_KERNEL_HAVE_AVX2 && cpu.avx2) ? SimdBackend::kAvx2
                                                     : SimdBackend::kScalar;
#else
  if (CONSERVATION_KERNEL_HAVE_AVX2 && cpu.avx2) return SimdBackend::kAvx2;
  return SimdBackend::kScalar;
#endif
#endif
}

// Runtime backend choice: the CONSERVATION_SIMD environment variable (same
// vocabulary as the CMake option, case-insensitive) overrides the build
// default; a backend the build stripped or the CPU lacks falls back to
// scalar (a hardware fact, not a typo). An unknown token is a fatal error:
// silently running scalar would make every benchmark on the machine lie.
inline SimdBackend SelectBackend() {
  const char* env = std::getenv("CONSERVATION_SIMD");
  switch (ParseSimdRequest(env)) {
    case SimdRequest::kScalar:
      return SimdBackend::kScalar;
    case SimdRequest::kAvx2:
      return (CONSERVATION_KERNEL_HAVE_AVX2 && util::CpuInfo().avx2)
                 ? SimdBackend::kAvx2
                 : SimdBackend::kScalar;
    case SimdRequest::kInvalid:
      std::fprintf(stderr,
                   "CONSERVATION_SIMD: unknown value '%s' "
                   "(expected auto, avx2, off, or scalar)\n",
                   env);
      std::exit(2);
    case SimdRequest::kAuto:
      break;
  }
  return SelectBackendDefault();
}

}  // namespace simd_detail

// The backend every ConfidenceKernel constructed afterwards will use.
// Selected once (first caller wins; concurrent first calls agree because
// SelectBackend is deterministic) and published to the `kernel.backend`
// gauge.
inline SimdBackend ActiveSimdBackend() {
  std::atomic<int>& storage = simd_detail::BackendStorage();
  int current = storage.load(std::memory_order_relaxed);
  if (current < 0) {
    const SimdBackend selected = simd_detail::SelectBackend();
    int expected = -1;
    if (storage.compare_exchange_strong(expected,
                                        static_cast<int>(selected),
                                        std::memory_order_relaxed)) {
      simd_detail::PublishBackendGauge(selected);
    }
    current = storage.load(std::memory_order_relaxed);
  }
  return static_cast<SimdBackend>(current);
}

// Test/bench override: forces the backend used by subsequently constructed
// kernels (a backend not compiled in, or not supported by this CPU,
// silently behaves as scalar at dispatch). Not for concurrent use with
// in-flight generation.
inline void SetSimdBackendForTest(SimdBackend backend) {
  simd_detail::BackendStorage().store(static_cast<int>(backend),
                                      std::memory_order_relaxed);
  simd_detail::PublishBackendGauge(backend);
}

// --- Batch argument blocks -------------------------------------------------
// Snapshots of the per-anchor state the scalar kernel hoists
// (interval/kernel.h); built by ConfidenceKernel, consumed by the backends.

// Left-anchored confidence sweep: anchor i fixed, endpoint j varies.
struct LeftAnchorBatchArgs {
  const double* sa;
  const double* sb;
  double sa_prev;
  double sb_prev;
  double h_a;
  double h_b;
  int64_t i;
};

// Left-anchored sparsification-area sweep.
struct SparseBatchArgs {
  const double* sp;
  double sp_prev;
  double h_sp;
  int64_t i;
};

// Right-anchored confidence sweep (NAB): endpoint j fixed, anchor i varies.
struct RightAnchorBatchArgs {
  const double* a;
  const double* s;
  const double* sa;
  const double* sb;
  double sa_end;
  double sb_end;
  int64_t j;
  core::ConfidenceModel model;
};

// --- Sketch screen block forms ---------------------------------------------
// Conservative "could any (anchor, endpoint) pair touching this sketch
// block pass the threshold?" tests over the block quantization maps
// (series/sketch.h), used by the anchor screen (interval/prune.h). Lane m
// evaluates sketch block b0 + m; its bit is 1 when the block MAY contain a
// passing pair — never 0 for a block that does, which is the screen's
// no-false-negative guarantee (DESIGN.md §4f derives the bounds). All
// backends use lanewise-identical IEEE arithmetic, so the mask — and with
// it every prune decision and pruned-aware counter — is the same for every
// CONSERVATION_SIMD setting.

// Left-anchored form (exhaustive / AB / AB-opt): anchors i in [i_lo, i_hi]
// (a single anchor when i_lo == i_hi, with the sa_prev/sb_prev/h ranges
// collapsed to the exact hoisted scalars of BeginAnchor), endpoints j
// grouped by sketch block.
struct SketchScanArgs {
  // Per-endpoint-block bounds on SA and SB (sketch block maps).
  const double* sa_blk_lo;
  const double* sa_blk_hi;
  const double* sb_blk_lo;
  const double* sb_blk_hi;
  // Anchor-side ranges: exact scalars for a single-anchor test (lo == hi)
  // or sketch-derived bounds for a whole anchor group.
  double sa_prev_lo, sa_prev_hi;
  double sb_prev_lo, sb_prev_hi;
  double h_a_lo, h_a_hi;
  double h_b_lo, h_b_hi;
  int64_t i_lo, i_hi;  // anchor index range
  int64_t block;       // ticks per sketch block
  int64_t n;           // endpoint ceiling (j <= n)
  double threshold;    // acceptance constant t (interval/prune.h)
  bool hold;           // hold: pass is conf >= t; fail: conf <= t
};

// --- Portable scalar backend ----------------------------------------------
// The reference semantics: expression-for-expression the scalar kernel
// (and therefore core::ConfidenceEvaluator). Every vector backend must
// match these bytes.

inline void SparseAreaBatchScalar(const SparseBatchArgs& args, int64_t j0,
                                  int64_t j1, double* out) {
  const double* __restrict sp = args.sp;
  for (int64_t j = j0; j <= j1; ++j) {
    const double raw = (sp[j] - args.sp_prev) -
                       static_cast<double>(j - args.i + 1) * args.h_sp;
    out[j - j0] = raw < 0.0 ? 0.0 : raw;
  }
}

inline void ConfidenceBatchScalar(const LeftAnchorBatchArgs& args, int64_t j0,
                                  int64_t j1, double* out_conf,
                                  uint8_t* out_valid) {
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t j = j0; j <= j1; ++j) {
    const int64_t k = j - j0;
    const double len = static_cast<double>(j - args.i + 1);
    const double den_raw = (sb[j] - args.sb_prev) - len * args.h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (sa[j] - args.sa_prev) - len * args.h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

inline void ConfidenceIndexBatchScalar(const LeftAnchorBatchArgs& args,
                                       const int64_t* js, int64_t count,
                                       double* out_conf, uint8_t* out_valid) {
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t k = 0; k < count; ++k) {
    const int64_t j = js[k];
    const double len = static_cast<double>(j - args.i + 1);
    const double den_raw = (sb[j] - args.sb_prev) - len * args.h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (sa[j] - args.sa_prev) - len * args.h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

inline void ConfidenceFromBatchScalar(const RightAnchorBatchArgs& args,
                                      const int64_t* is, int64_t count,
                                      double* out_conf, uint8_t* out_valid) {
  const double* __restrict a = args.a;
  const double* __restrict s = args.s;
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t k = 0; k < count; ++k) {
    const int64_t i = is[k];
    const double prev = a[i - 1];
    const double gap = s[i];
    const double h_a =
        args.model == core::ConfidenceModel::kCredit ? prev - gap : prev;
    const double h_b =
        args.model == core::ConfidenceModel::kDebit ? prev + gap : prev;
    const double len = static_cast<double>(args.j - i + 1);
    const double den_raw = (args.sb_end - sb[i - 1]) - len * h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (args.sa_end - sa[i - 1]) - len * h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

// Left-anchored sketch screen: bit m of the result is 1 when endpoint block
// b0 + m may hold a passing (i, j) pair for the anchor range in `args`.
// `count` <= 64. The bound construction: den <= den_ub because
// SB[j] <= sb_blk_hi, SB[i-1] >= sb_prev_lo, and len * h_b >= hb_min_term
// (the sign-aware min product over [len_min, len_max] x [h_b_lo, h_b_hi]);
// mirrored for den_lb / num_ub / num_lb. Each bound is the same single
// rounding shape as the exact kernel expression it brackets, so per-op
// round-to-nearest monotonicity keeps the bracketing bitwise sound.
inline uint64_t SketchMaybeMaskScalar(const SketchScanArgs& args, int64_t b0,
                                      int64_t count) {
  const double block = static_cast<double>(args.block);
  const double n = static_cast<double>(args.n);
  const double i_lo = static_cast<double>(args.i_lo);
  const double i_hi = static_cast<double>(args.i_hi);
  const double t = args.threshold;
  uint64_t maybe = 0;
  for (int64_t m = 0; m < count; ++m) {
    const int64_t b = b0 + m;
    const double j_lo = static_cast<double>(b) * block;
    const double j_hi = std::min(n, j_lo + (block - 1.0));
    // Interval length range over the covered (i, j) pairs, clamped to >= 1
    // so products with infinite h bounds stay +/-inf rather than NaN.
    const double len_min = std::max(1.0, (j_lo - i_hi) + 1.0);
    const double len_max = std::max(len_min, (j_hi - i_lo) + 1.0);
    const double hb_min_term =
        args.h_b_lo >= 0.0 ? len_min * args.h_b_lo : len_max * args.h_b_lo;
    const double den_ub = (args.sb_blk_hi[b] - args.sb_prev_lo) - hb_min_term;
    bool lane;
    if (args.hold) {
      const double hb_max_term =
          args.h_b_hi >= 0.0 ? len_max * args.h_b_hi : len_min * args.h_b_hi;
      const double ha_min_term =
          args.h_a_lo >= 0.0 ? len_min * args.h_a_lo : len_max * args.h_a_lo;
      const double den_lb_raw =
          (args.sb_blk_lo[b] - args.sb_prev_hi) - hb_max_term;
      const double den_lb = den_lb_raw < 0.0 ? 0.0 : den_lb_raw;
      const double num_ub_raw =
          (args.sa_blk_hi[b] - args.sa_prev_lo) - ha_min_term;
      const double num_ub = num_ub_raw < 0.0 ? 0.0 : num_ub_raw;
      // conf <= num_ub / den_lb when den_lb > 0; when den could be 0 the
      // pair is only a candidate if it can be valid (den_ub > 0) and either
      // the numerator can be positive or the threshold accepts conf == 0.
      lane = den_ub > 0.0 && (den_lb > 0.0 ? num_ub / den_lb >= t
                                           : (num_ub > 0.0 || t <= 0.0));
    } else {
      const double ha_max_term =
          args.h_a_hi >= 0.0 ? len_max * args.h_a_hi : len_min * args.h_a_hi;
      const double num_lb_raw =
          (args.sa_blk_lo[b] - args.sa_prev_hi) - ha_max_term;
      const double num_lb = num_lb_raw < 0.0 ? 0.0 : num_lb_raw;
      lane = den_ub > 0.0 && num_lb / den_ub <= t;
    }
    maybe |= static_cast<uint64_t>(lane) << m;
  }
  return maybe;
}

// --- AVX2 backend ----------------------------------------------------------

#if CONSERVATION_KERNEL_HAVE_AVX2

namespace avx2 {

// `raw < 0.0 ? 0.0 : raw`, lanewise, with the scalar ternary's exact
// semantics: -0.0 and NaN pass through (an ordered < compare is false for
// both), which _mm256_max_pd would not guarantee for -0.0.
__attribute__((target("avx2"))) inline __m256d ClampZero(__m256d raw) {
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_blendv_pd(raw, zero,
                          _mm256_cmp_pd(raw, zero, _CMP_LT_OQ));
}

// Exact int64 -> double for 0 <= v < 2^52: OR the value into the mantissa
// of 2^52 and subtract 2^52 back out (AVX2 has no direct epi64 -> pd
// conversion; this classic trick is bit-exact in the supported range).
__attribute__((target("avx2"))) inline __m256d SmallInt64ToDouble(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, magic)),
                       _mm256_set1_pd(4503599627370496.0));  // 2^52
}

// Four scalar loads assembled into one vector. Deliberately not
// _mm256_i64gather_pd: hardware gathers are microcoded on most cores and
// lose to plain loads when the indices already sit in memory. `offset` is
// applied to every index (for the idx-1 prefix reads).
__attribute__((target("avx2"))) inline __m256d GatherLanes(
    const double* base, const int64_t* idx, int64_t offset = 0) {
  return _mm256_setr_pd(base[idx[0] + offset], base[idx[1] + offset],
                        base[idx[2] + offset], base[idx[3] + offset]);
}

__attribute__((target("avx2"))) inline void StoreValid(uint8_t* out,
                                                       __m256d mask) {
  const int bits = _mm256_movemask_pd(mask);
  out[0] = static_cast<uint8_t>(bits & 1);
  out[1] = static_cast<uint8_t>((bits >> 1) & 1);
  out[2] = static_cast<uint8_t>((bits >> 2) & 1);
  out[3] = static_cast<uint8_t>((bits >> 3) & 1);
}

// Shared tail of every confidence form: clamp, validity mask, guarded
// divide (invalid lanes are masked to exactly 0.0 so output arrays are
// deterministic across backends).
__attribute__((target("avx2"))) inline void EmitConfidence(
    __m256d den_raw, __m256d num_raw, double* out_conf, uint8_t* out_valid) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d den = ClampZero(den_raw);
  const __m256d num = ClampZero(num_raw);
  const __m256d valid = _mm256_cmp_pd(den, zero, _CMP_GT_OQ);
  const __m256d conf = _mm256_and_pd(_mm256_div_pd(num, den), valid);
  _mm256_storeu_pd(out_conf, conf);
  StoreValid(out_valid, valid);
}

__attribute__((target("avx2"))) inline void SparseAreaBatch(
    const SparseBatchArgs& args, int64_t j0, int64_t j1, double* out) {
  const int64_t count = j1 - j0 + 1;
  const __m256d sp_prev = _mm256_set1_pd(args.sp_prev);
  const __m256d h_sp = _mm256_set1_pd(args.h_sp);
  const __m256d four = _mm256_set1_pd(4.0);
  const double len0 = static_cast<double>(j0 - args.i + 1);
  __m256d len = _mm256_setr_pd(len0, len0 + 1.0, len0 + 2.0, len0 + 3.0);
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d sp = _mm256_loadu_pd(args.sp + j0 + k);
    const __m256d raw = _mm256_sub_pd(_mm256_sub_pd(sp, sp_prev),
                                      _mm256_mul_pd(len, h_sp));
    _mm256_storeu_pd(out + k, ClampZero(raw));
    len = _mm256_add_pd(len, four);  // exact: integer-valued doubles
  }
  if (k < count) SparseAreaBatchScalar(args, j0 + k, j1, out + k);
}

__attribute__((target("avx2"))) inline void ConfidenceBatch(
    const LeftAnchorBatchArgs& args, int64_t j0, int64_t j1, double* out_conf,
    uint8_t* out_valid) {
  const int64_t count = j1 - j0 + 1;
  const __m256d sa_prev = _mm256_set1_pd(args.sa_prev);
  const __m256d sb_prev = _mm256_set1_pd(args.sb_prev);
  const __m256d h_a = _mm256_set1_pd(args.h_a);
  const __m256d h_b = _mm256_set1_pd(args.h_b);
  const __m256d four = _mm256_set1_pd(4.0);
  const double len0 = static_cast<double>(j0 - args.i + 1);
  __m256d len = _mm256_setr_pd(len0, len0 + 1.0, len0 + 2.0, len0 + 3.0);
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d sb = _mm256_loadu_pd(args.sb + j0 + k);
    const __m256d sa = _mm256_loadu_pd(args.sa + j0 + k);
    const __m256d den_raw = _mm256_sub_pd(_mm256_sub_pd(sb, sb_prev),
                                          _mm256_mul_pd(len, h_b));
    const __m256d num_raw = _mm256_sub_pd(_mm256_sub_pd(sa, sa_prev),
                                          _mm256_mul_pd(len, h_a));
    EmitConfidence(den_raw, num_raw, out_conf + k, out_valid + k);
    len = _mm256_add_pd(len, four);
  }
  if (k < count) {
    ConfidenceBatchScalar(args, j0 + k, j1, out_conf + k, out_valid + k);
  }
}

__attribute__((target("avx2"))) inline void ConfidenceIndexBatch(
    const LeftAnchorBatchArgs& args, const int64_t* js, int64_t count,
    double* out_conf, uint8_t* out_valid) {
  const __m256d sa_prev = _mm256_set1_pd(args.sa_prev);
  const __m256d sb_prev = _mm256_set1_pd(args.sb_prev);
  const __m256d h_a = _mm256_set1_pd(args.h_a);
  const __m256d h_b = _mm256_set1_pd(args.h_b);
  const __m256i i_minus_1 = _mm256_set1_epi64x(args.i - 1);
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(js + k));
    const __m256d sa = GatherLanes(args.sa, js + k);
    const __m256d sb = GatherLanes(args.sb, js + k);
    const __m256d len = SmallInt64ToDouble(_mm256_sub_epi64(idx, i_minus_1));
    const __m256d den_raw = _mm256_sub_pd(_mm256_sub_pd(sb, sb_prev),
                                          _mm256_mul_pd(len, h_b));
    const __m256d num_raw = _mm256_sub_pd(_mm256_sub_pd(sa, sa_prev),
                                          _mm256_mul_pd(len, h_a));
    EmitConfidence(den_raw, num_raw, out_conf + k, out_valid + k);
  }
  if (k < count) {
    ConfidenceIndexBatchScalar(args, js + k, count - k, out_conf + k,
                               out_valid + k);
  }
}

__attribute__((target("avx2"))) inline void ConfidenceFromBatch(
    const RightAnchorBatchArgs& args, const int64_t* is, int64_t count,
    double* out_conf, uint8_t* out_valid) {
  const __m256d sa_end = _mm256_set1_pd(args.sa_end);
  const __m256d sb_end = _mm256_set1_pd(args.sb_end);
  const __m256i j_plus_1 = _mm256_set1_epi64x(args.j + 1);
  const bool credit = args.model == core::ConfidenceModel::kCredit;
  const bool debit = args.model == core::ConfidenceModel::kDebit;
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(is + k));
    const __m256d prev = GatherLanes(args.a, is + k, -1);
    // The model is uniform across lanes, so the baseline branch runs once
    // per vector — the lanes themselves stay branchless. Balance skips the
    // gap load entirely (the scalar kernel loads but never uses it).
    __m256d h_a = prev;
    __m256d h_b = prev;
    if (credit || debit) {
      const __m256d gap = GatherLanes(args.s, is + k);
      if (credit) h_a = _mm256_sub_pd(prev, gap);
      if (debit) h_b = _mm256_add_pd(prev, gap);
    }
    const __m256d sa_im1 = GatherLanes(args.sa, is + k, -1);
    const __m256d sb_im1 = GatherLanes(args.sb, is + k, -1);
    const __m256d len = SmallInt64ToDouble(_mm256_sub_epi64(j_plus_1, idx));
    const __m256d den_raw = _mm256_sub_pd(_mm256_sub_pd(sb_end, sb_im1),
                                          _mm256_mul_pd(len, h_b));
    const __m256d num_raw = _mm256_sub_pd(_mm256_sub_pd(sa_end, sa_im1),
                                          _mm256_mul_pd(len, h_a));
    EmitConfidence(den_raw, num_raw, out_conf + k, out_valid + k);
  }
  if (k < count) {
    ConfidenceFromBatchScalar(args, is + k, count - k, out_conf + k,
                              out_valid + k);
  }
}

// Vector mirror of SketchMaybeMaskScalar. The anchor-side h bounds are
// per-call scalars, so the sign-aware len selection is a C++ ternary
// choosing between the len_min and len_max vectors; divisions run unmasked
// and any junk lane (0/0 -> NaN) is neutralized by ordered compares exactly
// as the scalar short-circuit would neutralize it.
__attribute__((target("avx2"))) inline uint64_t SketchMaybeMask(
    const SketchScanArgs& args, int64_t b0, int64_t count) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d all_true = _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ);
  const __m256d vt = _mm256_set1_pd(args.threshold);
  const double block = static_cast<double>(args.block);
  const __m256d vblock = _mm256_set1_pd(block);
  const __m256d vblock_m1 = _mm256_set1_pd(block - 1.0);
  const __m256d vn = _mm256_set1_pd(static_cast<double>(args.n));
  const __m256d vi_lo = _mm256_set1_pd(static_cast<double>(args.i_lo));
  const __m256d vi_hi = _mm256_set1_pd(static_cast<double>(args.i_hi));
  const __m256d sb_prev_lo = _mm256_set1_pd(args.sb_prev_lo);
  const __m256d sb_prev_hi = _mm256_set1_pd(args.sb_prev_hi);
  const __m256d sa_prev_lo = _mm256_set1_pd(args.sa_prev_lo);
  const __m256d sa_prev_hi = _mm256_set1_pd(args.sa_prev_hi);
  const __m256d vh_b_lo = _mm256_set1_pd(args.h_b_lo);
  const __m256d vh_b_hi = _mm256_set1_pd(args.h_b_hi);
  const __m256d vh_a_lo = _mm256_set1_pd(args.h_a_lo);
  const __m256d vh_a_hi = _mm256_set1_pd(args.h_a_hi);
  const double b0d = static_cast<double>(b0);
  __m256d vb = _mm256_setr_pd(b0d, b0d + 1.0, b0d + 2.0, b0d + 3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  uint64_t maybe = 0;
  int64_t m = 0;
  for (; m + 4 <= count; m += 4, vb = _mm256_add_pd(vb, four)) {
    const __m256d j_lo = _mm256_mul_pd(vb, vblock);
    const __m256d j_hi = _mm256_min_pd(vn, _mm256_add_pd(j_lo, vblock_m1));
    const __m256d len_min = _mm256_max_pd(
        one, _mm256_add_pd(_mm256_sub_pd(j_lo, vi_hi), one));
    const __m256d len_max = _mm256_max_pd(
        len_min, _mm256_add_pd(_mm256_sub_pd(j_hi, vi_lo), one));
    const __m256d hb_min_term =
        _mm256_mul_pd(args.h_b_lo >= 0.0 ? len_min : len_max, vh_b_lo);
    const __m256d sb_hi_v = _mm256_loadu_pd(args.sb_blk_hi + b0 + m);
    const __m256d den_ub = _mm256_sub_pd(_mm256_sub_pd(sb_hi_v, sb_prev_lo),
                                         hb_min_term);
    const __m256d den_ub_pos = _mm256_cmp_pd(den_ub, zero, _CMP_GT_OQ);
    __m256d lane;
    if (args.hold) {
      const __m256d hb_max_term =
          _mm256_mul_pd(args.h_b_hi >= 0.0 ? len_max : len_min, vh_b_hi);
      const __m256d ha_min_term =
          _mm256_mul_pd(args.h_a_lo >= 0.0 ? len_min : len_max, vh_a_lo);
      const __m256d sb_lo_v = _mm256_loadu_pd(args.sb_blk_lo + b0 + m);
      const __m256d den_lb = ClampZero(_mm256_sub_pd(
          _mm256_sub_pd(sb_lo_v, sb_prev_hi), hb_max_term));
      const __m256d sa_hi_v = _mm256_loadu_pd(args.sa_blk_hi + b0 + m);
      const __m256d num_ub = ClampZero(_mm256_sub_pd(
          _mm256_sub_pd(sa_hi_v, sa_prev_lo), ha_min_term));
      const __m256d den_lb_pos = _mm256_cmp_pd(den_lb, zero, _CMP_GT_OQ);
      const __m256d div_ok = _mm256_cmp_pd(_mm256_div_pd(num_ub, den_lb), vt,
                                           _CMP_GE_OQ);
      const __m256d zero_den_ok =
          args.threshold <= 0.0 ? all_true
                                : _mm256_cmp_pd(num_ub, zero, _CMP_GT_OQ);
      const __m256d cond = _mm256_or_pd(_mm256_and_pd(den_lb_pos, div_ok),
                                        _mm256_andnot_pd(den_lb_pos,
                                                         zero_den_ok));
      lane = _mm256_and_pd(den_ub_pos, cond);
    } else {
      const __m256d ha_max_term =
          _mm256_mul_pd(args.h_a_hi >= 0.0 ? len_max : len_min, vh_a_hi);
      const __m256d sa_lo_v = _mm256_loadu_pd(args.sa_blk_lo + b0 + m);
      const __m256d num_lb = ClampZero(_mm256_sub_pd(
          _mm256_sub_pd(sa_lo_v, sa_prev_hi), ha_max_term));
      const __m256d div_ok = _mm256_cmp_pd(_mm256_div_pd(num_lb, den_ub), vt,
                                           _CMP_LE_OQ);
      lane = _mm256_and_pd(den_ub_pos, div_ok);
    }
    maybe |= static_cast<uint64_t>(_mm256_movemask_pd(lane)) << m;
  }
  if (m < count) {
    maybe |= SketchMaybeMaskScalar(args, b0 + m, count - m) << m;
  }
  return maybe;
}

}  // namespace avx2

#endif  // CONSERVATION_KERNEL_HAVE_AVX2

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_KERNEL_SIMD_H_
