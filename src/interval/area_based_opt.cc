#include "interval/area_based_opt.h"

#include <algorithm>
#include <utility>

#include "interval/area_based.h"
#include "interval/kernel.h"
#include "interval/prune.h"
#include "interval/shard.h"

namespace conservation::interval {

namespace {

struct EvalBuffers {
  std::vector<double> conf;
  std::vector<uint8_t> valid;
};

// Confidence-evaluates a completed breakpoint list for the kernel's current
// anchor and returns the longest qualifying endpoint (0 if none) with its
// confidence.
std::pair<int64_t, double> EvaluateBreakpoints(
    const internal::ConfidenceKernel& kernel,
    const std::vector<int64_t>& breakpoints, const GeneratorOptions& options,
    EvalBuffers* buf, uint64_t* tested, uint64_t* batches) {
  int64_t best_j = 0;
  double best_conf = 0.0;
  const int64_t count = static_cast<int64_t>(breakpoints.size());
  buf->conf.resize(breakpoints.size());
  buf->valid.resize(breakpoints.size());
  if (options.largest_first_early_exit) {
    // Longest-first: the first qualifying breakpoint subsumes the rest.
    // Probe in reverse blocks; lanes past the first qualifying one are
    // speculative and uncounted, so `tested` matches the scalar scan
    // (probes up to and including the winner).
    constexpr int64_t kProbeBlock = 16;
    bool found = false;
    for (int64_t end = count; end > 0 && !found;) {
      const int64_t begin = std::max<int64_t>(0, end - kProbeBlock);
      kernel.ConfidenceIndexBatch(breakpoints.data() + begin, end - begin,
                                  buf->conf.data(), buf->valid.data());
      ++*batches;
      for (int64_t k = end; k-- > begin;) {
        ++*tested;
        if (buf->valid[k - begin] &&
            PassesRelaxedThreshold(buf->conf[k - begin], options)) {
          best_j = breakpoints[static_cast<size_t>(k)];
          best_conf = buf->conf[k - begin];
          found = true;
          break;
        }
      }
      end = begin;
    }
  } else {
    kernel.ConfidenceIndexBatch(breakpoints.data(), count, buf->conf.data(),
                                buf->valid.data());
    ++*batches;
    *tested += static_cast<uint64_t>(count);
    for (int64_t k = 0; k < count; ++k) {
      const int64_t j = breakpoints[static_cast<size_t>(k)];
      if (buf->valid[k] && PassesRelaxedThreshold(buf->conf[k], options) &&
          j > best_j) {
        best_j = j;
        best_conf = buf->conf[k];
      }
    }
  }
  return {best_j, best_conf};
}

}  // namespace

std::vector<Candidate> AreaBasedOptGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const core::TableauType type = options.type;
  const double delta = ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;

  // See AreaBasedGenerator: credit-model fail tableaux additionally probe
  // length-geometric endpoints inside the zero-area prefix, where the
  // credit confidence is nonzero and non-monotone.
  const bool credit_fail = type == core::TableauType::kFail &&
                           eval.model() == core::ConfidenceModel::kCredit;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail ? internal::ZeroPrefixLengths(n, growth)
                  : std::vector<int64_t>();

  // Sketch anchor screen (relaxed threshold), shared read-only by every
  // chunk. AB-opt anchors are stateless, so a pruned anchor is simply
  // skipped.
  const internal::ScopedSketchScreen scoped(eval, options, /*relaxed=*/true);
  const internal::SketchScreen* screen = scoped.get();

  // AB-opt carries no cross-anchor state (each anchor's breakpoints come
  // from fresh binary searches), so anchor chunks parallelize directly.
  // Inner sweeps run on the flat-array kernel (interval/kernel.h).
  auto block = [&, n, delta, growth](int64_t i_begin, int64_t i_end,
                                     GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, type);
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    uint64_t tested = 0;
    uint64_t probes = 0;
    uint64_t batches = 0;
    uint64_t pruned = 0;
    uint64_t sketch_blocks = 0;
    EvalBuffers buf;

    std::vector<int64_t> breakpoints;
    for (int64_t i = i_begin; i <= i_end; ++i) {
      if (screen != nullptr && !screen->MayEmit(i, &sketch_blocks)) {
        ++pruned;
        continue;
      }
      kernel.BeginAnchor(i);
      breakpoints.clear();

      if (credit_fail) {
        const int64_t zero_area_end =
            internal::LargestEndpointWithin(kernel, i, n, 0.0, &probes);
        for (const int64_t len : zero_prefix_lengths) {
          const int64_t j = i + len - 1;
          if (j >= zero_area_end) break;  // zero_area_end is a breakpoint
          breakpoints.push_back(j);
        }
        if (zero_area_end >= i) breakpoints.push_back(zero_area_end);
      }

      // Initial area breakpoint: the largest j whose area is within the
      // base unit Delta; if even [i, i] exceeds it, start at i (forced).
      // For fail tableaux this also covers the zero-area (confidence 0)
      // special case, since the zero-area prefix lies below Delta.
      int64_t cur =
          internal::LargestEndpointWithin(kernel, i, n, delta, &probes);
      if (cur < i) cur = i;
      if (breakpoints.empty() || breakpoints.back() < cur) {
        breakpoints.push_back(cur);
      }

      while (cur < n) {
        const double cur_area = kernel.SparseArea(cur);
        const double target = std::max(cur_area, delta) * growth;
        int64_t next = internal::LargestEndpointWithin(kernel, cur + 1, n,
                                                       target, &probes);
        if (next < cur + 1) next = cur + 1;  // forced advance
        breakpoints.push_back(next);
        cur = next;
      }

      const auto [best_j, best_conf] = EvaluateBreakpoints(
          kernel, breakpoints, options, &buf, &tested, &batches);
      if (best_j >= i) {
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }

    chunk_stats->intervals_tested = tested;
    chunk_stats->endpoint_steps = probes;
    chunk_stats->batches = batches;
    chunk_stats->anchors_pruned = pruned;
    chunk_stats->sketch_blocks = sketch_blocks;
    return out;
  };

  auto result = internal::RunSharded(n, options, stats, block);
  if (stats != nullptr) stats->sketch_blocks += scoped.construction_blocks();
  return result;
}

}  // namespace conservation::interval
