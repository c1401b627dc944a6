// Checkpoint/resume differentials for the resumable walk states
// (interval/walk.h). The states are plain copyable values, so a checkpoint
// is a struct copy (plus, for AB, the chunk's shared pointer vector) and a
// resume is continuing the copy. Every test interrupts a walk at an
// adversarial boundary — each level of an AB sweep, each reverse block of a
// NAB sweep, chunk edges via chunks_per_thread — and asserts the resumed
// walk reproduces the uninterrupted one bitwise: same candidates, same
// confidences, same counters.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/confidence.h"
#include "datagen/job_log.h"
#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/kernel_simd.h"
#include "interval/non_area_based.h"
#include "interval/walk.h"
#include "series/cumulative.h"

namespace conservation {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using interval::Candidate;
using interval::GeneratorOptions;
namespace ii = interval::internal;

const series::CumulativeSeries& JobSeries(int64_t n) {
  static auto* cache = new std::vector<
      std::pair<int64_t, series::CumulativeSeries*>>();
  for (const auto& [key, value] : *cache) {
    if (key == n) return *value;
  }
  datagen::JobLogParams params;
  params.num_ticks = n;
  auto* built =
      new series::CumulativeSeries(datagen::GenerateJobLog(params).counts);
  cache->emplace_back(n, built);
  return *built;
}

// --- AB-opt chunking ---------------------------------------------------------

// Full-generator differential: AB-opt candidates and counters are
// bit-identical across thread counts and chunk granularities (chunk edges
// move where each worker's anchor loop starts and stops).
TEST(AbOptWalkResume, WidthThreadChunkDifferential) {
  const int64_t n = 3000;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  const auto generator =
      interval::MakeGenerator(interval::AlgorithmKind::kAreaBasedOpt);

  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  interval::GeneratorStats ref_stats;
  const std::vector<Candidate> reference =
      generator->GenerateCandidates(eval, options, &ref_stats);
  ASSERT_GT(ref_stats.intervals_tested, 0u);

  for (const int threads : {1, 3}) {
    for (const int chunks_per_thread : {1, 7}) {
      GeneratorOptions run = options;
      run.num_threads = threads;
      run.chunks_per_thread = chunks_per_thread;
      interval::GeneratorStats stats;
      const std::vector<Candidate> got =
          generator->GenerateCandidates(eval, run, &stats);
      ASSERT_EQ(got.size(), reference.size())
          << "threads " << threads << " chunks " << chunks_per_thread;
      for (size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].interval.begin, reference[k].interval.begin);
        ASSERT_EQ(got[k].interval.end, reference[k].interval.end);
        // Bitwise: every chunking must reproduce the arithmetic exactly.
        ASSERT_EQ(got[k].confidence, reference[k].confidence)
            << "threads " << threads << " row " << k;
      }
      ASSERT_EQ(stats.intervals_tested, ref_stats.intervals_tested)
          << "threads " << threads << " chunks " << chunks_per_thread;
      ASSERT_EQ(stats.endpoint_steps, ref_stats.endpoint_steps)
          << "threads " << threads << " chunks " << chunks_per_thread;
    }
  }
}

// --- AB walk state ----------------------------------------------------------

// Uninterrupted vs checkpoint-at-every-level: the AB state plus the chunk's
// shared pointer vector is the full checkpoint; restoring both and resuming
// must reproduce best_j/best_conf and the counters.
TEST(AbWalkResume, EveryLevelBoundary) {
  const int64_t n = 600;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  const double delta = interval::ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;
  const double max_area = eval.series().SumB(1, n);
  std::vector<double> thresholds;
  double t_value = delta;
  int64_t num_levels =
      max_area > delta
          ? static_cast<int64_t>(
                std::ceil(std::log(max_area / delta) / std::log(growth))) + 1
          : 0;
  for (int64_t l = 0; l <= num_levels; ++l) {
    thresholds.push_back(t_value);
    t_value *= growth;
  }
  ii::ConfidenceKernel kernel(eval, options.type);
  const std::vector<int64_t> no_zero_prefix;

  ii::AbWalkContext ctx;
  ctx.n = n;
  ctx.delta = delta;
  ctx.growth = growth;
  ctx.thresholds = &thresholds;
  ctx.options = &options;
  ctx.zero_prefix_lengths = &no_zero_prefix;

  for (const int64_t anchor : {1L, 57L, 300L, 600L}) {
    // Uninterrupted run, with its own pointer vector (fresh chunk).
    std::vector<int64_t> ref_pointer(thresholds.size(), 0);
    ctx.pointer = &ref_pointer;
    ii::AbWalkScratch scratch;
    ii::WalkStepCounters ref_counters;
    ii::AbWalkState reference;
    kernel.BeginAnchor(anchor);
    reference.Begin(anchor, kernel, ctx);
    int total_steps = 0;
    while (!reference.done()) {
      reference.Step(kernel, ctx, &scratch, &ref_counters);
      ++total_steps;
    }
    ASSERT_GT(total_steps, 0);

    for (int cut = 0; cut <= total_steps; ++cut) {
      std::vector<int64_t> pointer(thresholds.size(), 0);
      ctx.pointer = &pointer;
      ii::WalkStepCounters counters;
      ii::AbWalkState walk;
      kernel.BeginAnchor(anchor);
      walk.Begin(anchor, kernel, ctx);
      for (int s = 0; s < cut && !walk.done(); ++s) {
        walk.Step(kernel, ctx, &scratch, &counters);
      }
      // Checkpoint: the state, the shared pointer vector, the counters.
      ii::AbWalkState resumed = walk;
      std::vector<int64_t> pointer_copy = pointer;
      ctx.pointer = &pointer_copy;
      ii::WalkStepCounters resumed_counters = counters;
      ii::AbWalkScratch fresh_scratch;  // scratch carries no walk state
      while (!resumed.done()) {
        resumed.Step(kernel, ctx, &fresh_scratch, &resumed_counters);
      }
      ASSERT_EQ(resumed.best_j(), reference.best_j())
          << "anchor " << anchor << " cut " << cut;
      ASSERT_EQ(resumed.best_conf(), reference.best_conf());
      ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
      ASSERT_EQ(resumed_counters.steps, ref_counters.steps);
      ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
    }
  }
}

// --- NAB walk state ---------------------------------------------------------

// Uninterrupted vs checkpoint-at-every-reverse-block (largest-first early
// exit splits the sweep into resumable blocks; the plain sweep is a single
// step and checkpoints trivially before/after).
TEST(NabWalkResume, EveryBlockBoundary) {
  const int64_t n = 600;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.9;
  options.epsilon = 0.01;
  const std::vector<int64_t> lengths =
      interval::NonAreaBasedGenerator::MakeLengthSchedule(
          interval::NonAreaBasedGenerator::LengthSchedule::kGeometric,
          options.epsilon, n);
  ii::ConfidenceKernel kernel(eval, options.type);

  for (const bool early_exit : {false, true}) {
    options.largest_first_early_exit = early_exit;
    ii::NabWalkContext ctx{&lengths, &options};
    for (const int64_t j : {1L, 64L, 300L, 600L}) {
      size_t first_covering = lengths.size() - 1;
      while (first_covering > 0 && lengths[first_covering - 1] >= j) {
        --first_covering;
      }
      const size_t applicable = first_covering + 1;

      ii::NabWalkScratch scratch;
      ii::WalkStepCounters ref_counters;
      ii::NabWalkState reference;
      kernel.BeginRightAnchor(j);
      reference.Begin(j, applicable);
      int total_steps = 0;
      while (!reference.finished) {
        reference.Step(kernel, ctx, &scratch, &ref_counters);
        ++total_steps;
      }

      for (int cut = 0; cut <= total_steps; ++cut) {
        ii::WalkStepCounters counters;
        ii::NabWalkState walk;
        kernel.BeginRightAnchor(j);
        walk.Begin(j, applicable);
        for (int s = 0; s < cut && !walk.finished; ++s) {
          walk.Step(kernel, ctx, &scratch, &counters);
        }
        ii::NabWalkState resumed = walk;  // checkpoint: plain value copy
        ii::WalkStepCounters resumed_counters = counters;
        ii::NabWalkScratch fresh_scratch;
        while (!resumed.finished) {
          resumed.Step(kernel, ctx, &fresh_scratch, &resumed_counters);
        }
        ASSERT_EQ(resumed.best_i, reference.best_i)
            << "early_exit " << early_exit << " j " << j << " cut " << cut;
        ASSERT_EQ(resumed.best_conf, reference.best_conf);
        ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
        ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
      }
    }
  }
}

// --- Cross-batch resume (checkpoint at an append boundary) ------------------

// A walk checkpointed while the series had n1 ticks must resume bitwise
// after CumulativeSeries::Append grows the arrays under it — the scenario
// the incremental engine (incr/incremental.h) relies on. The walk's scope
// stays the prefix (ctx.n = n1, fixed at Begin); Append extends every
// derived array with bitwise-identical prefix values but reallocates, so
// the resume must run against a REBUILT kernel (kernel.h caches raw
// pointers). Checkpoints at every level boundary, including 0 (the whole
// walk runs post-append).
TEST(AbWalkResume, CrossBatchAppendBoundary) {
  const int64_t n1 = 400;
  const int64_t n2 = 700;
  datagen::JobLogParams params;
  params.num_ticks = n2;
  const series::CountSequence counts = datagen::GenerateJobLog(params).counts;

  // Reference walks over the prefix-only series (same data the growable
  // series starts from, not a regenerated shorter trace).
  const series::CumulativeSeries prefix_series(counts.Prefix(n1));
  const ConfidenceEvaluator prefix_eval(&prefix_series,
                                        ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  const double delta = interval::ResolveDelta(prefix_eval.series(), options);
  const double growth = 1.0 + options.epsilon;
  const double max_area = prefix_eval.series().SumB(1, n1);
  std::vector<double> thresholds;
  const int64_t num_levels =
      max_area > delta
          ? static_cast<int64_t>(
                std::ceil(std::log(max_area / delta) / std::log(growth))) + 1
          : 0;
  double t_value = delta;
  for (int64_t l = 0; l <= num_levels; ++l) {
    thresholds.push_back(t_value);
    t_value *= growth;
  }
  const std::vector<int64_t> no_zero_prefix;
  ii::AbWalkContext ctx;
  ctx.n = n1;
  ctx.delta = delta;
  ctx.growth = growth;
  ctx.thresholds = &thresholds;
  ctx.options = &options;
  ctx.zero_prefix_lengths = &no_zero_prefix;
  const std::vector<double>& tail_a = counts.outbound();
  const std::vector<double>& tail_b = counts.inbound();

  for (const int64_t anchor : {1L, 137L, 399L, 400L}) {
    std::vector<int64_t> ref_pointer(thresholds.size(), 0);
    ctx.pointer = &ref_pointer;
    ii::AbWalkScratch scratch;
    ii::WalkStepCounters ref_counters;
    ii::AbWalkState reference;
    int total_steps = 0;
    {
      ii::ConfidenceKernel kernel(prefix_eval, options.type);
      kernel.BeginAnchor(anchor);
      reference.Begin(anchor, kernel, ctx);
      while (!reference.done()) {
        reference.Step(kernel, ctx, &scratch, &ref_counters);
        ++total_steps;
      }
    }
    ASSERT_GT(total_steps, 0);

    for (int cut = 0; cut <= total_steps; ++cut) {
      // Fresh growable series per checkpoint: walk `cut` steps pre-append.
      series::CumulativeSeries growing(counts.Prefix(n1));
      const ConfidenceEvaluator eval(&growing, ConfidenceModel::kBalance);
      std::vector<int64_t> pointer(thresholds.size(), 0);
      ctx.pointer = &pointer;
      ii::WalkStepCounters counters;
      ii::AbWalkState walk;
      {
        ii::ConfidenceKernel kernel(eval, options.type);
        kernel.BeginAnchor(anchor);
        walk.Begin(anchor, kernel, ctx);
        for (int s = 0; s < cut && !walk.done(); ++s) {
          walk.Step(kernel, ctx, &scratch, &counters);
        }
      }  // pre-append kernel dies with the append below

      growing.Append(tail_a.data() + n1, tail_b.data() + n1, n2 - n1);
      ASSERT_EQ(growing.n(), n2);

      ii::ConfidenceKernel resumed_kernel(eval, options.type);
      resumed_kernel.BeginAnchor(anchor);
      ii::AbWalkState resumed = walk;  // checkpoint crossing the batch
      std::vector<int64_t> pointer_copy = pointer;
      ctx.pointer = &pointer_copy;
      ii::WalkStepCounters resumed_counters = counters;
      ii::AbWalkScratch fresh_scratch;
      while (!resumed.done()) {
        resumed.Step(resumed_kernel, ctx, &fresh_scratch, &resumed_counters);
      }
      ASSERT_EQ(resumed.best_j(), reference.best_j())
          << "anchor " << anchor << " cut " << cut;
      ASSERT_EQ(resumed.best_conf(), reference.best_conf());
      ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
      ASSERT_EQ(resumed_counters.steps, ref_counters.steps);
      ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
    }
  }
}

// The NAB counterpart: a right anchor j <= n1 checkpointed at every reverse
// block before the append resumes bitwise against the rebuilt kernel.
TEST(NabWalkResume, CrossBatchAppendBoundary) {
  const int64_t n1 = 400;
  const int64_t n2 = 700;
  datagen::JobLogParams params;
  params.num_ticks = n2;
  const series::CountSequence counts = datagen::GenerateJobLog(params).counts;
  const series::CumulativeSeries prefix_series(counts.Prefix(n1));
  const ConfidenceEvaluator prefix_eval(&prefix_series,
                                        ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.9;
  options.epsilon = 0.01;
  options.largest_first_early_exit = true;
  const std::vector<int64_t> lengths =
      interval::NonAreaBasedGenerator::MakeLengthSchedule(
          interval::NonAreaBasedGenerator::LengthSchedule::kGeometric,
          options.epsilon, n1);
  const ii::NabWalkContext ctx{&lengths, &options};
  const std::vector<double>& tail_a = counts.outbound();
  const std::vector<double>& tail_b = counts.inbound();

  for (const int64_t j : {1L, 64L, 399L, 400L}) {
    size_t first_covering = lengths.size() - 1;
    while (first_covering > 0 && lengths[first_covering - 1] >= j) {
      --first_covering;
    }
    const size_t applicable = first_covering + 1;

    ii::NabWalkScratch scratch;
    ii::WalkStepCounters ref_counters;
    ii::NabWalkState reference;
    int total_steps = 0;
    {
      ii::ConfidenceKernel kernel(prefix_eval, options.type);
      kernel.BeginRightAnchor(j);
      reference.Begin(j, applicable);
      while (!reference.finished) {
        reference.Step(kernel, ctx, &scratch, &ref_counters);
        ++total_steps;
      }
    }

    for (int cut = 0; cut <= total_steps; ++cut) {
      series::CumulativeSeries growing(counts.Prefix(n1));
      const ConfidenceEvaluator eval(&growing, ConfidenceModel::kBalance);
      ii::WalkStepCounters counters;
      ii::NabWalkState walk;
      {
        ii::ConfidenceKernel kernel(eval, options.type);
        kernel.BeginRightAnchor(j);
        walk.Begin(j, applicable);
        for (int s = 0; s < cut && !walk.finished; ++s) {
          walk.Step(kernel, ctx, &scratch, &counters);
        }
      }

      growing.Append(tail_a.data() + n1, tail_b.data() + n1, n2 - n1);
      ASSERT_EQ(growing.n(), n2);

      ii::ConfidenceKernel resumed_kernel(eval, options.type);
      resumed_kernel.BeginRightAnchor(j);
      ii::NabWalkState resumed = walk;
      ii::WalkStepCounters resumed_counters = counters;
      ii::NabWalkScratch fresh_scratch;
      while (!resumed.finished) {
        resumed.Step(resumed_kernel, ctx, &fresh_scratch, &resumed_counters);
      }
      ASSERT_EQ(resumed.best_i, reference.best_i) << "j " << j << " cut "
                                                  << cut;
      ASSERT_EQ(resumed.best_conf, reference.best_conf);
      ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
      ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
    }
  }
}

// --- Fields kept without effect ---------------------------------------------

// GeneratorOptions::walk_width and ::sketch_nab_right are kept only so that
// existing callers still compile; setting them must change nothing: same
// candidates bitwise, same counters, and the kept walk_lanes /
// walk_lane_slots stats stay zero.
TEST(KeptOptions, WalkWidthAndSketchNabRightHaveNoEffect) {
  const int64_t n = 3000;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  for (const auto kind : {interval::AlgorithmKind::kAreaBased,
                          interval::AlgorithmKind::kAreaBasedOpt,
                          interval::AlgorithmKind::kNonAreaBased,
                          interval::AlgorithmKind::kNonAreaBasedOpt}) {
    const auto generator = interval::MakeGenerator(kind);
    GeneratorOptions options;
    options.type = TableauType::kHold;
    options.c_hat = 0.99;
    options.epsilon = 0.01;
    interval::GeneratorStats ref_stats;
    const std::vector<Candidate> reference =
        generator->GenerateCandidates(eval, options, &ref_stats);
    ASSERT_GT(ref_stats.intervals_tested, 0u);

    for (const int threads : {1, 3}) {
      GeneratorOptions run = options;
      run.num_threads = threads;
      run.walk_width = 7;
      run.sketch_nab_right = true;
      interval::GeneratorStats stats;
      const std::vector<Candidate> got =
          generator->GenerateCandidates(eval, run, &stats);
      ASSERT_EQ(got.size(), reference.size())
          << "kind " << static_cast<int>(kind) << " threads " << threads;
      for (size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].interval.begin, reference[k].interval.begin);
        ASSERT_EQ(got[k].interval.end, reference[k].interval.end);
        ASSERT_EQ(got[k].confidence, reference[k].confidence);
      }
      EXPECT_EQ(stats.intervals_tested, ref_stats.intervals_tested);
      EXPECT_EQ(stats.anchors_pruned, ref_stats.anchors_pruned);
      EXPECT_EQ(stats.walk_lanes, 0u);
      EXPECT_EQ(stats.walk_lane_slots, 0u);
    }
    EXPECT_EQ(ref_stats.walk_lanes, 0u);
    EXPECT_EQ(ref_stats.walk_lane_slots, 0u);
  }
}

// --- CONSERVATION_SIMD parsing ----------------------------------------------

TEST(SimdRequestParse, CaseInsensitiveAndStrict) {
  using ii::ParseSimdRequest;
  using ii::SimdRequest;
  EXPECT_EQ(ParseSimdRequest(nullptr), SimdRequest::kAuto);
  EXPECT_EQ(ParseSimdRequest(""), SimdRequest::kAuto);
  EXPECT_EQ(ParseSimdRequest("auto"), SimdRequest::kAuto);
  EXPECT_EQ(ParseSimdRequest("AUTO"), SimdRequest::kAuto);
  EXPECT_EQ(ParseSimdRequest("off"), SimdRequest::kScalar);
  EXPECT_EQ(ParseSimdRequest("OFF"), SimdRequest::kScalar);
  EXPECT_EQ(ParseSimdRequest("Scalar"), SimdRequest::kScalar);
  EXPECT_EQ(ParseSimdRequest("AVX2"), SimdRequest::kAvx2);
  EXPECT_EQ(ParseSimdRequest("Neon"), SimdRequest::kInvalid);
  EXPECT_EQ(ParseSimdRequest("sse9"), SimdRequest::kInvalid);
  EXPECT_EQ(ParseSimdRequest("avx512"), SimdRequest::kInvalid);
  EXPECT_EQ(ParseSimdRequest("a-very-long-token"), SimdRequest::kInvalid);
}

}  // namespace
}  // namespace conservation
