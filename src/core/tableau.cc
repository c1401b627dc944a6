#include "core/tableau.h"

#include <utility>

#include "cover/partial_set_cover.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace conservation::core {

util::Status ValidateTableauRequest(const TableauRequest& request) {
  if (request.c_hat < 0.0 || request.c_hat > 1.0) {
    return util::Status::InvalidArgument(
        util::StrFormat("c_hat must be in [0, 1], got %g", request.c_hat));
  }
  if (request.s_hat < 0.0 || request.s_hat > 1.0) {
    return util::Status::InvalidArgument(
        util::StrFormat("s_hat must be in [0, 1], got %g", request.s_hat));
  }
  const bool approximate =
      request.algorithm != interval::AlgorithmKind::kExhaustive;
  if (approximate && request.epsilon <= 0.0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "epsilon must be > 0 for %s",
        interval::AlgorithmKindName(request.algorithm)));
  }
  if (request.num_threads < 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "num_threads must be >= 0 (0 = hardware concurrency), got %d",
        request.num_threads));
  }
  if (request.chunks_per_thread < 1) {
    return util::Status::InvalidArgument(
        util::StrFormat("chunks_per_thread must be >= 1, got %d",
                        request.chunks_per_thread));
  }
  if (request.sketch_block < 8 || request.sketch_block > (int64_t{1} << 20)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "sketch_block must be in [8, 1048576], got %lld",
        static_cast<long long>(request.sketch_block)));
  }
  const bool non_area_based =
      request.algorithm == interval::AlgorithmKind::kNonAreaBased ||
      request.algorithm == interval::AlgorithmKind::kNonAreaBasedOpt;
  if (non_area_based && request.model != ConfidenceModel::kBalance) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s supports only the balance model (paper §V); got %s",
        interval::AlgorithmKindName(request.algorithm),
        ConfidenceModelName(request.model)));
  }
  return util::Status::Ok();
}

std::string Tableau::ToString() const {
  std::string out = util::StrFormat(
      "%s tableau (%s model): %zu interval(s), covered %lld/%lld ticks%s\n",
      TableauTypeName(type), ConfidenceModelName(model), rows.size(),
      static_cast<long long>(covered), static_cast<long long>(required),
      support_satisfied ? "" : " [support NOT satisfied]");
  for (const TableauRow& row : rows) {
    out += util::StrFormat("  %-16s conf=%.4f\n",
                           row.interval.ToString().c_str(), row.confidence);
  }
  return out;
}

util::Result<Tableau> DiscoverTableau(const ConfidenceEvaluator& eval,
                                      const TableauRequest& request) {
  if (util::Status status = ValidateTableauRequest(request); !status.ok()) {
    return status;
  }
  if (eval.model() != request.model) {
    return util::Status::InvalidArgument(
        "evaluator model does not match request model");
  }
  CR_TRACE_SPAN_ARGS("tableau.discover", "n", eval.n(), "threads",
                     request.num_threads);
  obs::ScopedDeadline discover_deadline("tableau.discover");
  static obs::Counter& discoveries =
      obs::Registry::Global().Counter("tableau.discoveries");
  discoveries.Increment();
  // Phase attribution for the discovery pipeline: one histogram family,
  // children hoisted once (labels.h). Same bounds as the cover phase
  // histograms so cross-phase comparisons line up bucket for bucket.
  struct PhaseMetrics {
    obs::Histogram& generate;
    obs::Histogram& cover;
    obs::Histogram& assemble;
  };
  static PhaseMetrics& phase_seconds = *[] {
    obs::HistogramFamily& family = obs::LabeledHistogram(
        "tableau.phase_seconds", {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
    return new PhaseMetrics{family.With({{"phase", "generate"}}),
                            family.With({{"phase", "cover"}}),
                            family.With({{"phase", "assemble"}})};
  }();

  interval::GeneratorOptions gen_options;
  gen_options.type = request.type;
  gen_options.c_hat = request.c_hat;
  gen_options.epsilon = request.epsilon;
  gen_options.delta_mode = request.delta_mode;
  gen_options.stop_on_full_cover = request.stop_on_full_cover;
  gen_options.largest_first_early_exit = request.largest_first_early_exit;
  gen_options.num_threads = request.num_threads;
  gen_options.chunks_per_thread = request.chunks_per_thread;
  gen_options.sketch = request.sketch;
  gen_options.sketch_block = request.sketch_block;

  Tableau tableau;
  tableau.type = request.type;
  tableau.model = request.model;

  const auto generator = interval::MakeGenerator(request.algorithm);
  std::vector<interval::Candidate> candidates;
  {
    CR_TRACE_SPAN("tableau.generate");
    util::Stopwatch generate_timer;
    candidates = generator->GenerateCandidates(eval, gen_options,
                                               &tableau.generation_stats);
    phase_seconds.generate.Record(generate_timer.ElapsedSeconds());
  }
  // Resumable per-anchor walks the AB and NAB sweeps began
  // (interval/walk.h).
  static obs::Counter& active_walks =
      obs::Registry::Global().Counter("generation.active_walks");
  active_walks.Add(tableau.generation_stats.walks);

  util::Stopwatch cover_timer;
  {
    CR_TRACE_SPAN_ARGS("tableau.cover", "candidates",
                       static_cast<int64_t>(candidates.size()));
    std::vector<interval::Interval> intervals;
    std::vector<double> confidences;
    intervals.reserve(candidates.size());
    confidences.reserve(candidates.size());
    for (const interval::Candidate& candidate : candidates) {
      intervals.push_back(candidate.interval);
      confidences.push_back(candidate.confidence);
    }
    cover::CoverOptions cover_options;
    cover_options.s_hat = request.s_hat;
    cover_options.num_threads = request.num_threads;
    CoverCandidates(intervals, confidences, eval.n(), cover_options, &tableau);
    phase_seconds.cover.Record(tableau.cover_seconds);
  }

  CR_TRACE_SPAN_ARGS("tableau.assemble", "rows",
                     static_cast<int64_t>(tableau.rows.size()));
  static obs::Gauge& last_rows =
      obs::Registry::Global().Gauge("tableau.last_rows");
  last_rows.Set(static_cast<double>(tableau.rows.size()));
  // Assembly = everything around the selection proper: the candidate
  // split, the row join inside CoverCandidates and this gauge.
  phase_seconds.assemble.Record(cover_timer.ElapsedSeconds() -
                                tableau.cover_seconds);
  return tableau;
}

void CoverCandidates(const std::vector<interval::Interval>& intervals,
                     const std::vector<double>& confidences, int64_t n,
                     const cover::CoverOptions& options, Tableau* tableau) {
  CR_CHECK(intervals.size() == confidences.size());
  util::Stopwatch cover_timer;
  const cover::CoverResult cover =
      cover::GreedyPartialSetCover(intervals, n, options);
  tableau->cover_seconds = cover_timer.ElapsedSeconds();
  tableau->cover_stats = cover.stats;
  tableau->num_candidates = intervals.size();
  tableau->covered = cover.covered;
  tableau->required = cover.required;
  tableau->support_satisfied = cover.satisfied;
  tableau->rows.clear();
  tableau->rows.reserve(cover.chosen.size());
  // Row confidences are the values the generator computed when it admitted
  // each candidate (kernel arithmetic is bit-identical to
  // eval.Confidence) — no per-row O(1)+dispatch rescan here.
  for (size_t r = 0; r < cover.chosen.size(); ++r) {
    tableau->rows.push_back(TableauRow{
        cover.chosen[r], confidences[cover.chosen_indices[r]]});
  }
}

}  // namespace conservation::core
