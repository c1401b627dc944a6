// discover_outage: the paper's batch operation (tableau discovery) on its
// timing dataset, the Job Log, after a §IV.D loss perturbation.
//
// Untraced: one warm-up DiscoverTableau, then fresh calls cycling over
// three inputs until the deadline; each timed call rebuilds the cumulative
// series first, so fresh_s is "raw counts in, tableau out". Traced: every
// call is followed by the public composition GenerateCandidates ->
// GreedyPartialSetCover -> row assembly, timed per layer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/confidence.h"
#include "core/tableau.h"
#include "datagen/job_log.h"
#include "datagen/perturb.h"
#include "interval/generator.h"
#include "series/cumulative.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace conservation;

constexpr int64_t kTicks = 200000;
constexpr int kSetups = 5;
// Inputs per run, each from its own derived seed. The outage starts at the
// busiest tick of the first 30%, and where that falls moves the work of a
// call by about 5%; averaging three inputs keeps one draw from setting a
// run's figure.
constexpr int kInputs = 3;

struct Input {
  series::CountSequence counts;
  std::unique_ptr<series::CumulativeSeries> series;
  std::unique_ptr<core::ConfidenceEvaluator> eval;
  datagen::PerturbationInfo outage;
};

core::TableauRequest Request() {
  core::TableauRequest request;
  request.type = core::TableauType::kHold;
  request.model = core::ConfidenceModel::kBalance;
  request.algorithm = interval::AlgorithmKind::kAreaBased;
  request.epsilon = 0.01;
  request.c_hat = 0.9;
  request.s_hat = 0.5;
  request.num_threads = Cores();
  return request;
}

// Input generation, perturbation and series build; times the build
// separately for the series layer.
Input Setup(uint64_t seed, double* build_seconds) {
  datagen::JobLogParams params;
  params.num_ticks = kTicks;
  params.seed = DeriveSeed(seed, 1);
  datagen::PerturbationSpec spec;
  spec.fraction = 0.3;
  spec.compensate = false;
  spec.latest_start_fraction = 0.3;
  spec.seed = DeriveSeed(seed, 2);
  datagen::PerturbationInfo outage;
  Input input{datagen::ApplyPerturbation(datagen::GenerateJobLog(params).counts,
                                         spec, &outage),
              nullptr, nullptr, outage};
  const double t0 = Now();
  input.series = std::make_unique<series::CumulativeSeries>(input.counts);
  *build_seconds = Now() - t0;
  input.eval = std::make_unique<core::ConfidenceEvaluator>(
      input.series.get(), core::ConfidenceModel::kBalance);
  return input;
}

// Ticks covered by the union of all candidates: the most any cover can
// reach.
int64_t UnionCoverage(const std::vector<interval::Candidate>& candidates) {
  std::vector<interval::Interval> sorted;
  sorted.reserve(candidates.size());
  for (const interval::Candidate& c : candidates) sorted.push_back(c.interval);
  std::sort(sorted.begin(), sorted.end(),
            [](const interval::Interval& x, const interval::Interval& y) {
              return x.begin < y.begin;
            });
  int64_t covered = 0;
  int64_t reached = 0;  // last tick counted so far
  for (const interval::Interval& iv : sorted) {
    const int64_t from = std::max(iv.begin, reached + 1);
    if (iv.end >= from) covered += iv.end - from + 1;
    reached = std::max(reached, iv.end);
  }
  return covered;
}

// The checks a discovery result must pass (counted in `failed`).
void CheckTableau(const core::Tableau& tableau, const Composition& reference,
                  const Input& input, const core::TableauRequest& request,
                  Report* report) {
  const double floor = request.c_hat / (1.0 + request.epsilon);
  bool confident = true;
  for (const core::TableauRow& row : tableau.rows) {
    const auto conf =
        input.eval->Confidence(row.interval.begin, row.interval.end);
    confident = confident && conf.has_value() && *conf >= floor;
  }
  report->Attempt(confident, "a row's recomputed confidence is below "
                             "c_hat / (1 + epsilon)");
  // When the candidates cannot reach the support (the outage removes most
  // of them), the cover must still take everything they offer.
  const bool support_ok =
      tableau.support_satisfied
          ? tableau.covered >= tableau.required
          : tableau.covered < tableau.required &&
                tableau.covered == UnionCoverage(reference.candidates);
  report->Attempt(support_ok, "covered ticks disagree with the support");
  report->Attempt(SameTableau(tableau, reference.tableau),
                  "DiscoverTableau differs from GenerateCandidates -> "
                  "GreedyPartialSetCover");
}

}  // namespace

void RunDiscoverOutage(const Args& args, Report* report) {
  std::vector<double> setups;
  std::vector<double> builds;
  std::vector<Input> inputs;
  for (int k = 0; k < kSetups; ++k) {
    inputs.clear();
    const double t0 = Now();
    for (int i = 0; i < kInputs; ++i) {
      double build = 0.0;
      inputs.push_back(Setup(DeriveSeed(args.seed, 10 + i), &build));
      builds.push_back(build);
    }
    setups.push_back(Now() - t0);
  }
  const core::TableauRequest request = Request();
  char line[256];
  for (const Input& input : inputs) {
    std::snprintf(line, sizeof(line),
                  "input: job log n=%lld, outage ticks [%lld, %lld], "
                  "%d threads",
                  static_cast<long long>(input.counts.n()),
                  static_cast<long long>(input.outage.drop_begin),
                  static_cast<long long>(input.outage.drop_end),
                  request.num_threads);
    report->Note(line);
  }

  auto warm = core::DiscoverTableau(*inputs[0].eval, request);
  report->Attempt(warm.ok(), "DiscoverTableau rejected the request");
  if (!warm.ok()) return;

  // Timed calls cycle through the inputs, whole cycles only; each input's
  // first result is the one its later calls must reproduce.
  std::vector<std::vector<double>> discover(kInputs);
  std::vector<std::vector<double>> fresh(kInputs);
  std::vector<double> latencies;
  std::vector<core::Tableau> first(kInputs);
  std::vector<Composition> traced;
  const double deadline = Now() + args.seconds;
  for (int cycle = 0; cycle == 0 || Now() < deadline; ++cycle) {
    for (int i = 0; i < kInputs; ++i) {
      const Input& input = inputs[static_cast<size_t>(i)];
      const double t0 = Now();
      series::CumulativeSeries series(input.counts);
      const core::ConfidenceEvaluator eval(&series, request.model);
      const double t1 = Now();
      auto tableau = core::DiscoverTableau(eval, request);
      const double t2 = Now();
      discover[static_cast<size_t>(i)].push_back(t2 - t1);
      fresh[static_cast<size_t>(i)].push_back(t2 - t0);
      latencies.push_back(t2 - t1);
      report->Attempt(tableau.ok(), "DiscoverTableau rejected the request");
      if (!tableau.ok()) continue;
      if (cycle == 0) {
        first[static_cast<size_t>(i)] = std::move(tableau).value();
      } else {
        report->Attempt(SameTableau(*tableau, first[static_cast<size_t>(i)]),
                        "a timed call's tableau differs from the first one "
                        "on the same input");
      }
      // The traced run composes every call's phases and checks each
      // input's first composition.
      if (args.trace) {
        traced.push_back(Compose(*input.eval, request));
        if (cycle == 0) {
          CheckTableau(first[static_cast<size_t>(i)], traced.back(), input,
                       request, report);
        }
      }
    }
  }
  // The untraced run composes one input, after timing ends.
  if (!args.trace) {
    const size_t i = static_cast<size_t>(args.seed % kInputs);
    CheckTableau(first[i], Compose(*inputs[i].eval, request), inputs[i],
                 request, report);
  }

  // Per-input medians, averaged over the inputs, so one outage position
  // does not set the figure.
  double discover_s = 0.0;
  double fresh_s = 0.0;
  for (int i = 0; i < kInputs; ++i) {
    discover_s += Median(discover[static_cast<size_t>(i)]) / kInputs;
    fresh_s += Median(fresh[static_cast<size_t>(i)]) / kInputs;
  }
  const Percentile tail = Tail(latencies, 0.99);
  std::snprintf(line, sizeof(line),
                "tableau on input 0: %zu rows, covered %lld of %lld "
                "required, %llu candidates; %zu timed calls, ack tail is "
                "the p%g of %zu samples",
                first[0].rows.size(), static_cast<long long>(first[0].covered),
                static_cast<long long>(first[0].required),
                static_cast<unsigned long long>(first[0].num_candidates),
                latencies.size(), tail.q * 100, tail.samples);
  report->Note(line);
  report->Set("setup_s", Median(setups));
  report->Set("discover_s", discover_s);
  report->Set("ticks_per_s", static_cast<double>(kTicks) / discover_s);
  report->Set("ack_p50_ms", 1e3 * discover_s);
  report->Set("ack_p99_ms", 1e3 * tail.value);
  report->Set("fresh_s", fresh_s);
  report->Set("series.build_s", Median(builds));
  if (!args.trace) return;

  // Per-call means over the traced compositions, so the ledger adds up.
  double wall = 0.0;
  for (const Composition& c : traced) {
    AccumulateLayers(c, kTicks, report);
    wall += c.wall_s;
  }
  const double calls = static_cast<double>(traced.size());
  FinishLayers(calls, report);
  CloseLedger(wall / calls,
              {"interval.generate_s", "cover.seed_s", "cover.select_s"},
              report);
  double untraced = 0.0;
  for (const double s : latencies) untraced += s;
  report->Set("trace_overhead_s",
              (wall - untraced) / static_cast<double>(latencies.size()));
}

}  // namespace perfbench
