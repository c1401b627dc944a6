#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "cover/partial_set_cover.h"
#include "interval/generator.h"

namespace perfbench {

using namespace conservation;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Percentile Tail(std::vector<double> values, double want) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > want || n * (1.0 - q) < 10.0) continue;
    const size_t rank = static_cast<size_t>(std::ceil(q * n));
    out.value = values[rank - 1];
    out.q = q;
    return out;
  }
  out.value = values.back();
  out.q = 1.0;
  return out;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool SameTableau(const core::Tableau& a, const core::Tableau& b) {
  if (a.rows.size() != b.rows.size() || a.covered != b.covered ||
      a.required != b.required ||
      a.support_satisfied != b.support_satisfied ||
      a.num_candidates != b.num_candidates) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (!(a.rows[r].interval == b.rows[r].interval) ||
        std::memcmp(&a.rows[r].confidence, &b.rows[r].confidence,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The two phases of DiscoverTableau through their own public entry points.
Composition Compose(const core::ConfidenceEvaluator& eval,
                    const core::TableauRequest& request) {
  Composition out;
  const double t0 = Now();
  interval::GeneratorOptions options;
  options.type = request.type;
  options.c_hat = request.c_hat;
  options.epsilon = request.epsilon;
  options.delta_mode = request.delta_mode;
  options.stop_on_full_cover = request.stop_on_full_cover;
  options.largest_first_early_exit = request.largest_first_early_exit;
  options.num_threads = request.num_threads;
  options.chunks_per_thread = request.chunks_per_thread;
  options.walk_width = request.walk_width;
  options.sketch = request.sketch;
  options.sketch_block = request.sketch_block;
  options.sketch_nab_right = request.sketch_nab_right;
  out.candidates = interval::MakeGenerator(request.algorithm)
                       ->GenerateCandidates(eval, options,
                                            &out.tableau.generation_stats);
  const double t1 = Now();
  std::vector<interval::Interval> intervals;
  intervals.reserve(out.candidates.size());
  for (const interval::Candidate& c : out.candidates) {
    intervals.push_back(c.interval);
  }
  cover::CoverOptions cover_options;
  cover_options.s_hat = request.s_hat;
  cover_options.num_threads = request.num_threads;
  const cover::CoverResult cover =
      cover::GreedyPartialSetCover(intervals, eval.n(), cover_options);
  core::Tableau& t = out.tableau;
  t.type = request.type;
  t.model = request.model;
  t.num_candidates = out.candidates.size();
  t.cover_stats = cover.stats;
  t.covered = cover.covered;
  t.required = cover.required;
  t.support_satisfied = cover.satisfied;
  for (size_t r = 0; r < cover.chosen.size(); ++r) {
    t.rows.push_back(core::TableauRow{
        cover.chosen[r], out.candidates[cover.chosen_indices[r]].confidence});
  }
  out.generate_s = t1 - t0;
  out.wall_s = Now() - t0;
  return out;
}

void AccumulateLayers(const Composition& c, int64_t n, Report* report) {
  const interval::GeneratorStats& g = c.tableau.generation_stats;
  const cover::CoverStats& s = c.tableau.cover_stats;
  const std::pair<const char*, double> sums[] = {
      {"interval.generate_s", c.generate_s},
      {"interval.work_s", g.seconds},
      {"interval.imbalance", g.ImbalanceRatio()},
      {"interval.intervals_tested", static_cast<double>(g.intervals_tested)},
      {"interval.endpoint_steps", static_cast<double>(g.endpoint_steps)},
      {"interval.candidates", static_cast<double>(g.candidates)},
      {"interval.anchors_pruned", static_cast<double>(g.anchors_pruned)},
      {"interval.sketch_blocks", static_cast<double>(g.sketch_blocks)},
      {"interval.walk_lanes", static_cast<double>(g.walk_lanes)},
      {"interval.walk_lane_slots", static_cast<double>(g.walk_lane_slots)},
      {"interval.anchors", static_cast<double>(n)},
      {"cover.seed_s", s.seed_seconds},
      {"cover.select_s", s.select_seconds},
      {"cover.rounds", static_cast<double>(s.rounds)},
      {"cover.heap_pops", static_cast<double>(s.heap_pops)},
      {"cover.stale_reevaluations", static_cast<double>(s.stale_reevaluations)},
      {"cover.tick_visits", static_cast<double>(s.tick_visits)},
  };
  for (const auto& [name, value] : sums) report->Accumulate(name, value);
}

void FinishLayers(double compositions, Report* report) {
  if (compositions <= 0) return;
  const auto get = [report](const char* name) { return report->Get(name); };
  for (const char* name :
       {"interval.generate_s", "interval.work_s", "interval.imbalance",
        "interval.intervals_tested", "interval.endpoint_steps",
        "interval.candidates", "interval.anchors_pruned",
        "interval.sketch_blocks", "cover.seed_s", "cover.select_s",
        "cover.rounds", "cover.heap_pops", "cover.stale_reevaluations",
        "cover.tick_visits"}) {
    report->Set(name, get(name) / compositions);
  }
  const double tested = get("interval.intervals_tested");
  const double candidates = get("interval.candidates");
  // Each anchor emits at most one candidate, so the rest found none.
  const double empty = get("interval.anchors") / compositions - candidates;
  const double slots = get("interval.walk_lane_slots");
  report->Set("interval.useful_frac", tested > 0 ? candidates / tested : 0.0);
  report->Set("interval.prune_hit_frac",
              empty > 0 ? get("interval.anchors_pruned") / empty : 0.0);
  report->Set("interval.lane_occupancy",
              slots > 0 ? get("interval.walk_lanes") / slots : 0.0);
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Accumulate(const std::string& name, double value) {
  values_[name] += value;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    notes_.push_back("FAILED: " + what);
  }
}

void Report::Print(const std::vector<MetricSpec>& specs) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  const auto value_of = [this](const char* name) { return Get(name); };
  for (const MetricSpec& spec : specs) {
    std::printf("metric %-28s %.6g %s\n", spec.name, value_of(spec.name),
                spec.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t k = 0; k < specs.size(); ++k) {
    const double value = value_of(specs[k].name);
    // Non-finite values are not JSON; print null rather than a corrupt
    // line (run.py then rejects the run).
    if (std::isfinite(value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", specs[k].name, value, specs[k].unit);
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", specs[k].name, specs[k].unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void CloseLedger(double wall, const std::vector<const char*>& layers,
                 Report* report) {
  double layered = 0.0;
  for (const char* layer : layers) layered += report->Get(layer);
  const double other = wall - layered;
  char line[256];
  std::snprintf(line, sizeof(line),
                "ledger: wall %.6f s = layers %.6f s + other %.6f s "
                "(%.2f%% other)",
                wall, layered, other, wall > 0 ? 100.0 * other / wall : 0.0);
  report->Note(line);
  report->Attempt(other >= -1e-6 * wall,
                  "ledger does not close: layer self times exceed wall time");
  report->Set("other_s", other);
}

}  // namespace perfbench
