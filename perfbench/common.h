// Shared pieces of the benchmark program: arguments, the result report,
// percentiles, the per-layer ledger and process facts.
//
// The program times each layer from the outside, by wrapping the public
// calls into it; it changes no library code.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tableau.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Monotonic wall clock, in seconds.
double Now();

// Peak resident set of this process, in MiB (getrusage ru_maxrss).
double PeakRssMb();

// Logical cores this process may run on.
int Cores();

// One cut of a latency distribution: the value at quantile `q` of
// `samples` sorted samples (nearest rank).
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  size_t samples = 0;
};

// Median of `values` (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// The highest quantile <= `want` that still leaves at least ten samples
// beyond it, so a p99 needs 1000 samples. With fewer than eleven samples
// no quantile qualifies and the maximum is returned with q = 1.
Percentile Tail(std::vector<double> values, double want);

// Derives an independent generator seed for input stream `stream` from the
// run's --seed (splitmix64), so one argument reaches every generator.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// The fields the library's exactness contracts fix: rows (intervals and
// confidences, bitwise), covered, required, support_satisfied and
// num_candidates. Timings and execution-shape counters are excluded.
bool SameTableau(const conservation::core::Tableau& a,
                 const conservation::core::Tableau& b);

// A metric the run prints, in the order BENCHMARK.json lists it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

// Everything one run prints.
class Report {
 public:
  void Set(const std::string& name, double value);
  void Accumulate(const std::string& name, double value);
  // 0 when never set.
  double Get(const std::string& name) const;
  // Records a free-form detail line printed before the result.
  void Note(const std::string& line);
  // Counts one attempted operation, failed or not.
  void Attempt(bool ok, const std::string& what);
  // Counts `n` attempted operations that succeeded.
  void Succeeded(uint64_t n) { attempted_ += n; }

  // Prints the detail lines, one "metric" line per spec, and the result
  // object, holding exactly the metrics in `specs`, as the last line. A
  // spec the run never set prints as 0: the layer did no work.
  void Print(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The two phases of DiscoverTableau run through their own public entry
// points (MakeGenerator(...)->GenerateCandidates, GreedyPartialSetCover)
// and assembled into a tableau, with each phase timed from outside.
struct Composition {
  conservation::core::Tableau tableau;
  std::vector<conservation::interval::Candidate> candidates;
  double generate_s = 0.0;
  double wall_s = 0.0;
};
Composition Compose(const conservation::core::ConfidenceEvaluator& eval,
                    const conservation::core::TableauRequest& request);

// Adds one composition's generator and cover figures to the report's
// running sums for the interval.* and cover.* per-layer metrics.
void AccumulateLayers(const Composition& c, int64_t n, Report* report);
// Turns those sums into per-composition means and derives the ratios.
void FinishLayers(double compositions, Report* report);

// Closes a traced section's ledger: the report's values for `layers` are
// their self times, summed from disjoint spans (each wraps one call into
// one layer), and whatever `wall` holds beyond them is recorded as
// other_s. A negative other_s beyond rounding means spans overlapped and
// fails the run.
void CloseLedger(double wall, const std::vector<const char*>& layers,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
