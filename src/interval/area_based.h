// AreaBasedGenerator (AB): the approximation algorithm of paper §III.
//
// For each left anchor i it tests only the sparse right endpoints
//   r_il = largest j >= i with area(i, j) <= Delta * (1 + eps)^l
// where `area` is area_B for hold tableaux and area_A for fail tableaux
// (balance-model area_A for the credit model, §III.D). Because the baselines
// H_i are monotone nondecreasing in i (Lemmas 4-5 and Theorem 5), the r_il
// are nondecreasing in i for each level l, so one never-retreating pointer
// per level finds all of them in O(n) amortized time per level:
// O(n log_{1+eps}(area(1,n)/Delta)) total.
//
// Guarantees (Theorems 2, 3, 6): every emitted interval passes the relaxed
// threshold, and for each anchor with an exact-threshold interval [i, j*]
// the emitted interval [i, j'] has j' >= j*.
//
// Fail tableaux additionally run a "zero level" (T = 0) that finds the
// largest j with area_A(i, j) = 0 — such intervals have confidence exactly 0
// and would otherwise be missed (the easy special case the paper notes in
// §III.C-D).

#ifndef CONSERVATION_INTERVAL_AREA_BASED_H_
#define CONSERVATION_INTERVAL_AREA_BASED_H_

#include <cstdint>
#include <vector>

#include "interval/generator.h"
#include "series/cumulative.h"

namespace conservation::interval {

class AreaBasedGenerator : public CandidateGenerator {
 public:
  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override { return AlgorithmKind::kAreaBased; }
};

namespace internal {

// The sparsification area for anchor i, endpoint j: area_B for hold,
// area_A for fail (balance-model area_A when the evaluator is credit).
double SparsificationArea(const core::ConfidenceEvaluator& eval,
                          core::TableauType type, int64_t i, int64_t j);

// AB's level thresholds T_l = Delta * (1+eps)^l, l = 0..L, where
// L = ceil(log_{1+eps}(max_area / Delta)) + 1 (0 when max_area <= Delta)
// and max_area = Sum(1, n) of B (hold) or A (fail) bounds every area(i, j)
// (all baselines are >= 0). Fail tableaux get a zero level T = 0 prepended
// to catch confidence-0 intervals. Shared by the fresh generator and the
// incremental engine, so their ladders agree entry for entry.
std::vector<double> AbThresholds(const series::CumulativeSeries& series,
                                 core::TableauType type, double delta,
                                 double growth);

// Credit-model fail tableaux's zero-prefix probe lengths: floor(growth^h)
// for every power below n (duplicates kept), then n itself. Shared by AB
// and AB-opt.
std::vector<int64_t> ZeroPrefixLengths(int64_t n, double growth);

}  // namespace internal

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_AREA_BASED_H_
