// Parameterized validation of the paper's approximation guarantees
// (Theorems 2, 3, 6, 8, 9) against the exhaustive generator on random
// dominated integer data. Only applicable combinations are instantiated:
// the area-based generators run under all three models, NAB and NAB-opt
// under the balance model only (§V), and the early-exit check skips plain
// AB, which has no largest-first mode.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "core/confidence.h"
#include "interval/generator.h"
#include "tests/test_data.h"

namespace conservation::interval {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;

struct GuaranteeCase {
  AlgorithmKind algorithm;
  ConfidenceModel model;
  TableauType type;
  double c_hat;
  double epsilon;
  uint64_t seed;
};

using Param = std::tuple<AlgorithmKind, ConfidenceModel, TableauType, double,
                         double, uint64_t>;

class GeneratorGuarantees : public ::testing::TestWithParam<Param> {
 protected:
  GuaranteeCase Case() const {
    const auto& [algorithm, model, type, c_hat, epsilon, seed] = GetParam();
    return GuaranteeCase{algorithm, model, type, c_hat, epsilon, seed};
  }
};

// Same parameters; a separate fixture so it is instantiated only for the
// generators that support largest-first early exit.
class EarlyExitGuarantees : public GeneratorGuarantees {};

TEST_P(GeneratorGuarantees, NoFalsePositivesAndNoFalseNegatives) {
  const GuaranteeCase c = Case();

  const int64_t n = 80;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(c.seed, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, c.model);

  GeneratorOptions options;
  options.type = c.type;
  options.c_hat = c.c_hat;
  options.epsilon = c.epsilon;

  const auto generator = MakeGenerator(c.algorithm);
  GeneratorStats stats;
  const std::vector<Interval> produced =
      generator->Generate(eval, options, &stats);

  // --- No false positives (Theorems 2.1, 3.1, 6.1, 8.1, 9.1): every
  // produced interval satisfies the relaxed threshold.
  for (const Interval& iv : produced) {
    const std::optional<double> conf = eval.Confidence(iv.begin, iv.end);
    ASSERT_TRUE(conf.has_value()) << iv.ToString();
    EXPECT_TRUE(PassesRelaxedThreshold(*conf, options))
        << iv.ToString() << " conf=" << *conf;
  }

  // Index the produced intervals by anchor.
  std::map<int64_t, int64_t> end_by_begin;    // AB-style anchors
  std::map<int64_t, int64_t> begin_by_end;    // NAB-style anchors
  for (const Interval& iv : produced) {
    auto [it, inserted] = end_by_begin.emplace(iv.begin, iv.end);
    if (!inserted) it->second = std::max(it->second, iv.end);
    auto [it2, inserted2] = begin_by_end.emplace(iv.end, iv.begin);
    if (!inserted2) it2->second = std::min(it2->second, iv.begin);
  }

  const bool left_anchored = c.algorithm == AlgorithmKind::kAreaBased ||
                             c.algorithm == AlgorithmKind::kAreaBasedOpt;

  // --- No false negatives. Ground truth per anchor by brute force.
  if (left_anchored) {
    // Theorems 2.2 / 3.2 / 6.2: for each i with exact-threshold optimum
    // [i, j*], the algorithm produced [i, j'] with j' >= j*.
    for (int64_t i = 1; i <= n; ++i) {
      int64_t j_star = 0;
      for (int64_t j = i; j <= n; ++j) {
        const std::optional<double> conf = eval.Confidence(i, j);
        if (conf.has_value() && PassesExactThreshold(*conf, options)) {
          j_star = j;
        }
      }
      if (j_star == 0) continue;
      const auto it = end_by_begin.find(i);
      ASSERT_NE(it, end_by_begin.end())
          << "anchor " << i << " missing (j*=" << j_star << ")";
      EXPECT_GE(it->second, j_star) << "anchor " << i;
    }
  } else {
    for (int64_t j = 1; j <= n; ++j) {
      int64_t i_star = 0;
      for (int64_t i = j; i >= 1; --i) {
        const std::optional<double> conf = eval.Confidence(i, j);
        if (conf.has_value() && PassesExactThreshold(*conf, options)) {
          i_star = i;
        }
      }
      if (i_star == 0) continue;
      const auto it = begin_by_end.find(j);
      ASSERT_NE(it, begin_by_end.end())
          << "anchor j=" << j << " missing (i*=" << i_star << ")";
      if (c.type == TableauType::kHold) {
        // Theorem 8.2: i' <= i*.
        EXPECT_LE(it->second, i_star) << "anchor j=" << j;
      } else {
        // Theorem 9.2: the produced interval is at most (1+eps) shorter.
        const double produced_len = static_cast<double>(j - it->second + 1);
        const double optimal_len = static_cast<double>(j - i_star + 1);
        EXPECT_GE(produced_len * (1.0 + c.epsilon), optimal_len - 1e-9)
            << "anchor j=" << j;
      }
    }
  }
}

TEST_P(EarlyExitGuarantees, EarlyExitPreservesQualifyingOutput) {
  const GuaranteeCase c = Case();

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(c.seed + 17, 60);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, c.model);

  GeneratorOptions options;
  options.type = c.type;
  options.c_hat = c.c_hat;
  options.epsilon = c.epsilon;

  const auto generator = MakeGenerator(c.algorithm);
  GeneratorStats full_stats;
  const std::vector<Interval> full =
      generator->Generate(eval, options, &full_stats);

  options.largest_first_early_exit = true;
  GeneratorStats early_stats;
  const std::vector<Interval> early =
      generator->Generate(eval, options, &early_stats);

  // Early exit returns exactly the same per-anchor longest intervals...
  EXPECT_EQ(full, early);
  // ... with no more confidence tests.
  EXPECT_LE(early_stats.intervals_tested, full_stats.intervals_tested);
}

// Every (algorithm, model) pair given, crossed with the full type x c_hat x
// epsilon x seed sweep.
std::vector<Param> Sweep(std::initializer_list<AlgorithmKind> algorithms,
                         std::initializer_list<ConfidenceModel> models) {
  std::vector<Param> params;
  for (const AlgorithmKind algorithm : algorithms) {
    for (const ConfidenceModel model : models) {
      for (const TableauType type : {TableauType::kHold, TableauType::kFail}) {
        for (const double c_hat : {0.3, 0.7, 0.95}) {
          for (const double epsilon : {0.01, 0.2, 1.0}) {
            for (const uint64_t seed : {11u, 29u}) {
              params.emplace_back(algorithm, model, type, c_hat, epsilon,
                                  seed);
            }
          }
        }
      }
    }
  }
  return params;
}

constexpr std::initializer_list<ConfidenceModel> kAllModels = {
    ConfidenceModel::kBalance, ConfidenceModel::kCredit,
    ConfidenceModel::kDebit};

INSTANTIATE_TEST_SUITE_P(
    AreaBased, GeneratorGuarantees,
    ::testing::ValuesIn(Sweep({AlgorithmKind::kAreaBased,
                               AlgorithmKind::kAreaBasedOpt},
                              kAllModels)));
INSTANTIATE_TEST_SUITE_P(
    NonAreaBased, GeneratorGuarantees,
    ::testing::ValuesIn(Sweep({AlgorithmKind::kNonAreaBased,
                               AlgorithmKind::kNonAreaBasedOpt},
                              {ConfidenceModel::kBalance})));

INSTANTIATE_TEST_SUITE_P(
    AreaBasedOpt, EarlyExitGuarantees,
    ::testing::ValuesIn(Sweep({AlgorithmKind::kAreaBasedOpt}, kAllModels)));
INSTANTIATE_TEST_SUITE_P(
    NonAreaBased, EarlyExitGuarantees,
    ::testing::ValuesIn(Sweep({AlgorithmKind::kNonAreaBased,
                               AlgorithmKind::kNonAreaBasedOpt},
                              {ConfidenceModel::kBalance})));

}  // namespace
}  // namespace conservation::interval
