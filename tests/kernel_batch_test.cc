// Differential tests for the batch SIMD confidence kernels
// (interval/kernel_simd.h): every backend must reproduce the scalar
// kernel — and therefore core::ConfidenceEvaluator — bit for bit, on
// every model × tableau-type × series-shape combination, including the
// ragged tails shorter than a vector width (this suite also runs in the
// ASan ctest configuration to catch out-of-bounds lane reads there) and
// whole-generator runs across backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/kernel_simd.h"
#include "test_data.h"
#include "util/random.h"

namespace conservation {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using interval::AlgorithmKind;
using interval::Candidate;
using interval::GeneratorOptions;
using interval::GeneratorStats;
using interval::internal::ActiveSimdBackend;
using interval::internal::ConfidenceKernel;
using interval::internal::SetSimdBackendForTest;
using interval::internal::SimdBackend;
using interval::internal::SimdBackendName;

// Restores the process-wide backend selection on scope exit, so tests can
// force backends without leaking the override into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTest(saved_); }
  SimdBackend saved() const { return saved_; }

 private:
  const SimdBackend saved_;
};

// Backends exercised on this machine: the portable scalar reference plus
// whatever the runtime dispatch selected (avx2 / scalar). Forcing a
// backend the CPU cannot execute would fault, so only the dispatched one
// is added.
std::vector<SimdBackend> TestableBackends() {
  std::vector<SimdBackend> backends{SimdBackend::kScalar};
  const SimdBackend active = ActiveSimdBackend();
  if (active != SimdBackend::kScalar) backends.push_back(active);
  return backends;
}

// Edge-shape series families alongside the random dominated generator:
//   near_zero_a  - outbound all zero except a single trailing 1 (the
//                  closest CountSequence admits to an all-zero a): numerator
//                  areas clamp to 0 almost everywhere.
//   zero_gap     - a == b everywhere, so every suffix min gap is 0 and
//                  credit/debit baselines coincide with balance.
//   saturated    - outbound spikes above the inbound baseline: raw areas go
//                  negative and the clamp saturates on both numerator and
//                  denominator.
series::CountSequence MakeFamily(const std::string& family, int64_t n) {
  if (family == "random") return testing_util::RandomDominatedCounts(7, n);
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  util::Rng rng(13);
  if (family == "near_zero_a") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = static_cast<double>(rng.Poisson(4.0));
    }
    b[0] += 1.0;  // ensure b is not identically zero
    a[static_cast<size_t>(n - 1)] = 1.0;
  } else if (family == "zero_gap") {
    for (int64_t t = 0; t < n; ++t) {
      const double v = static_cast<double>(rng.Poisson(3.0));
      a[static_cast<size_t>(t)] = v;
      b[static_cast<size_t>(t)] = v;
    }
    a[0] += 1.0;
    b[0] += 1.0;
  } else if (family == "saturated") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = 1.0;
      a[static_cast<size_t>(t)] =
          rng.Bernoulli(0.2) ? static_cast<double>(rng.UniformInt(5, 20))
                             : 0.0;
    }
  } else {
    CR_UNREACHABLE();
  }
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

const std::string kFamilies[] = {"random", "near_zero_a", "zero_gap",
                                 "saturated"};
const ConfidenceModel kModels[] = {ConfidenceModel::kBalance,
                                   ConfidenceModel::kCredit,
                                   ConfidenceModel::kDebit};
const TableauType kTypes[] = {TableauType::kHold, TableauType::kFail};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// --- Kernel-level: batch outputs vs a loop over the scalar calls ----------

class KernelBatchBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::string, ConfidenceModel, TableauType>> {};

TEST_P(KernelBatchBitIdentity, AllBatchFormsMatchScalarCalls) {
  const auto& [family, model, type] = GetParam();
  // 97 and 41 are deliberately not multiples of any vector width, so every
  // sweep ends in a ragged tail.
  const int64_t n = 97;
  const series::CountSequence counts = MakeFamily(family, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, model);

  BackendGuard guard;
  for (const SimdBackend backend : TestableBackends()) {
    SetSimdBackendForTest(backend);
    const ConfidenceKernel kernel(eval, type);
    SCOPED_TRACE(std::string("backend=") + SimdBackendName(backend));

    std::vector<double> batch_conf(static_cast<size_t>(n) + 1);
    std::vector<uint8_t> batch_valid(static_cast<size_t>(n) + 1);
    std::vector<double> batch_area(static_cast<size_t>(n) + 1);

    for (const int64_t i : {int64_t{1}, int64_t{2}, n / 3, n - 2, n}) {
      ConfidenceKernel scalar_kernel(eval, type);
      scalar_kernel.BeginAnchor(i);
      ConfidenceKernel batch_kernel(eval, type);
      batch_kernel.BeginAnchor(i);
      SCOPED_TRACE("anchor i=" + std::to_string(i));

      // Contiguous sweeps [i, n], including a short tail-only range.
      for (const int64_t j1 : {std::min(n, i + 2), n}) {
        batch_kernel.ConfidenceBatch(i, j1, batch_conf.data(),
                                     batch_valid.data());
        batch_kernel.SparseAreaBatch(i, j1, batch_area.data());
        for (int64_t j = i; j <= j1; ++j) {
          const size_t k = static_cast<size_t>(j - i);
          double conf = 0.0;
          const bool valid = scalar_kernel.Confidence(j, &conf);
          ASSERT_EQ(batch_valid[k], valid ? 1 : 0) << "j=" << j;
          ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
              << "j=" << j;
          ASSERT_EQ(Bits(batch_area[k]), Bits(scalar_kernel.SparseArea(j)))
              << "j=" << j;
          // The kernel itself must agree with the evaluator's closed form.
          const std::optional<double> reference = eval.Confidence(i, j);
          ASSERT_EQ(valid, reference.has_value()) << "j=" << j;
          if (valid) {
            ASSERT_EQ(Bits(conf), Bits(*reference)) << "j=" << j;
          }
        }
      }

      // Index-list sweep over a strided, ascending endpoint list.
      std::vector<int64_t> js;
      for (int64_t j = i; j <= n; j += 1 + (j % 5)) js.push_back(j);
      batch_kernel.ConfidenceIndexBatch(js.data(),
                                        static_cast<int64_t>(js.size()),
                                        batch_conf.data(),
                                        batch_valid.data());
      for (size_t k = 0; k < js.size(); ++k) {
        double conf = 0.0;
        const bool valid = scalar_kernel.Confidence(js[k], &conf);
        ASSERT_EQ(batch_valid[k], valid ? 1 : 0) << "j=" << js[k];
        ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
            << "j=" << js[k];
      }
    }

    // Right-anchored sweeps, short and long anchor lists.
    for (const int64_t j : {int64_t{41}, n}) {
      ConfidenceKernel scalar_kernel(eval, type);
      scalar_kernel.BeginRightAnchor(j);
      ConfidenceKernel batch_kernel(eval, type);
      batch_kernel.BeginRightAnchor(j);
      std::vector<int64_t> is;
      for (int64_t i = 1; i <= j; i += 1 + (i % 3)) is.push_back(i);
      batch_kernel.ConfidenceFromBatch(is.data(),
                                       static_cast<int64_t>(is.size()),
                                       batch_conf.data(),
                                       batch_valid.data());
      for (size_t k = 0; k < is.size(); ++k) {
        double conf = 0.0;
        const bool valid = scalar_kernel.ConfidenceFrom(is[k], &conf);
        ASSERT_EQ(batch_valid[k], valid ? 1 : 0)
            << "j=" << j << " i=" << is[k];
        ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
            << "j=" << j << " i=" << is[k];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelBatchBitIdentity,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::ValuesIn(kModels),
                       ::testing::ValuesIn(kTypes)));

// --- Generator-level: whole runs across backends --------------------------

class GeneratorBackendBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::string, ConfidenceModel, TableauType>> {};

TEST_P(GeneratorBackendBitIdentity, CandidatesAndCountersMatchScalar) {
  const auto& [family, model, type] = GetParam();
  const int64_t n = 97;
  const series::CountSequence counts = MakeFamily(family, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, model);

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
      AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
      AlgorithmKind::kNonAreaBasedOpt};

  BackendGuard guard;
  for (const AlgorithmKind kind : kinds) {
    // The §V NAB algorithms are balance-model only.
    if (model != ConfidenceModel::kBalance &&
        (kind == AlgorithmKind::kNonAreaBased ||
         kind == AlgorithmKind::kNonAreaBasedOpt)) {
      continue;
    }
    const auto generator = interval::MakeGenerator(kind);
    for (const double epsilon : {0.05, 0.5}) {
      for (const bool early_exit : {false, true}) {
        GeneratorOptions options;
        options.type = type;
        options.c_hat = type == TableauType::kHold ? 0.7 : 0.3;
        options.epsilon = epsilon;
        options.largest_first_early_exit = early_exit;
        SCOPED_TRACE(std::string(AlgorithmKindName(kind)) +
                     " eps=" + std::to_string(epsilon) +
                     " early_exit=" + std::to_string(early_exit));

        SetSimdBackendForTest(SimdBackend::kScalar);
        GeneratorStats scalar_stats;
        const std::vector<Candidate> scalar_out =
            generator->GenerateCandidates(eval, options, &scalar_stats);

        for (const SimdBackend backend : TestableBackends()) {
          SetSimdBackendForTest(backend);
          GeneratorStats stats;
          const std::vector<Candidate> out =
              generator->GenerateCandidates(eval, options, &stats);
          SCOPED_TRACE(std::string("backend=") + SimdBackendName(backend));
          ASSERT_EQ(out.size(), scalar_out.size());
          for (size_t k = 0; k < out.size(); ++k) {
            EXPECT_EQ(out[k].interval, scalar_out[k].interval);
            EXPECT_EQ(Bits(out[k].confidence),
                      Bits(scalar_out[k].confidence));
          }
          // Logical work counters feed crdiscover diagnostics and bench
          // records; they must not depend on the backend (speculative
          // batch lanes are uncounted by design).
          EXPECT_EQ(stats.intervals_tested, scalar_stats.intervals_tested);
          EXPECT_EQ(stats.endpoint_steps, scalar_stats.endpoint_steps);
          EXPECT_EQ(stats.candidates, scalar_stats.candidates);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorBackendBitIdentity,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::ValuesIn(kModels),
                       ::testing::ValuesIn(kTypes)));

}  // namespace
}  // namespace conservation
