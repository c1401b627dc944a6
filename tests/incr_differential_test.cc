// Differential tests for incremental tableau maintenance: after every
// AppendBatch the maintained tableau must be bit-identical to a from-scratch
// DiscoverTableau over the full series (rows, covered, required,
// support_satisfied, num_candidates — the exactness contract of
// incr/incremental.h), across all five generators, models, tableau types and
// batch patterns. The fresh side deliberately rotates thread counts, sketch
// modes and largest-first early exit per batch: those knobs are
// output-invariant by contract, so the incremental engine (sequential, no
// sketch) must match every configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "incr/incremental.h"
#include "incr/stream_session.h"
#include "interval/generator.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "series/store.h"
#include "tests/test_data.h"

namespace conservation {
namespace {

using core::ConfidenceModel;
using core::Tableau;
using core::TableauRequest;
using core::TableauType;
using incr::IncrementalDiscoverer;
using interval::AlgorithmKind;

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameTableau(const Tableau& incremental, const Tableau& fresh,
                       const std::string& context) {
  ASSERT_EQ(incremental.rows.size(), fresh.rows.size()) << context;
  for (size_t r = 0; r < fresh.rows.size(); ++r) {
    EXPECT_EQ(incremental.rows[r].interval.begin, fresh.rows[r].interval.begin)
        << context << " row " << r;
    EXPECT_EQ(incremental.rows[r].interval.end, fresh.rows[r].interval.end)
        << context << " row " << r;
    EXPECT_TRUE(SameBits(incremental.rows[r].confidence,
                         fresh.rows[r].confidence))
        << context << " row " << r << " conf "
        << incremental.rows[r].confidence << " vs "
        << fresh.rows[r].confidence;
  }
  EXPECT_EQ(incremental.covered, fresh.covered) << context;
  EXPECT_EQ(incremental.required, fresh.required) << context;
  EXPECT_EQ(incremental.support_satisfied, fresh.support_satisfied) << context;
  EXPECT_EQ(incremental.num_candidates, fresh.num_candidates) << context;
}

// Replays `counts` through an IncrementalDiscoverer in batches of
// `batch_size` (0 = one batch with everything) after an initial prefix,
// comparing against DiscoverTableau over each prefix with rotating
// output-invariant fresh-side knobs.
void RunReplay(const series::CountSequence& counts, TableauRequest request,
               int64_t initial_n, int64_t batch_size,
               const std::string& context) {
  request.num_threads = 1;
  request.sketch = interval::SketchMode::kAuto;  // engine ignores; fresh varies
  auto discoverer =
      IncrementalDiscoverer::Create(counts.Prefix(initial_n), request);
  ASSERT_TRUE(discoverer.ok()) << discoverer.status().message() << context;

  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  int64_t at = initial_n;
  int batch_index = 0;
  while (true) {
    // Fresh recompute over the same prefix, with contract-invariant knobs
    // rotated so one replay exercises threads x sketch x largest-first.
    const series::CumulativeSeries cumulative(counts.Prefix(at));
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    TableauRequest fresh_request = request;
    fresh_request.num_threads = (batch_index % 2 == 0) ? 1 : 4;
    fresh_request.sketch = (batch_index % 3 == 0) ? interval::SketchMode::kOff
                                                  : interval::SketchMode::kAuto;
    fresh_request.largest_first_early_exit = batch_index % 2 == 1;
    const auto fresh = core::DiscoverTableau(eval, fresh_request);
    ASSERT_TRUE(fresh.ok()) << fresh.status().message() << context;
    ExpectSameTableau(discoverer->tableau(), fresh.value(),
                      context + " n=" + std::to_string(at));
    if (::testing::Test::HasFailure()) return;  // one replay, first divergence

    if (at >= counts.n()) break;
    const int64_t m = batch_size == 0
                          ? counts.n() - at
                          : std::min<int64_t>(batch_size, counts.n() - at);
    discoverer->AppendBatch(a.data() + at, b.data() + at, m);
    at += m;
    ++batch_index;
  }
  EXPECT_EQ(discoverer->n(), counts.n()) << context;
  EXPECT_GT(discoverer->stats().batches, 0) << context;
}

class IncrDifferential : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(IncrDifferential, MatchesFreshDiscoveryAcrossBatchPatterns) {
  const AlgorithmKind kind = GetParam();
  const bool nab = kind == AlgorithmKind::kNonAreaBased ||
                   kind == AlgorithmKind::kNonAreaBasedOpt;
  const int64_t total_n = 140;
  const int64_t initial_n = 35;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/2026, total_n);

  for (const ConfidenceModel model :
       {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
        ConfidenceModel::kDebit}) {
    if (nab && model != ConfidenceModel::kBalance) continue;
    for (const TableauType type : {TableauType::kHold, TableauType::kFail}) {
      const series::CumulativeSeries cumulative(counts);
      const core::ConfidenceEvaluator eval(&cumulative, model);
      const double overall = eval.Confidence(1, counts.n()).value_or(0.5);

      TableauRequest request;
      request.algorithm = kind;
      request.model = model;
      request.type = type;
      request.c_hat = type == TableauType::kHold
                          ? std::min(1.0, overall * 0.9 + 0.1)
                          : overall * 0.75;
      request.s_hat = 0.4;
      request.epsilon = 0.05;

      for (const int64_t batch_size : {int64_t{1}, int64_t{3}, int64_t{7},
                                       int64_t{64}, int64_t{0}}) {
        const std::string context =
            std::string(" [model=") + core::ConfidenceModelName(model) +
            " type=" + core::TableauTypeName(type) +
            " batch=" + std::to_string(batch_size) + "]";
        RunReplay(counts, request, initial_n, batch_size, context);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, IncrDifferential,
    ::testing::Values(AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
                      AlgorithmKind::kAreaBasedOpt,
                      AlgorithmKind::kNonAreaBased,
                      AlgorithmKind::kNonAreaBasedOpt),
    [](const ::testing::TestParamInfo<AlgorithmKind>& info) {
      return std::string(interval::AlgorithmKindName(info.param));
    });

TEST(IncrementalDiscoverer, RejectsStopOnFullCover) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/7, 40);
  TableauRequest request;
  request.stop_on_full_cover = true;
  const auto result = IncrementalDiscoverer::Create(counts, request);
  EXPECT_FALSE(result.ok());
}

// Delta decreasing mid-stream (a later batch introduces a smaller positive
// count) re-levels the AB/AB-opt threshold ladders; the engine must detect
// it, rebuild, and still match a fresh run.
TEST(IncrementalDiscoverer, DeltaDecreaseForcesRebuildAndStaysIdentical) {
  std::vector<double> a;
  std::vector<double> b;
  for (int t = 0; t < 30; ++t) {
    a.push_back(2.0);
    b.push_back(4.0);
  }
  // The appended suffix introduces count 1 < delta=2.
  std::vector<double> a2 = {1.0, 2.0, 0.0, 2.0, 1.0, 2.0};
  std::vector<double> b2 = {4.0, 4.0, 2.0, 4.0, 4.0, 2.0};

  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt}) {
    TableauRequest request;
    request.algorithm = kind;
    request.type = TableauType::kHold;
    request.c_hat = 0.6;
    request.s_hat = 0.5;
    request.epsilon = 0.1;

    auto initial = series::CountSequence::Create(a, b);
    ASSERT_TRUE(initial.ok());
    auto discoverer = IncrementalDiscoverer::Create(initial.value(), request);
    ASSERT_TRUE(discoverer.ok());
    discoverer->AppendBatch(a2, b2);
    EXPECT_EQ(discoverer->stats().full_rebuilds, 1)
        << interval::AlgorithmKindName(kind);

    std::vector<double> full_a = a;
    std::vector<double> full_b = b;
    full_a.insert(full_a.end(), a2.begin(), a2.end());
    full_b.insert(full_b.end(), b2.begin(), b2.end());
    auto full = series::CountSequence::Create(full_a, full_b);
    ASSERT_TRUE(full.ok());
    const series::CumulativeSeries cumulative(full.value());
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    const auto fresh = core::DiscoverTableau(eval, request);
    ASSERT_TRUE(fresh.ok());
    ExpectSameTableau(discoverer->tableau(), fresh.value(),
                      std::string(" delta-rebuild ") +
                          interval::AlgorithmKindName(kind));
  }
}

// A credit-model append that lowers old suffix-min gaps dirties exactly the
// affected anchors; they re-walk and the tableau stays identical.
TEST(IncrementalDiscoverer, CreditGapDropDirtiesAnchorsAndStaysIdentical) {
  std::vector<double> a;
  std::vector<double> b;
  for (int t = 0; t < 25; ++t) {
    a.push_back(1.0);
    b.push_back(3.0);
  }
  // Gap falls from 50 to 45: every old S_i above 45 changes.
  std::vector<double> a2 = {5.0, 1.0};
  std::vector<double> b2 = {0.0, 3.0};

  TableauRequest request;
  request.algorithm = AlgorithmKind::kAreaBased;
  request.model = ConfidenceModel::kCredit;
  request.type = TableauType::kFail;
  request.c_hat = 0.4;
  request.s_hat = 0.5;
  request.epsilon = 0.1;

  auto initial = series::CountSequence::Create(a, b);
  ASSERT_TRUE(initial.ok());
  auto discoverer = IncrementalDiscoverer::Create(initial.value(), request);
  ASSERT_TRUE(discoverer.ok());
  discoverer->AppendBatch(a2, b2);
  EXPECT_GT(discoverer->stats().dirty_anchors, 0);

  std::vector<double> full_a = a;
  std::vector<double> full_b = b;
  full_a.insert(full_a.end(), a2.begin(), a2.end());
  full_b.insert(full_b.end(), b2.begin(), b2.end());
  auto full = series::CountSequence::Create(full_a, full_b);
  ASSERT_TRUE(full.ok());
  const series::CumulativeSeries cumulative(full.value());
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  const auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(discoverer->tableau(), fresh.value(), " credit-dirty");
}

// AttachStore keeps a columnar arena growing alongside the appends; the
// result must be byte-identical to a fresh Build over the final series at
// the same capacity and block.
TEST(IncrementalDiscoverer, AttachedStoreMatchesFreshBuildByteForByte) {
  const int64_t total_n = 200;
  const int64_t initial_n = 50;
  const int64_t block = 32;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/11, total_n);

  TableauRequest request;
  request.algorithm = AlgorithmKind::kAreaBasedOpt;
  request.epsilon = 0.05;
  auto discoverer =
      IncrementalDiscoverer::Create(counts.Prefix(initial_n), request);
  ASSERT_TRUE(discoverer.ok());
  ASSERT_TRUE(discoverer->AttachStore(total_n, block));
  ASSERT_NE(discoverer->store(), nullptr);

  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  for (int64_t at = initial_n; at < total_n; at += 37) {
    const int64_t m = std::min<int64_t>(37, total_n - at);
    discoverer->AppendBatch(a.data() + at, b.data() + at, m);
  }
  ASSERT_EQ(discoverer->n(), total_n);

  const series::CumulativeSeries cumulative(counts);
  const series::SeriesStore fresh =
      series::SeriesStore::Build(cumulative, block, total_n);
  const series::SeriesStore* maintained = discoverer->store();
  ASSERT_NE(maintained, nullptr);
  ASSERT_EQ(maintained->size(), fresh.size());
  EXPECT_EQ(std::memcmp(maintained->data(), fresh.data(), fresh.size()), 0);
}

// StreamSession drives the monitor and the discoverer off one ingest path.
TEST(StreamSession, FeedsBothPlanesAndMatchesFreshDiscovery) {
  const int64_t total_n = 120;
  const int64_t initial_n = 40;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/23, total_n);

  TableauRequest request;
  request.algorithm = AlgorithmKind::kNonAreaBased;
  request.epsilon = 0.05;
  request.s_hat = 0.4;
  stream::StreamOptions stream_options;
  stream_options.window = 16;

  auto session = incr::StreamSession::Create(counts.Prefix(initial_n), request,
                                             stream_options);
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ(session->monitor().ticks(), initial_n);

  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  for (int64_t at = initial_n; at < total_n; at += 16) {
    const int64_t m = std::min<int64_t>(16, total_n - at);
    session->ObserveBatch(a.data() + at, b.data() + at, m);
  }
  EXPECT_EQ(session->monitor().ticks(), total_n);
  EXPECT_EQ(session->n(), total_n);

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  const auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(session->tableau(), fresh.value(), " stream-session");
}

// Append-only mode defers heap maintenance and cover selection to
// RefreshCover; at every refresh point the tableau must be bit-identical
// to from-scratch discovery — regardless of how many batches accumulated
// between refreshes.
TEST(AppendOnlyMode, RefreshPointsMatchFreshDiscovery) {
  const int64_t total_n = 160;
  const int64_t initial_n = 30;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/77, total_n);

  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt,
        AlgorithmKind::kNonAreaBased, AlgorithmKind::kExhaustive}) {
    TableauRequest request;
    request.algorithm = kind;
    request.type = TableauType::kFail;
    request.c_hat = 0.6;
    request.s_hat = 0.1;
    request.epsilon = 0.05;

    auto discoverer =
        IncrementalDiscoverer::Create(counts.Prefix(initial_n), request);
    ASSERT_TRUE(discoverer.ok()) << discoverer.status().message();
    discoverer->SetAppendOnly(true);
    EXPECT_FALSE(discoverer->cover_stale());  // Create refreshed eagerly

    const std::vector<double>& a = counts.outbound();
    const std::vector<double>& b = counts.inbound();
    int64_t at = initial_n;
    int64_t batch = 7;  // varying batch sizes between refresh points
    while (at < total_n) {
      // Several deferred appends per refresh point.
      for (int i = 0; i < 3 && at < total_n; ++i, batch += 3) {
        const int64_t m = std::min<int64_t>(batch, total_n - at);
        discoverer->AppendBatch(a.data() + at, b.data() + at, m);
        at += m;
        EXPECT_TRUE(discoverer->cover_stale());
      }
      const Tableau& refreshed = discoverer->RefreshCover();
      EXPECT_FALSE(discoverer->cover_stale());

      const series::CumulativeSeries cumulative(counts.Prefix(at));
      const core::ConfidenceEvaluator eval(&cumulative, request.model);
      const auto fresh = core::DiscoverTableau(eval, request);
      ASSERT_TRUE(fresh.ok()) << fresh.status().message();
      ExpectSameTableau(refreshed, fresh.value(),
                        " append-only n=" + std::to_string(at) + " alg=" +
                            std::to_string(static_cast<int>(kind)));
      if (::testing::Test::HasFailure()) return;
    }
    // RefreshCover on a fresh cover is a no-op.
    const Tableau& again = discoverer->RefreshCover();
    EXPECT_EQ(&again, &discoverer->tableau());
  }

  // Long deferral: 256 deferred 64-tick batches, then a single refresh,
  // under the default request and the paper's Table II request (AB, debit,
  // fail, c_hat = s_hat = 0.5).
  const int64_t kBatch = 64;
  const int64_t kDeferred = 256;
  const int64_t long_n = kBatch * (kDeferred + 1);
  const series::CountSequence long_counts =
      testing_util::RandomDominatedCounts(/*seed=*/78, long_n);
  TableauRequest table2;
  table2.type = TableauType::kFail;
  table2.model = ConfidenceModel::kDebit;
  table2.c_hat = 0.5;
  table2.s_hat = 0.5;
  for (const TableauRequest& request : {TableauRequest{}, table2}) {
    auto discoverer =
        IncrementalDiscoverer::Create(long_counts.Prefix(kBatch), request);
    ASSERT_TRUE(discoverer.ok()) << discoverer.status().message();
    discoverer->SetAppendOnly(true);
    for (int64_t at = kBatch; at < long_n; at += kBatch) {
      discoverer->AppendBatch(long_counts.outbound().data() + at,
                              long_counts.inbound().data() + at, kBatch);
    }
    EXPECT_TRUE(discoverer->cover_stale());
    const series::CumulativeSeries cumulative(long_counts);
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    const auto fresh = core::DiscoverTableau(eval, request);
    ASSERT_TRUE(fresh.ok()) << fresh.status().message();
    ExpectSameTableau(discoverer->RefreshCover(), fresh.value(),
                      " long deferral model=" +
                          std::to_string(static_cast<int>(request.model)));
  }
}

// Toggling append-only off mid-stream resumes eager per-batch maintenance
// (the serving daemon's --append_only=false path).
TEST(AppendOnlyMode, ToggleBackToEagerMatchesFreshDiscovery) {
  const int64_t total_n = 100;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/91, total_n);

  TableauRequest request;
  request.algorithm = AlgorithmKind::kAreaBasedOpt;
  request.type = TableauType::kHold;
  request.c_hat = 0.7;
  request.s_hat = 0.2;

  auto discoverer = IncrementalDiscoverer::Create(counts.Prefix(40), request);
  ASSERT_TRUE(discoverer.ok()) << discoverer.status().message();
  discoverer->SetAppendOnly(true);
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  discoverer->AppendBatch(a.data() + 40, b.data() + 40, 30);
  EXPECT_TRUE(discoverer->cover_stale());
  discoverer->RefreshCover();

  discoverer->SetAppendOnly(false);
  discoverer->AppendBatch(a.data() + 70, b.data() + 70, 30);
  EXPECT_FALSE(discoverer->cover_stale());  // eager again

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  const auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(discoverer->tableau(), fresh.value(), " toggle-eager");
}

}  // namespace
}  // namespace conservation
