// google-benchmark microbenchmarks of the library's building blocks, plus
// ablations of the design choices called out in DESIGN.md §4:
//   * cumulative preprocessing and O(1) confidence evaluation;
//   * candidate generation across algorithms;
//   * Delta mode (min positive count vs 1) — affects AB's level count;
//   * largest-first early exit;
//   * greedy partial set cover;
//   * batch SIMD kernels vs the forced-scalar backend.
//
// Kernel-record mode: --kernel_json=PATH skips google-benchmark and writes
// BenchJson records comparing the dispatched SIMD backend against the
// forced-scalar backend (identical arithmetic to a CONSERVATION_SIMD=off
// build) — per batch op and sweep width, plus end-to-end single-thread
// generator runs. The repo-root BENCH_kernel.json trajectory is generated
// this way; --quick=1 shrinks the sizes for the ctest smoke, and
// --repeats=R / --warmups=W override the best-of-R measurement counts
// (each record carries the counts it was measured with).
//
// Sketch-screen record mode: --sketch_json=PATH runs the exhaustive, AB
// and AB-opt generators (the ones the screen covers) on adversarial series
// families with the quantized-sketch anchor screen off
// and on (interval/prune.h), asserts the candidate sets are bit-identical,
// and records seconds + prune rate per (family, algorithm, mode) — plus
// the series/store.h per-tier resident-footprint records. The repo-root
// BENCH_sketch.json trajectory is generated this way; --quick=1 shrinks
// the sizes for the ctest smoke, and --check_speedup=X gates the
// high-prune family's best end-to-end speedup (and the cold tier's
// <= 2 B/tick budget).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "core/confidence.h"
#include "core/tableau.h"
#include "cover/partial_set_cover.h"
#include "datagen/job_log.h"
#include "incr/incremental.h"
#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/kernel_simd.h"
#include "interval/prune.h"
#include "series/cumulative.h"
#include "series/store.h"
#include "stream/streaming_monitor.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace conservation;

const series::CountSequence& JobCounts(int64_t n) {
  static auto* cache = new std::map<int64_t, series::CountSequence>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    datagen::JobLogParams params;
    params.num_ticks = n;
    it = cache->emplace(n, datagen::GenerateJobLog(params).counts).first;
  }
  return it->second;
}

void BM_CumulativeBuild(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(state.range(0));
  for (auto _ : state) {
    series::CumulativeSeries cumulative(counts);
    benchmark::DoNotOptimize(cumulative.TotalDelay());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CumulativeBuild)->Arg(10000)->Arg(100000);

void BM_ConfidenceQuery(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(100000);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kCredit);
  util::Rng rng(7);
  int64_t i = 1;
  int64_t j = 50000;
  for (auto _ : state) {
    i = (i * 48271) % 99991 + 1;
    j = i + (j * 16807) % (100000 - i) ;
    benchmark::DoNotOptimize(eval.Confidence(i, j));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfidenceQuery);

void GeneratorBench(benchmark::State& state, interval::AlgorithmKind kind,
                    core::TableauType type, double c_hat,
                    interval::DeltaMode delta_mode, bool early_exit) {
  const series::CountSequence& counts = JobCounts(state.range(0));
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  interval::GeneratorOptions options;
  options.type = type;
  options.c_hat = c_hat;
  options.epsilon = 0.01;
  options.delta_mode = delta_mode;
  options.largest_first_early_exit = early_exit;
  const auto generator = interval::MakeGenerator(kind);
  interval::GeneratorStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator->Generate(eval, options, &stats));
  }
  state.counters["tests"] = static_cast<double>(stats.intervals_tested);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_GenerateHold_AB(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kAreaBased,
                 core::TableauType::kHold, 0.999,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateHold_AB)->Arg(20000)->Arg(50000);

void BM_GenerateHold_NAB(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBased,
                 core::TableauType::kHold, 0.999,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateHold_NAB)->Arg(20000)->Arg(50000);

void BM_GenerateFail_NABOpt(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBasedOpt,
                 core::TableauType::kFail, 0.1,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateFail_NABOpt)->Arg(20000)->Arg(50000);

// Ablation: Delta = min positive count (theory) vs Delta = 1 (paper impl).
// With integer counts whose minimum positive value is 1 they coincide; the
// job data has min 1, so we scale counts by 1000 to expose the difference.
void BM_Ablation_DeltaMode(benchmark::State& state) {
  const series::CountSequence scaled = JobCounts(50000).Scaled(1000.0);
  const series::CumulativeSeries cumulative(scaled);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  interval::GeneratorOptions options;
  options.type = core::TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  options.delta_mode = state.range(0) == 0
                           ? interval::DeltaMode::kMinPositiveCount
                           : interval::DeltaMode::kOne;
  const auto generator =
      interval::MakeGenerator(interval::AlgorithmKind::kAreaBased);
  interval::GeneratorStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator->Generate(eval, options, &stats));
  }
  state.counters["tests"] = static_cast<double>(stats.intervals_tested);
  state.SetLabel(state.range(0) == 0 ? "delta=min_positive" : "delta=1");
}
BENCHMARK(BM_Ablation_DeltaMode)->Arg(0)->Arg(1);

// Ablation: largest-first early exit (§VI closing remark).
void BM_Ablation_EarlyExit(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBasedOpt,
                 core::TableauType::kHold, 0.99,
                 interval::DeltaMode::kMinPositiveCount,
                 state.range(1) == 1);
}
BENCHMARK(BM_Ablation_EarlyExit)
    ->Args({50000, 0})
    ->Args({50000, 1});

void BM_StreamObserve(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(100000);
  stream::StreamOptions options;
  options.model = state.range(0) == 0 ? core::ConfidenceModel::kBalance
                                      : core::ConfidenceModel::kCredit;
  options.window = 256;
  for (auto _ : state) {
    stream::StreamingMonitor monitor(options);
    for (int64_t t = 1; t <= counts.n(); ++t) {
      monitor.Observe(counts.a(t), counts.b(t));
    }
    benchmark::DoNotOptimize(monitor.episodes().size());
  }
  state.SetItemsProcessed(state.iterations() * counts.n());
  state.SetLabel(options.model == core::ConfidenceModel::kBalance
                     ? "balance"
                     : "credit");
}
BENCHMARK(BM_StreamObserve)->Arg(0)->Arg(1);

// Contiguous batch-confidence sweep, dispatched backend vs forced scalar
// (range(1): 0 = scalar, 1 = dispatched). The JSON trajectory in
// BENCH_kernel.json is produced by the --kernel_json record mode below;
// this registered variant is the interactive view of the same sweep.
void BM_KernelConfidenceBatch(benchmark::State& state) {
  namespace ii = conservation::interval::internal;
  const int64_t width = state.range(0);
  const ii::SimdBackend backend = state.range(1) == 0
                                      ? ii::SimdBackend::kScalar
                                      : ii::ActiveSimdBackend();
  const int64_t n = 1 << 16;
  const series::CountSequence& counts = JobCounts(n);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  const ii::SimdBackend saved = ii::ActiveSimdBackend();
  ii::SetSimdBackendForTest(backend);
  ii::ConfidenceKernel kernel(eval, core::TableauType::kHold);
  ii::SetSimdBackendForTest(saved);
  kernel.BeginAnchor(1);
  std::vector<double> conf(static_cast<size_t>(width));
  std::vector<uint8_t> valid(static_cast<size_t>(width));
  int64_t j0 = 1;
  for (auto _ : state) {
    kernel.ConfidenceBatch(j0, j0 + width - 1, conf.data(), valid.data());
    benchmark::DoNotOptimize(conf[0]);
    j0 += width;
    if (j0 + width > n) j0 = 1;
  }
  state.SetItemsProcessed(state.iterations() * width);
  state.SetLabel(ii::SimdBackendName(backend));
}
BENCHMARK(BM_KernelConfidenceBatch)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_GreedyPartialSetCover(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(17);
  std::vector<interval::Interval> candidates;
  for (int k = 0; k < 2000; ++k) {
    const int64_t begin = rng.UniformInt(1, n);
    candidates.push_back(
        interval::Interval{begin, std::min(n, begin + rng.UniformInt(1, 400))});
  }
  cover::CoverOptions options;
  options.s_hat = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cover::GreedyPartialSetCover(candidates, n, options));
  }
}
BENCHMARK(BM_GreedyPartialSetCover)->Arg(20000)->Arg(100000);

// --- Kernel-record mode (--kernel_json=PATH) ------------------------------

namespace ii = conservation::interval::internal;

// Minimum of `trials` timed runs of body() after `warmups` untimed ones;
// min filters scheduler noise on shared machines better than the mean.
template <typename Body>
double TimeBest(int trials, int warmups, Body&& body) {
  for (int w = 0; w < warmups; ++w) body();
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    util::Stopwatch timer;
    body();
    const double elapsed = timer.ElapsedSeconds();
    if (t == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

struct KernelBenchEnv {
  const series::CumulativeSeries& cumulative;
  const core::ConfidenceEvaluator eval;
  int64_t n;
  int64_t lanes_per_run;  // lane budget per timed measurement
  KernelBenchEnv(const series::CumulativeSeries& cum, int64_t n_,
                 int64_t lanes)
      : cumulative(cum),
        eval(&cumulative, core::ConfidenceModel::kBalance),
        n(n_),
        lanes_per_run(lanes) {}
};

// One micro record: run `op` (a per-batch callable taking the kernel and a
// batch ordinal) lanes_per_run/width times on the given backend.
template <typename Op>
double TimeKernelOp(const KernelBenchEnv& env, ii::SimdBackend backend,
                    int64_t width, int trials, int warmups, Op&& op) {
  const ii::SimdBackend saved = ii::ActiveSimdBackend();
  ii::SetSimdBackendForTest(backend);
  ii::ConfidenceKernel kernel(env.eval, core::TableauType::kHold);
  ii::SetSimdBackendForTest(saved);
  const int64_t reps = std::max<int64_t>(1, env.lanes_per_run / width);
  return TimeBest(trials, warmups, [&] {
    for (int64_t r = 0; r < reps; ++r) op(kernel, r);
  });
}

int RunKernelBench(int argc, char** argv, const std::string& json_path) {
  const bool quick = bench::IntFlag(argc, argv, "quick", 0) != 0;
  // Best-of-R measurement counts; each record carries the counts it was
  // measured with so trajectories stay comparable across overrides.
  const int micro_repeats =
      static_cast<int>(bench::IntFlag(argc, argv, "repeats", 3));
  const int gen_repeats = static_cast<int>(
      bench::IntFlag(argc, argv, "repeats", quick ? 1 : 5));
  const int warmups =
      static_cast<int>(bench::IntFlag(argc, argv, "warmups", 1));
  bench::BenchJson json("kernel", json_path);
  const ii::SimdBackend dispatched = ii::ActiveSimdBackend();
  std::printf("dispatched backend: %s\n", ii::SimdBackendName(dispatched));

  const int64_t n = 1 << 16;
  const series::CumulativeSeries cumulative(JobCounts(n));
  KernelBenchEnv env(cumulative, n, quick ? (1 << 18) : (1 << 22));

  std::vector<double> conf(4096);
  std::vector<uint8_t> valid(4096);
  std::vector<int64_t> indices(4096);

  struct Role {
    const char* name;
    ii::SimdBackend backend;
  };
  const Role roles[] = {{"scalar", ii::SimdBackend::kScalar},
                        {"dispatched", dispatched}};

  // Per-op, per-width micro sweeps. n(record) = sweep width; model carries
  // the role; the backend field records what actually ran.
  for (const int64_t width : {16L, 64L, 256L, 1024L, 4096L}) {
    double role_seconds[2] = {0.0, 0.0};
    for (int r = 0; r < 2; ++r) {
      const Role& role = roles[r];
      // BenchJson stamps each record's backend field from the active
      // backend; pin it to this role so the scalar rows don't carry the
      // dispatched backend's name.
      ii::SetSimdBackendForTest(role.backend);

      // Exhaustive-shaped contiguous confidence sweep over [i, n].
      double seconds = TimeKernelOp(
          env, role.backend, width, micro_repeats, warmups,
          [&](ii::ConfidenceKernel& k, int64_t rep) {
            const int64_t j0 = 1 + (rep * width) % (env.n - width);
            if (rep == 0) k.BeginAnchor(1);
            k.ConfidenceBatch(j0, j0 + width - 1, conf.data(), valid.data());
          });
      json.Add(width, "confidence_batch", role.name, 1, seconds,
               static_cast<uint64_t>(width));
      json.AnnotateTrials(micro_repeats, warmups);
      role_seconds[r] = seconds;

      // AB-opt-shaped index-list probe (strided breakpoints).
      for (int64_t k = 0; k < width; ++k) {
        indices[static_cast<size_t>(k)] =
            1 + (k * 7) % (env.n - 1);
      }
      std::sort(indices.begin(), indices.begin() + width);
      seconds = TimeKernelOp(
          env, role.backend, width, micro_repeats, warmups,
          [&](ii::ConfidenceKernel& k, int64_t rep) {
            if (rep == 0) k.BeginAnchor(1);
            k.ConfidenceIndexBatch(indices.data(), width, conf.data(),
                                   valid.data());
          });
      json.Add(width, "confidence_index_batch", role.name, 1, seconds,
               static_cast<uint64_t>(width));
      json.AnnotateTrials(micro_repeats, warmups);

      // AB-shaped sparsification-area walk window.
      seconds = TimeKernelOp(
          env, role.backend, width, micro_repeats, warmups,
          [&](ii::ConfidenceKernel& k, int64_t rep) {
            const int64_t j0 = 1 + (rep * width) % (env.n - width);
            if (rep == 0) k.BeginAnchor(1);
            k.SparseAreaBatch(j0, j0 + width - 1, conf.data());
          });
      json.Add(width, "sparse_area_batch", role.name, 1, seconds,
               static_cast<uint64_t>(width));
      json.AnnotateTrials(micro_repeats, warmups);

      // NAB-shaped right-anchored probe.
      seconds = TimeKernelOp(
          env, role.backend, width, micro_repeats, warmups,
          [&](ii::ConfidenceKernel& k, int64_t rep) {
            if (rep == 0) k.BeginRightAnchor(env.n);
            k.ConfidenceFromBatch(indices.data(), width, conf.data(),
                                  valid.data());
          });
      json.Add(width, "confidence_from_batch", role.name, 1, seconds,
               static_cast<uint64_t>(width));
      json.AnnotateTrials(micro_repeats, warmups);
    }
    ii::SetSimdBackendForTest(dispatched);
    std::printf("confidence_batch width=%5lld: scalar %.4fs dispatched %.4fs"
                " speedup %.2fx\n",
                static_cast<long long>(width), role_seconds[0],
                role_seconds[1], role_seconds[0] / role_seconds[1]);
  }

  // End-to-end single-thread generator runs, dispatched vs scalar. The
  // exhaustive and AB-opt rows are the acceptance-tracked endpoint sweeps.
  struct GenCase {
    const char* name;
    interval::AlgorithmKind kind;
    int64_t n;
    double epsilon;
  };
  const GenCase cases[] = {
      {"exhaustive", interval::AlgorithmKind::kExhaustive,
       quick ? 800 : 6000, 0.01},
      {"ab", interval::AlgorithmKind::kAreaBased, quick ? 20000 : 200000,
       0.01},
      {"ab_opt", interval::AlgorithmKind::kAreaBasedOpt,
       quick ? 20000 : 200000, 0.01},
      {"nab", interval::AlgorithmKind::kNonAreaBased, quick ? 20000 : 200000,
       0.01},
  };
  for (const GenCase& gen_case : cases) {
    const series::CumulativeSeries gen_cumulative(JobCounts(gen_case.n));
    const core::ConfidenceEvaluator gen_eval(&gen_cumulative,
                                             core::ConfidenceModel::kBalance);
    interval::GeneratorOptions options;
    options.type = core::TableauType::kHold;
    options.c_hat = 0.999;
    options.epsilon = gen_case.epsilon;
    options.num_threads = 1;
    const auto generator = interval::MakeGenerator(gen_case.kind);
    // Role-interleaved repeats: run scalar and dispatched back to back
    // inside every repeat instead of as sequential blocks, so the reported
    // ratio compares runs seconds apart. Shared/virtualized machines drift
    // by double-digit percentages over a multi-minute blocked schedule,
    // which is larger than the effect being measured.
    double role_seconds[2] = {0.0, 0.0};
    uint64_t tested = 0;
    for (int rep = -warmups; rep < gen_repeats; ++rep) {
      for (int r = 0; r < 2; ++r) {
        ii::SetSimdBackendForTest(roles[r].backend);
        interval::GeneratorStats stats;
        stats.Reset();
        util::Stopwatch timer;
        generator->Generate(gen_eval, options, &stats);
        const double seconds = timer.ElapsedSeconds();
        if (rep < 0) continue;  // warmup
        if (role_seconds[r] == 0.0 || seconds < role_seconds[r]) {
          role_seconds[r] = seconds;
        }
        tested = stats.intervals_tested;
      }
    }
    for (int r = 0; r < 2; ++r) {
      json.Add(gen_case.n, gen_case.name, roles[r].name, 1, role_seconds[r],
               tested);
      json.AnnotateTrials(gen_repeats, warmups);
    }
    ii::SetSimdBackendForTest(dispatched);
    std::printf("%-10s n=%7lld tested=%llu: scalar %.4fs dispatched %.4fs "
                "speedup %.2fx\n",
                gen_case.name, static_cast<long long>(gen_case.n),
                static_cast<unsigned long long>(tested), role_seconds[0],
                role_seconds[1], role_seconds[0] / role_seconds[1]);
  }

  json.Flush();
  return 0;
}

// --- Sketch-screen record mode (--sketch_json=PATH) -----------------------
//
// Three series families spanning the screen's effectiveness range:
//   low_conf_hold - fat inbound stream, a few isolated outbound spikes:
//                   hold confidence is tiny everywhere and a high c_hat
//                   prunes (nearly) every anchor. The acceptance-tracked
//                   high-prune-rate family.
//   uniform_pass  - a == b: confidence is 1 everywhere, nothing can be
//                   pruned; measures the screen's overhead ceiling.
//   joblog        - the stock job-log workload: moderate prune rates.
series::CountSequence SketchFamily(const std::string& family, int64_t n) {
  if (family == "joblog") return JobCounts(n);
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  util::Rng rng(41);
  if (family == "low_conf_hold") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = 2.0 + static_cast<double>(rng.Poisson(6.0));
      if (t % 97 == 13) a[static_cast<size_t>(t)] = 1.0;
    }
  } else {  // uniform_pass
    for (int64_t t = 0; t < n; ++t) {
      const double v = 1.0 + static_cast<double>(rng.Poisson(3.0));
      a[static_cast<size_t>(t)] = v;
      b[static_cast<size_t>(t)] = v;
    }
  }
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

int RunSketchBench(int argc, char** argv, const std::string& json_path) {
  const bool quick = bench::IntFlag(argc, argv, "quick", 0) != 0;
  const int repeats = static_cast<int>(
      bench::IntFlag(argc, argv, "repeats", quick ? 1 : 3));
  const int warmups = static_cast<int>(
      bench::IntFlag(argc, argv, "warmups", quick ? 0 : 1));
  const double check_speedup =
      bench::DoubleFlag(argc, argv, "check_speedup", 0.0);
  const int64_t sketch_block = bench::IntFlag(argc, argv, "sketch_block", 256);
  bench::BenchJson json("sketch", json_path);
  std::printf("dispatched backend: %s\n",
              ii::SimdBackendName(ii::ActiveSimdBackend()));

  const int64_t n = bench::IntFlag(argc, argv, "n", quick ? 20000 : 200000);
  const int64_t n_exhaustive = quick ? 2000 : 20000;

  struct Algo {
    const char* name;
    interval::AlgorithmKind kind;
  };
  // The screen is left-anchored, so only these generators consult it.
  const Algo algos[] = {
      {"exhaustive", interval::AlgorithmKind::kExhaustive},
      {"ab", interval::AlgorithmKind::kAreaBased},
      {"ab_opt", interval::AlgorithmKind::kAreaBasedOpt},
  };
  double best_high_prune_speedup = 0.0;
  bool gate_failed = false;
  for (const std::string family :
       {"low_conf_hold", "uniform_pass", "joblog"}) {
    for (const Algo& algo : algos) {
      const int64_t algo_n =
          algo.kind == interval::AlgorithmKind::kExhaustive ? n_exhaustive : n;
      const series::CumulativeSeries cumulative(SketchFamily(family, algo_n));
      const core::ConfidenceEvaluator eval(&cumulative,
                                           core::ConfidenceModel::kBalance);
      const auto generator = interval::MakeGenerator(algo.kind);
      interval::GeneratorOptions options;
      options.type = core::TableauType::kHold;
      options.c_hat = 0.9;
      options.epsilon = 0.01;
      options.num_threads = 1;
      options.sketch_block = sketch_block;

      // Mode-interleaved best-of-R (see RunKernelBench on why interleaving
      // beats blocked scheduling on shared machines), with the candidate
      // bit-identity contract asserted on every timed pair.
      double mode_seconds[2] = {0.0, 0.0};  // [0] = off, [1] = auto
      interval::GeneratorStats auto_stats;
      for (int rep = -warmups; rep < repeats; ++rep) {
        std::vector<interval::Candidate> outputs[2];
        for (int m = 0; m < 2; ++m) {
          options.sketch = m == 0 ? interval::SketchMode::kOff
                                  : interval::SketchMode::kAuto;
          interval::GeneratorStats stats;
          util::Stopwatch timer;
          outputs[m] = generator->GenerateCandidates(eval, options, &stats);
          const double seconds = timer.ElapsedSeconds();
          if (rep >= 0 &&
              (mode_seconds[m] == 0.0 || seconds < mode_seconds[m])) {
            mode_seconds[m] = seconds;
          }
          if (m == 1) auto_stats = stats;
        }
        CR_CHECK(outputs[0].size() == outputs[1].size());
        for (size_t k = 0; k < outputs[0].size(); ++k) {
          CR_CHECK(outputs[0][k].interval == outputs[1][k].interval);
          CR_CHECK(outputs[0][k].confidence == outputs[1][k].confidence);
        }
      }
      const double speedup = mode_seconds[1] > 0.0
                                 ? mode_seconds[0] / mode_seconds[1]
                                 : 0.0;
      interval::GeneratorStats off_stats;
      json.AddSketch(algo_n, algo.name, family, 1, mode_seconds[0], "off",
                     sketch_block, 0.0, off_stats);
      json.AnnotateTrials(repeats, warmups);
      json.AddSketch(algo_n, algo.name, family, 1, mode_seconds[1], "auto",
                     sketch_block, speedup, auto_stats);
      json.AnnotateTrials(repeats, warmups);
      const double prune_rate =
          static_cast<double>(auto_stats.anchors_pruned) /
          static_cast<double>(algo_n);
      std::printf("%-14s %-10s n=%7lld prune=%5.3f off %.4fs auto %.4fs "
                  "speedup %.2fx\n",
                  family.c_str(), algo.name,
                  static_cast<long long>(algo_n), prune_rate,
                  mode_seconds[0], mode_seconds[1], speedup);
      if (family == "low_conf_hold") {
        best_high_prune_speedup =
            std::max(best_high_prune_speedup, speedup);
      }
    }
  }

  // Store tier footprints (series/store.h): estimated resident bytes per
  // tick at each tier, with the cold tier gated at <= 2 B/tick.
  {
    const series::CumulativeSeries cumulative(SketchFamily("joblog", n));
    series::SeriesStore store =
        series::SeriesStore::Build(cumulative, sketch_block);
    const auto per_tick = [&](size_t bytes) {
      return static_cast<double>(bytes) / static_cast<double>(n);
    };
    const double full_bpt = per_tick(store.ResidentBytesEstimate());
    store.Evict(series::SeriesStore::Tier::kSketch);
    const double sketch_bpt = per_tick(store.ResidentBytesEstimate());
    store.Evict(series::SeriesStore::Tier::kCold);
    const double cold_bpt = per_tick(store.ResidentBytesEstimate());
    json.AddStoreFootprint(n, "full", sketch_block, full_bpt);
    json.AddStoreFootprint(n, "sketch", sketch_block, sketch_bpt);
    json.AddStoreFootprint(n, "cold", sketch_block, cold_bpt);
    std::printf("store tiers (B/tick): full %.2f sketch %.2f cold %.2f\n",
                full_bpt, sketch_bpt, cold_bpt);
    if (cold_bpt > 2.0) {
      std::fprintf(stderr, "FAIL: cold tier %.2f B/tick > 2.0 budget\n",
                   cold_bpt);
      gate_failed = true;
    }
  }

  // Auto-gate boundary assertion (--check_gate_overhead=F): at the smallest
  // series the auto gate admits (n = kSketchAutoGateBlocks * sketch_block,
  // see interval/prune.h for the sweep that fixed the constant), the screen
  // must not slow generation down by more than fraction F on either the
  // unprunable overhead-ceiling family (uniform_pass) or the prunable one
  // (low_conf_hold, where it is expected to win outright). Guards the gate
  // constant against overhead regressions in the screen's setup path.
  const double check_gate_overhead =
      bench::DoubleFlag(argc, argv, "check_gate_overhead", 0.0);
  if (check_gate_overhead > 0.0) {
    const int64_t n_gate = ii::kSketchAutoGateBlocks * sketch_block;
    const int gate_repeats = std::max(repeats, 5);
    for (const std::string family : {"low_conf_hold", "uniform_pass"}) {
      const series::CumulativeSeries cumulative(SketchFamily(family, n_gate));
      const core::ConfidenceEvaluator eval(&cumulative,
                                           core::ConfidenceModel::kBalance);
      const auto generator =
          interval::MakeGenerator(interval::AlgorithmKind::kAreaBasedOpt);
      interval::GeneratorOptions options;
      options.type = core::TableauType::kHold;
      options.c_hat = 0.9;
      options.epsilon = 0.01;
      options.num_threads = 1;
      options.sketch_block = sketch_block;
      double mode_seconds[2] = {0.0, 0.0};  // [0] = off, [1] = auto
      for (int rep = -warmups; rep < gate_repeats; ++rep) {
        for (int m = 0; m < 2; ++m) {
          options.sketch = m == 0 ? interval::SketchMode::kOff
                                  : interval::SketchMode::kAuto;
          interval::GeneratorStats stats;
          util::Stopwatch timer;
          auto out = generator->GenerateCandidates(eval, options, &stats);
          const double seconds = timer.ElapsedSeconds();
          benchmark::DoNotOptimize(out);
          if (rep >= 0 &&
              (mode_seconds[m] == 0.0 || seconds < mode_seconds[m])) {
            mode_seconds[m] = seconds;
          }
        }
      }
      const double overhead = mode_seconds[0] > 0.0
                                  ? mode_seconds[1] / mode_seconds[0] - 1.0
                                  : 0.0;
      std::printf("gate boundary n=%lld %-14s off %.5fs auto %.5fs "
                  "overhead %+.1f%%\n",
                  static_cast<long long>(n_gate), family.c_str(),
                  mode_seconds[0], mode_seconds[1], overhead * 100.0);
      if (overhead > check_gate_overhead) {
        std::fprintf(stderr,
                     "FAIL: auto-gate boundary overhead %.1f%% > %.1f%% "
                     "budget on %s\n",
                     overhead * 100.0, check_gate_overhead * 100.0,
                     family.c_str());
        gate_failed = true;
      }
    }
  }

  if (check_speedup > 0.0) {
    if (best_high_prune_speedup >= check_speedup) {
      std::printf("speedup gate passed: %.2fx >= %.2fx on low_conf_hold\n",
                  best_high_prune_speedup, check_speedup);
    } else {
      std::fprintf(stderr,
                   "FAIL: best low_conf_hold speedup %.2fx < %.2fx\n",
                   best_high_prune_speedup, check_speedup);
      gate_failed = true;
    }
  }

  json.Flush();
  return gate_failed ? 1 : 0;
}

// --- Incremental-maintenance record mode (--incr_json=PATH) ---------------
//
// Amortized per-batch maintenance latency of incr::IncrementalDiscoverer
// against the from-scratch strategy (one full DiscoverTableau per arriving
// batch) on the job-log workload, at batch sizes {1, 64, 4096}. Only the
// steady-state tail of the stream is timed: the engine is warmed with a
// prefix of n - batches*batch ticks, then each of the remaining AppendBatch
// calls is timed individually and averaged. After the replay the maintained
// tableau is CR_CHECKed bit-identical to a fresh DiscoverTableau at n —
// the speedup rows are only meaningful under the exactness contract.
// --check_speedup=S fails the run when any (algorithm, batch) configuration
// amortizes worse than S x the from-scratch latency.
void CheckTableauIdentity(const core::Tableau& incremental,
                          const core::Tableau& fresh) {
  CR_CHECK(incremental.rows.size() == fresh.rows.size());
  for (size_t r = 0; r < fresh.rows.size(); ++r) {
    CR_CHECK(incremental.rows[r].interval == fresh.rows[r].interval);
    CR_CHECK(std::memcmp(&incremental.rows[r].confidence,
                         &fresh.rows[r].confidence, sizeof(double)) == 0);
  }
  CR_CHECK(incremental.covered == fresh.covered);
  CR_CHECK(incremental.required == fresh.required);
  CR_CHECK(incremental.support_satisfied == fresh.support_satisfied);
  CR_CHECK(incremental.num_candidates == fresh.num_candidates);
}

int RunIncrBench(int argc, char** argv, const std::string& json_path) {
  const bool quick = bench::IntFlag(argc, argv, "quick", 0) != 0;
  // The fresh baseline at full size runs for tens of seconds — long enough
  // to be stable without best-of-repeats, so the default is a single timed
  // run; the incremental side is already a mean over `measured` batches.
  const int repeats =
      static_cast<int>(bench::IntFlag(argc, argv, "repeats", 1));
  const int warmups =
      static_cast<int>(bench::IntFlag(argc, argv, "warmups", 0));
  const double check_speedup =
      bench::DoubleFlag(argc, argv, "check_speedup", 0.0);
  const int64_t n = bench::IntFlag(argc, argv, "n", quick ? 20000 : 1000000);
  const int64_t measured =
      bench::IntFlag(argc, argv, "measured_batches", quick ? 4 : 32);
  bench::BenchJson json("incr", json_path);
  std::printf("dispatched backend: %s\n",
              ii::SimdBackendName(ii::ActiveSimdBackend()));

  struct Algo {
    const char* name;
    interval::AlgorithmKind kind;
  };
  // Exhaustive is quadratic and excluded at these sizes. AB and AB-opt
  // have separate incremental paths (AB's level ladder with per-batch
  // pointers and a largest-first fold, AB-opt's breakpoint chain), so both
  // are tracked.
  const Algo algos[] = {
      {"ab", interval::AlgorithmKind::kAreaBased},
      {"ab_opt", interval::AlgorithmKind::kAreaBasedOpt},
      {"nab", interval::AlgorithmKind::kNonAreaBased},
  };
  const int64_t batch_sizes[] = {1, 64, 4096};
  const series::CountSequence& counts = JobCounts(n);
  double worst_speedup = 0.0;
  bool have_speedup = false;
  bool gate_failed = false;
  for (const Algo& algo : algos) {
    core::TableauRequest request;
    request.type = core::TableauType::kHold;
    request.model = core::ConfidenceModel::kBalance;
    request.c_hat = 0.9;
    request.s_hat = 0.5;
    request.algorithm = algo.kind;
    request.epsilon = 0.01;
    request.num_threads = 1;

    // From-scratch baseline: what each arriving batch costs when the
    // strategy is "recompute the tableau over the full prefix".
    const series::CumulativeSeries cumulative(counts);
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    core::Tableau fresh_tableau;
    const double fresh_seconds = TimeBest(repeats, warmups, [&] {
      auto fresh = core::DiscoverTableau(eval, request);
      CR_CHECK(fresh.ok());
      fresh_tableau = std::move(fresh).value();
    });
    std::printf("%-7s n=%lld fresh full run %.4fs (%zu rows)\n", algo.name,
                static_cast<long long>(n), fresh_seconds,
                fresh_tableau.rows.size());
    json.AddIncr(n, algo.name, "joblog", "fresh", /*batch=*/0, /*batches=*/1,
                 fresh_seconds, /*speedup=*/0.0, 0, 0, 0, 0);
    json.AnnotateTrials(repeats, warmups);

    for (const int64_t batch : batch_sizes) {
      const int64_t initial_n = std::max<int64_t>(1, n - measured * batch);
      auto discoverer = incr::IncrementalDiscoverer::Create(
          counts.Prefix(initial_n), request);
      CR_CHECK(discoverer.ok());
      const std::vector<double>& a = counts.outbound();
      const std::vector<double>& b = counts.inbound();
      double total_seconds = 0.0;
      int64_t timed_batches = 0;
      int64_t at = initial_n;
      while (at < n) {
        const int64_t m = std::min<int64_t>(batch, n - at);
        util::Stopwatch timer;
        discoverer->AppendBatch(a.data() + at, b.data() + at, m);
        total_seconds += timer.ElapsedSeconds();
        at += m;
        ++timed_batches;
      }
      CheckTableauIdentity(discoverer->tableau(), fresh_tableau);
      const double mean_seconds = total_seconds /
                                  static_cast<double>(timed_batches);
      const double speedup =
          mean_seconds > 0.0 ? fresh_seconds / mean_seconds : 0.0;
      const incr::IncrStats& stats = discoverer->stats();
      std::printf("%-7s n=%lld batch=%5lld incr %.6fs/batch over %lld "
                  "batches speedup %8.1fx (identical)\n",
                  algo.name, static_cast<long long>(n),
                  static_cast<long long>(batch), mean_seconds,
                  static_cast<long long>(timed_batches), speedup);
      json.AddIncr(n, algo.name, "joblog", "incr", batch, timed_batches,
                   mean_seconds, speedup, stats.candidates_extended,
                   stats.cover_warm_pops, stats.full_rebuilds,
                   stats.dirty_anchors);
      if (!have_speedup || speedup < worst_speedup) worst_speedup = speedup;
      have_speedup = true;
    }
  }

  if (check_speedup > 0.0) {
    if (have_speedup && worst_speedup >= check_speedup) {
      std::printf("speedup gate passed: worst %.1fx >= %.1fx\n",
                  worst_speedup, check_speedup);
    } else {
      std::fprintf(stderr, "FAIL: worst amortized speedup %.1fx < %.1fx\n",
                   worst_speedup, check_speedup);
      gate_failed = true;
    }
  }

  json.Flush();
  return gate_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kernel_json =
      conservation::bench::StringFlag(argc, argv, "kernel_json", "");
  if (!kernel_json.empty()) return RunKernelBench(argc, argv, kernel_json);
  const std::string sketch_json =
      conservation::bench::StringFlag(argc, argv, "sketch_json", "");
  if (!sketch_json.empty()) return RunSketchBench(argc, argv, sketch_json);
  const std::string incr_json =
      conservation::bench::StringFlag(argc, argv, "incr_json", "");
  if (!incr_json.empty()) return RunIncrBench(argc, argv, incr_json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
