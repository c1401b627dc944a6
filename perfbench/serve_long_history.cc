// serve_long_history: the paper's Table II request (AB, debit model, fail
// tableau, c_hat = s_hat = 0.5) served incrementally by an in-process
// ServeDaemon on loopback to 8 router tenants pre-warmed with 16k ticks,
// driven by two closed-loop clients (one connection each, blocking on
// every ack, backpressure retried) that send each tenant's router stream
// in 64-tick frames, round-robin over the tenants they own.
//
// Untraced: epochs of a fixed number of ticks, each on a freshly set-up
// daemon and ended by Stop(), which drains every queue and refreshes every
// tableau, until --seconds of serving have passed. Traced: one epoch, then
// a single-threaded replay of the frames it acknowledged through
// FrameReader and TenantRegistry, alongside a standalone StreamingMonitor
// and append-only IncrementalDiscoverer per tenant, each call timed as a
// layer span.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/confidence.h"
#include "core/tableau.h"
#include "datagen/router.h"
#include "incr/incremental.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/tenant_registry.h"
#include "stream/streaming_monitor.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace conservation;

constexpr int kClients = 2;
// GenerateRouterFleet's clean routers; it adds six faulty ones: 8 tenants.
constexpr int kCleanRouters = 2;
// Ticks each tenant receives in one append before the daemon starts.
constexpr int64_t kPrewarm = 16384;
// Ticks each tenant is sent in one epoch, about 5 s of serving on a
// 4-vCPU Xeon VM. An epoch is a fixed amount of work, not a time slice:
// the append-only covers' unrefreshed backlog grows with every dispatch
// until Stop() refreshes it, so memory and drain time follow how many
// ticks an epoch served, and a time slice made them follow host speed.
constexpr int64_t kEpochTicks = 16384;
constexpr int64_t kFrame = 64;
// Sixteen frames per tenant queue: a client then waits on about one frame
// in seventeen, so the p99 ack lands well inside those waits. At the
// daemon's default of 4096 the waits are near 1% of frames and the p99
// flips between a loopback round trip and a whole dispatch.
constexpr int64_t kTenantQueueTicks = 1024;
// A client resends a refused frame after this pause.
constexpr std::chrono::milliseconds kRetryPause{1};
// discover_s times a from-scratch discovery over each tenant's first
// kReferenceTicks ticks, so its size does not follow how far a run got.
constexpr int64_t kReferenceTicks = 4096;

serve::TenantConfig TenantConfig() {
  serve::TenantConfig config;
  config.request.type = core::TableauType::kFail;
  config.request.model = core::ConfidenceModel::kDebit;
  config.request.algorithm = interval::AlgorithmKind::kAreaBased;
  config.request.c_hat = 0.5;
  config.request.s_hat = 0.5;
  // Delta = 1, as in the paper's own implementation (§IV), where crserved
  // defaults to the minimum positive count. Under that default every
  // record-low count rebuilds a tenant's whole state: a few costly,
  // randomly placed rebuilds per epoch set a run's throughput, drain time
  // and memory. Served that way, five-seed spreads (IQR / median) on a
  // 4-vCPU Xeon VM were 0.78 on ticks_per_s and 1.56 on fresh_s (15 s,
  // three epochs); 0.19 and 0.64 (20 s, six epochs on distinct seeds);
  // 0.10 and 0.90 (30 s, six epochs), at about 100 s per run. Delta-
  // decrease rebuilds therefore go unmeasured here.
  config.request.delta_mode = interval::DeltaMode::kOne;
  config.append_only = true;
  return config;
}

uint64_t TenantId(size_t index) { return static_cast<uint64_t>(index) + 1; }

// Enqueues each tenant's pre-warm ticks as one append and applies them on
// a few threads (distinct tenants only: the registry is unlocked data),
// then refreshes the covers. `also` runs per tenant on the same thread,
// after the registry's work.
template <typename Also>
void Prewarm(serve::TenantRegistry& registry,
             const std::vector<datagen::RouterData>& fleet, Also also) {
  std::vector<serve::Tenant*> tenants;
  for (size_t i = 0; i < fleet.size(); ++i) {
    serve::Tenant& tenant = registry.GetOrCreate(TenantId(i));
    registry.Enqueue(tenant, fleet[i].counts.outbound().data(),
                     fleet[i].counts.inbound().data(), kPrewarm);
    tenants.push_back(&tenant);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const int threads =
      std::min(Cores(), static_cast<int>(std::max<size_t>(1, fleet.size())));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < tenants.size(); i = next++) {
        registry.ApplyPending(*tenants[i]);
        registry.RefreshCover(*tenants[i]);
        also(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

struct Served {
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::vector<datagen::RouterData> fleet;
};

Served Setup(uint64_t seed) {
  Served served;
  served.fleet = datagen::GenerateRouterFleet(
      kCleanRouters, kPrewarm + kEpochTicks, DeriveSeed(seed, 3));
  serve::DaemonOptions options;
  options.readers = kClients;
  options.max_tenant_queue_ticks = kTenantQueueTicks;
  served.daemon =
      std::make_unique<serve::ServeDaemon>(TenantConfig(), options);
  Prewarm(served.daemon->registry(), served.fleet, [](size_t) {});
  CR_CHECK(served.daemon->Start().ok());
  return served;
}

// What the closed-loop phase observed.
struct Phase {
  std::vector<double> acks;         // seconds, first send to kOk
  std::vector<int64_t> frames;      // acknowledged frames per tenant
  int64_t ticks = 0;                // acknowledged ticks
  int64_t backpressure = 0;         // refusals retried
  int64_t refused = 0;              // refusals for any other reason
  int64_t transport_errors = 0;
  uint64_t backlog_max = 0;         // ingested - processed, sampled
  double first_send = 0.0;
  double last_ack = 0.0;
  double stopped = 0.0;             // Stop() returned
  serve::DaemonStats stats;
};

// Sends every tenant's epoch stream, then stops the daemon.
Phase RunClosedLoop(Served& served) {
  Phase phase;
  const size_t tenants = served.fleet.size();
  phase.frames.assign(tenants, 0);
  struct ClientResult {
    std::vector<double> acks;
    int64_t ticks = 0;
    int64_t backpressure = 0;
    int64_t refused = 0;
    int64_t transport_errors = 0;
    double last_ack = 0.0;
  };
  std::vector<ClientResult> results(kClients);
  std::atomic<bool> done{false};
  phase.first_send = Now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& out = results[static_cast<size_t>(c)];
      serve::ServeClient client;
      if (!client.Connect(served.daemon->port()).ok()) {
        ++out.transport_errors;
        return;
      }
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t i = static_cast<size_t>(c); i < tenants; i += kClients) {
          const int64_t at = kPrewarm + phase.frames[i] * kFrame;
          if (at + kFrame > served.fleet[i].counts.n()) continue;
          progress = true;
          const double* a = served.fleet[i].counts.outbound().data() + at;
          const double* b = served.fleet[i].counts.inbound().data() + at;
          const double sent = Now();
          for (;;) {
            auto ack = client.Append(TenantId(i), a, b, kFrame);
            if (!ack.ok()) {
              ++out.transport_errors;
              return;
            }
            if (ack->status == serve::AckStatus::kOk) {
              out.last_ack = Now();
              out.acks.push_back(out.last_ack - sent);
              out.ticks += kFrame;
              ++phase.frames[i];
              break;
            }
            if (ack->status != serve::AckStatus::kBackpressure) {
              ++out.refused;
              break;
            }
            ++out.backpressure;
            std::this_thread::sleep_for(kRetryPause);
          }
        }
      }
    });
  }
  std::thread sampler([&] {
    while (!done.load()) {
      const serve::DaemonStats stats = served.daemon->Stats();
      phase.backlog_max = std::max(
          phase.backlog_max, stats.ticks_ingested - stats.ticks_processed);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (std::thread& client : clients) client.join();
  done = true;
  sampler.join();
  served.daemon->Stop();
  phase.stopped = Now();
  phase.stats = served.daemon->Stats();
  for (const ClientResult& r : results) {
    phase.acks.insert(phase.acks.end(), r.acks.begin(), r.acks.end());
    phase.ticks += r.ticks;
    phase.backpressure += r.backpressure;
    phase.refused += r.refused;
    phase.transport_errors += r.transport_errors;
    phase.last_ack = std::max(phase.last_ack, r.last_ack);
  }
  return phase;
}

// Flow-control accounting: every refusal was backpressure, no tick was
// lost between ingest and apply.
void CheckPhase(const Phase& phase, Report* report) {
  report->Succeeded(phase.acks.size());
  for (int64_t i = 0; i < phase.refused + phase.transport_errors; ++i) {
    report->Attempt(false, "an append was refused for a reason other than "
                           "backpressure, or the connection failed");
  }
  report->Attempt(
      phase.stats.ticks_processed == phase.stats.ticks_ingested &&
          phase.stats.ticks_ingested == static_cast<uint64_t>(phase.ticks),
      "ticks lost: acknowledged, ingested and processed counts differ");
  report->Attempt(
      phase.stats.appends_rejected == static_cast<uint64_t>(phase.backpressure),
      "the daemon rejected appends the clients did not see as backpressure");
}

// The tenants' request on `threads` threads (the output is the same for
// every count).
core::TableauRequest ReferenceRequest(int threads) {
  core::TableauRequest request = TenantConfig().request;
  request.num_threads = threads;
  return request;
}

// The exactness contract: a served tableau equals a from-scratch discovery
// over the tenant's applied log. Returns the reference tableaux by tenant
// index (empty optionals for unchecked tenants) and records timings.
std::vector<std::optional<core::Tableau>> CheckExactness(
    serve::TenantRegistry& registry, size_t tenants, bool trace,
    Report* report, int* checked) {
  const core::TableauRequest request = ReferenceRequest(Cores());
  std::vector<std::optional<core::Tableau>> out(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    serve::Tenant* tenant = registry.Find(TenantId(i));
    report->Attempt(tenant != nullptr && tenant->session != nullptr,
                    "a pre-warmed tenant has no session");
    if (tenant == nullptr || tenant->session == nullptr) continue;
    // Stop() must leave every tableau refreshed: check it as it stands.
    report->Attempt(!tenant->cover_dirty,
                    "tenant " + std::to_string(TenantId(i)) +
                        ": tableau stale after Stop()");
    const core::Tableau& served = tenant->session->tableau();
    ++*checked;
    auto counts = series::CountSequence::Create(tenant->log_a, tenant->log_b);
    report->Attempt(counts.ok(), "a tenant's applied log is not a valid "
                                 "count sequence");
    if (!counts.ok()) continue;
    const double t0 = Now();
    const series::CumulativeSeries series(*counts);
    const double t1 = Now();
    const core::ConfidenceEvaluator eval(&series, request.model);
    core::Tableau fresh;
    if (trace) {
      Composition c = Compose(eval, request);
      report->Accumulate("series.build_s", t1 - t0);
      AccumulateLayers(c, series.n(), report);
      fresh = std::move(c.tableau);
    } else {
      auto discovered = core::DiscoverTableau(eval, request);
      report->Attempt(discovered.ok(), "DiscoverTableau rejected the request");
      if (!discovered.ok()) continue;
      fresh = std::move(discovered).value();
    }
    report->Attempt(SameTableau(served, fresh),
                    "tenant " + std::to_string(TenantId(i)) +
                        ": served tableau differs from DiscoverTableau over "
                        "its applied log");
    out[i] = std::move(fresh);
  }
  return out;
}

// Appends the wall time of a single-threaded from-scratch DiscoverTableau
// over the first kReferenceTicks applied ticks of each tenant to *seconds.
void TimeReferenceDiscovery(serve::TenantRegistry& registry, size_t tenants,
                            std::vector<double>* seconds) {
  const core::TableauRequest request = ReferenceRequest(1);
  const size_t m = static_cast<size_t>(kReferenceTicks);
  for (size_t i = 0; i < tenants; ++i) {
    const serve::Tenant* tenant = registry.Find(TenantId(i));
    if (tenant == nullptr || tenant->log_a.size() < m) continue;
    auto counts = series::CountSequence::Create(
        std::vector<double>(tenant->log_a.begin(), tenant->log_a.begin() + m),
        std::vector<double>(tenant->log_b.begin(), tenant->log_b.begin() + m));
    if (!counts.ok()) continue;
    const series::CumulativeSeries series(*counts);
    const core::ConfidenceEvaluator eval(&series, request.model);
    const double t0 = Now();
    const auto tableau = core::DiscoverTableau(eval, request);
    seconds->push_back(Now() - t0);
  }
}

void Untraced(const Args& args, Report* report) {
  // Each epoch sets up a fresh daemon and serves kEpochTicks per tenant;
  // whole epochs run until --seconds of serving have passed. setup_s is
  // the median over epochs; ticks_per_s and fresh_s pool the epochs (total
  // ticks over total serving time, mean drain), since each epoch's drain
  // starts at a random point of a dispatch. discover_s is the mean of
  // reference discoveries timed after every epoch: on a shared 4-vCPU VM
  // the same call's time was seen to shift by up to 1.6x between
  // stretches of seconds, and spreading the calls over the run averages
  // that out.
  std::vector<double> setups;
  std::vector<double> references;
  double serving = 0.0;
  double fresh = 0.0;
  std::vector<double> acks;
  int64_t ticks = 0;
  int64_t backpressure = 0;
  uint64_t backlog_max = 0;
  std::optional<Served> served;
  int epochs = 0;
  for (; epochs == 0 || serving < args.seconds; ++epochs) {
    served.reset();
    const double t0 = Now();
    served.emplace(Setup(args.seed));
    setups.push_back(Now() - t0);
    const Phase phase = RunClosedLoop(*served);
    CheckPhase(phase, report);
    serving += phase.stopped - phase.first_send;
    fresh += phase.stopped - phase.last_ack;
    acks.insert(acks.end(), phase.acks.begin(), phase.acks.end());
    ticks += phase.ticks;
    backpressure += phase.backpressure;
    backlog_max = std::max(backlog_max, phase.backlog_max);
    TimeReferenceDiscovery(served->daemon->registry(),
                           served->fleet.size(), &references);
  }
  // The last epoch's tenants are checked for exactness.
  serve::TenantRegistry& registry = served->daemon->registry();
  int checked = 0;
  CheckExactness(registry, served->fleet.size(), false, report, &checked);

  const Percentile tail = Tail(acks, 0.99);
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve: %zu tenants, %d epochs, %lld ticks in %zu acked "
                "frames, %lld backpressure retries, ack p%g of %zu samples, "
                "backlog max %llu ticks, %d tenants checked",
                served->fleet.size(), epochs,
                static_cast<long long>(ticks), acks.size(),
                static_cast<long long>(backpressure), tail.q * 100,
                tail.samples, static_cast<unsigned long long>(backlog_max),
                checked);
  report->Note(line);
  report->Set("setup_s", Median(setups));
  double reference_total = 0.0;
  for (const double r : references) reference_total += r;
  report->Set("discover_s",
              reference_total / static_cast<double>(references.size()));
  report->Set("ticks_per_s", static_cast<double>(ticks) / serving);
  report->Set("ack_p50_ms", 1e3 * Median(acks));
  report->Set("ack_p99_ms", 1e3 * tail.value);
  report->Set("fresh_s", fresh / epochs);
}

// Per-tenant state of the traced replay.
struct Replayed {
  std::vector<double> pend_a;  // filtered ticks since the last dispatch
  std::vector<double> pend_b;
  int64_t dispatches = 0;
  std::optional<incr::IncrementalDiscoverer> discoverer;
  std::unique_ptr<stream::StreamingMonitor> monitor;
};

void Traced(const Args& args, Report* report) {
  Served served = Setup(args.seed);
  const size_t tenants = served.fleet.size();
  const Phase phase = RunClosedLoop(served);
  CheckPhase(phase, report);
  // The reference discoveries run outside the ledger: interval.*,
  // cover.* and series.build_s here are per checked tenant.
  int checked = 0;
  const std::vector<std::optional<core::Tableau>> expected = CheckExactness(
      served.daemon->registry(), tenants, true, report, &checked);
  FinishLayers(checked, report);
  if (checked > 0) {
    report->Set("series.build_s", report->Get("series.build_s") / checked);
  }
  const serve::DaemonStats& stats = phase.stats;
  const double attempts =
      static_cast<double>(stats.appends_accepted + stats.appends_rejected);
  const double per_dispatch =
      stats.batches_dispatched == 0
          ? static_cast<double>(kFrame)
          : static_cast<double>(stats.ticks_processed) /
                static_cast<double>(stats.batches_dispatched);
  report->Set("serve.rejected_frac",
              attempts > 0 ? static_cast<double>(stats.appends_rejected) /
                                 attempts
                           : 0.0);
  report->Set("serve.backlog_ticks_max",
              static_cast<double>(phase.backlog_max));
  report->Set("serve.ticks_per_dispatch", per_dispatch);
  report->Set("serve.cover_refreshes",
              static_cast<double>(stats.cover_refreshes));
  report->Set("serve.ack_samples", static_cast<double>(phase.acks.size()));

  // Replay policy, taken from the daemon phase so the replay applies
  // batches of the size the daemon coalesced and refreshes as often.
  const int64_t dispatch_ticks = std::max<int64_t>(
      kFrame, static_cast<int64_t>(std::llround(per_dispatch / kFrame)) *
                  kFrame);
  const int64_t refresh_every = std::max<int64_t>(
      1, stats.cover_refreshes == 0
             ? 1
             : static_cast<int64_t>(
                   std::llround(static_cast<double>(stats.batches_dispatched) /
                                static_cast<double>(stats.cover_refreshes))));

  const serve::TenantConfig config = TenantConfig();
  serve::TenantRegistry registry(config);
  std::vector<Replayed> state(tenants);
  // The replay registry and the standalone engines start from the same
  // pre-warm as the daemon did; their creates are set-up, outside the
  // ledger, and make incr.create_s.
  std::vector<double> create_each(tenants, 0.0);
  Prewarm(registry, served.fleet, [&](size_t i) {
    const serve::Tenant* tenant = registry.Find(TenantId(i));
    auto counts = series::CountSequence::Create(tenant->log_a, tenant->log_b);
    CR_CHECK(counts.ok());
    const double t0 = Now();
    auto created = incr::IncrementalDiscoverer::Create(*counts, config.request);
    create_each[i] = Now() - t0;
    CR_CHECK(created.ok());
    Replayed& r = state[i];
    r.discoverer.emplace(std::move(created).value());
    r.discoverer->SetAppendOnly(true);
    r.discoverer->RefreshCover();
    r.monitor = std::make_unique<stream::StreamingMonitor>(config.stream);
    for (size_t k = 0; k < tenant->log_a.size(); ++k) {
      r.monitor->Observe(tenant->log_a[k], tenant->log_b[k]);
    }
  });
  double create_total = 0.0;
  for (const double s : create_each) create_total += s;
  report->Set("incr.create_s", create_total);

  std::vector<double> apply_ms;
  std::vector<double> append_ms;
  std::vector<double> refresh_ms;
  serve::FrameReader reader;
  serve::Frame frame;
  std::string bytes;
  std::vector<double> da;
  std::vector<double> db;

  const auto dispatch = [&](size_t i) {
    Replayed& r = state[i];
    serve::Tenant& tenant = *registry.Find(TenantId(i));
    bool fault = false;
    double t0 = Now();
    registry.PrepareDispatch(tenant, &da, &db, &fault);
    registry.ApplyBatch(tenant, fault, da, db);
    double dt = Now() - t0;
    report->Accumulate("serve.apply_s", dt);
    apply_ms.push_back(1e3 * dt);
    t0 = Now();
    for (size_t k = 0; k < r.pend_a.size(); ++k) {
      r.monitor->Observe(r.pend_a[k], r.pend_b[k]);
    }
    report->Accumulate("stream.observe_s", Now() - t0);
    t0 = Now();
    r.discoverer->AppendBatch(r.pend_a, r.pend_b);
    dt = Now() - t0;
    report->Accumulate("incr.append_s", dt);
    append_ms.push_back(1e3 * dt);
    r.pend_a.clear();
    r.pend_b.clear();
    if (++r.dispatches % refresh_every == 0) {
      t0 = Now();
      registry.RefreshCover(tenant);
      report->Accumulate("serve.refresh_s", Now() - t0);
      t0 = Now();
      r.discoverer->RefreshCover();
      dt = Now() - t0;
      report->Accumulate("incr.refresh_s", dt);
      refresh_ms.push_back(1e3 * dt);
    }
  };

  int64_t rounds = 0;
  for (const int64_t f : phase.frames) rounds = std::max(rounds, f);
  const double replay_start = Now();
  for (int64_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < tenants; ++i) {
      if (round >= phase.frames[i]) continue;
      const int64_t at = kPrewarm + round * kFrame;
      bytes.clear();
      serve::EncodeAppend(TenantId(i),
                          served.fleet[i].counts.outbound().data() + at,
                          served.fleet[i].counts.inbound().data() + at,
                          kFrame, &bytes);
      double t0 = Now();
      reader.Feed(bytes.data(), bytes.size());
      const bool decoded = reader.Next(&frame);
      report->Accumulate("serve.decode_s", Now() - t0);
      CR_CHECK(decoded && frame.type == serve::FrameType::kAppend);
      t0 = Now();
      serve::Tenant& tenant = registry.GetOrCreate(frame.append.tenant_id);
      registry.Enqueue(tenant, frame.append.a.data(), frame.append.b.data(),
                       kFrame);
      report->Accumulate("serve.enqueue_s", Now() - t0);
      Replayed& r = state[i];
      r.pend_a.insert(r.pend_a.end(), tenant.log_a.end() - kFrame,
                      tenant.log_a.end());
      r.pend_b.insert(r.pend_b.end(), tenant.log_b.end() - kFrame,
                      tenant.log_b.end());
      if (static_cast<int64_t>(r.pend_a.size()) >= dispatch_ticks) dispatch(i);
    }
  }
  // Final sweep, as Stop() does: apply what is pending, refresh the rest.
  for (size_t i = 0; i < tenants; ++i) {
    if (!state[i].pend_a.empty()) dispatch(i);
    double t0 = Now();
    registry.RefreshCover(*registry.Find(TenantId(i)));
    report->Accumulate("serve.refresh_s", Now() - t0);
    if (state[i].discoverer->cover_stale()) {
      t0 = Now();
      state[i].discoverer->RefreshCover();
      const double dt = Now() - t0;
      report->Accumulate("incr.refresh_s", dt);
      refresh_ms.push_back(1e3 * dt);
    }
  }
  const double replay_wall = Now() - replay_start;
  CloseLedger(replay_wall,
              {"serve.decode_s", "serve.enqueue_s", "serve.apply_s",
               "serve.refresh_s", "incr.append_s", "incr.refresh_s",
               "stream.observe_s"},
              report);
  report->Set("trace_overhead_s",
              replay_wall - (phase.stopped - phase.first_send));

  // The standalone discoverer saw the same ticks as the daemon's tenant.
  for (size_t i = 0; i < tenants; ++i) {
    if (!expected[i]) continue;
    report->Attempt(SameTableau(state[i].discoverer->tableau(), *expected[i]),
                    "tenant " + std::to_string(TenantId(i)) +
                        ": standalone incremental tableau differs from "
                        "DiscoverTableau");
  }

  const Percentile apply50 = Tail(apply_ms, 0.5);
  const Percentile apply99 = Tail(apply_ms, 0.99);
  const Percentile append99 = Tail(append_ms, 0.99);
  const Percentile refresh99 = Tail(refresh_ms, 0.99);
  char line[256];
  std::snprintf(line, sizeof(line),
                "replay: %lld ticks per dispatch, refresh every %lld "
                "dispatches; tails: apply p%g of %zu, append p%g of %zu, "
                "refresh p%g of %zu",
                static_cast<long long>(dispatch_ticks),
                static_cast<long long>(refresh_every), apply99.q * 100,
                apply99.samples, append99.q * 100, append99.samples,
                refresh99.q * 100, refresh99.samples);
  report->Note(line);
  report->Set("serve.apply_p50_ms", apply50.value);
  report->Set("serve.apply_p99_ms", apply99.value);
  report->Set("serve.apply_samples", static_cast<double>(apply_ms.size()));
  report->Set("incr.append_p99_ms", append99.value);
  report->Set("incr.append_samples", static_cast<double>(append_ms.size()));
  report->Set("incr.refresh_p99_ms", refresh99.value);
  report->Set("incr.refresh_samples", static_cast<double>(refresh_ms.size()));
  incr::IncrStats sum;
  for (const Replayed& r : state) {
    const incr::IncrStats& s = r.discoverer->stats();
    sum.candidates_extended += s.candidates_extended;
    sum.dirty_anchors += s.dirty_anchors;
    sum.cover_warm_pops += s.cover_warm_pops;
  }
  report->Set("incr.candidates_extended",
              static_cast<double>(sum.candidates_extended));
  report->Set("incr.dirty_anchors", static_cast<double>(sum.dirty_anchors));
  report->Set("incr.cover_warm_pops", static_cast<double>(sum.cover_warm_pops));
}

}  // namespace

void RunServeLongHistory(const Args& args, Report* report) {
  if (args.trace) {
    Traced(args, report);
  } else {
    Untraced(args, report);
  }
}

}  // namespace perfbench
