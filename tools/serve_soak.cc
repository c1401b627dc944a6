// serve_soak: concurrency soak of the serving daemon over real sockets.
//
// In-process ServeDaemon with eviction and periodic cover refresh enabled,
// hammered by several client threads over loopback TCP — each thread owns
// a connection and round-robins appends across its tenant shard, honoring
// backpressure. After the drivers finish, the daemon drains and every
// tenant's maintained tableau is cross-checked bit-identical against
// from-scratch DiscoverTableau over the tenant's filtered log — the
// end-to-end statement that batching, scheduling, deferred covers,
// eviction and re-faulting changed nothing semantically.
//
// Run plain (divergence) and under TSan via tools/sanitizer_smoke.sh
// (memory model), like the other concurrency smokes. Sized to finish in
// seconds under TSan on one core.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "util/check.h"

namespace {

using namespace conservation;

constexpr int kTenants = 24;
constexpr int kClients = 3;
constexpr int64_t kTicks = 160;
constexpr int64_t kBatch = 8;

// Deterministic per-tenant series: positive b, a tracking 0.9 b with a
// tenant-specific wobble — valid (B dominates A after filtering, never
// all-zero) and distinct per tenant so cross-tenant mixups would show.
void MakeSeries(uint64_t tenant_id, std::vector<double>* a,
                std::vector<double>* b) {
  a->resize(kTicks);
  b->resize(kTicks);
  uint64_t state = tenant_id * 2654435761u + 12345;
  for (int64_t t = 0; t < kTicks; ++t) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double noise = static_cast<double>((state >> 33) % 1000) / 1000.0;
    (*b)[t] = 5.0 + static_cast<double>((tenant_id + t) % 7) + noise;
    (*a)[t] = 0.9 * (*b)[t];
  }
}

void DriveShard(int port, int shard, bool* ok) {
  serve::ServeClient client;
  if (!client.Connect(port).ok()) {
    *ok = false;
    return;
  }
  struct Stream {
    uint64_t id;
    std::vector<double> a, b;
    int64_t sent = 0;
  };
  std::vector<Stream> streams;
  for (int t = shard; t < kTenants; t += kClients) {
    Stream s;
    s.id = static_cast<uint64_t>(t + 1);
    MakeSeries(s.id, &s.a, &s.b);
    streams.push_back(std::move(s));
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (Stream& s : streams) {
      const int64_t remaining = kTicks - s.sent;
      if (remaining <= 0) continue;
      progress = true;
      const int64_t k = remaining < kBatch ? remaining : kBatch;
      for (;;) {
        auto ack =
            client.Append(s.id, s.a.data() + s.sent, s.b.data() + s.sent, k);
        if (!ack.ok() || (ack->status != serve::AckStatus::kOk &&
                          ack->status != serve::AckStatus::kBackpressure)) {
          *ok = false;
          return;
        }
        if (ack->status == serve::AckStatus::kOk) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      s.sent += k;
    }
  }
  *ok = true;
}

}  // namespace

int main() {
  serve::TenantConfig tenant_config;
  tenant_config.request.type = core::TableauType::kFail;
  tenant_config.request.c_hat = 0.5;
  tenant_config.request.s_hat = 0.05;
  tenant_config.append_only = true;
  tenant_config.max_hot = kTenants / 3;  // force eviction + re-fault churn

  serve::DaemonOptions options;
  options.readers = kClients;
  options.max_tenant_queue_ticks = 64;  // small: exercise backpressure
  options.refresh_ms = 10;              // aggressive refresh/evict sweeps

  serve::ServeDaemon daemon(tenant_config, options);
  util::Status status = daemon.Start();
  CR_CHECK(status.ok());

  std::vector<std::thread> drivers;
  bool results[kClients] = {};
  for (int c = 0; c < kClients; ++c) {
    drivers.emplace_back(DriveShard, daemon.port(), c, &results[c]);
  }
  for (std::thread& driver : drivers) driver.join();
  for (int c = 0; c < kClients; ++c) CR_CHECK(results[c]);

  daemon.Stop();

  const serve::DaemonStats stats = daemon.Stats();
  CR_CHECK(stats.ticks_ingested ==
           static_cast<uint64_t>(kTenants) * static_cast<uint64_t>(kTicks));
  CR_CHECK(stats.ticks_processed == stats.ticks_ingested);
  CR_CHECK(daemon.registry().size() == kTenants);

  // Deterministic eviction coverage on top of whatever the timing-driven
  // sweeps did: demote every third hot tenant now, then fault them back up
  // in the identity loop below.
  for (auto& [id, tenant] : daemon.registry().tenants()) {
    if (id % 3 == 0 && tenant->session != nullptr) {
      daemon.registry().Evict(*tenant);
    }
  }
  CR_CHECK(daemon.registry().evictions() > 0);

  // Post-drain identity: each tenant's tableau (faulting cold tenants back
  // up) must be bit-identical to from-scratch discovery over its log.
  int64_t checked = 0;
  for (auto& [id, tenant] : daemon.registry().tenants()) {
    CR_CHECK(tenant->pend_a.empty());
    if (tenant->session == nullptr) {
      daemon.registry().ApplyPending(*tenant);  // fault up from the log
    }
    CR_CHECK(tenant->session != nullptr);
    daemon.registry().RefreshCover(*tenant);
    const core::Tableau& maintained = tenant->session->tableau();

    auto counts = series::CountSequence::Create(tenant->log_a, tenant->log_b);
    CR_CHECK(counts.ok());
    const series::CumulativeSeries cumulative(counts.value());
    const core::ConfidenceEvaluator eval(&cumulative,
                                         tenant_config.request.model);
    auto fresh = core::DiscoverTableau(eval, tenant_config.request);
    CR_CHECK(fresh.ok());
    CR_CHECK(maintained.rows.size() == fresh->rows.size());
    for (size_t r = 0; r < maintained.rows.size(); ++r) {
      CR_CHECK(maintained.rows[r].interval.begin ==
               fresh->rows[r].interval.begin);
      CR_CHECK(maintained.rows[r].interval.end == fresh->rows[r].interval.end);
      CR_CHECK(std::memcmp(&maintained.rows[r].confidence,
                           &fresh->rows[r].confidence, sizeof(double)) == 0);
    }
    CR_CHECK(maintained.covered == fresh->covered);
    CR_CHECK(maintained.required == fresh->required);
    CR_CHECK(maintained.support_satisfied == fresh->support_satisfied);
    CR_CHECK(maintained.num_candidates == fresh->num_candidates);
    ++checked;
  }
  CR_CHECK(checked == kTenants);
  // The deterministic demotions re-faulted in the loop above, on top of
  // each tenant's initial fault.
  CR_CHECK(daemon.registry().faults() > kTenants);

  std::printf(
      "serve_soak: OK tenants=%d ticks=%" PRIu64 " rejected=%" PRIu64
      " refreshes=%" PRIu64 " faults=%" PRId64 " evictions=%" PRId64 "\n",
      kTenants, stats.ticks_processed, stats.appends_rejected,
      stats.cover_refreshes, daemon.registry().faults(),
      daemon.registry().evictions());
  return 0;
}
