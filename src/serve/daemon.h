// ServeDaemon: the multi-tenant conservation serving loop.
//
// One process hosts thousands of tenant streams (serve/tenant_registry.h)
// behind a loopback TCP ingest socket speaking the length-prefixed frame
// protocol (serve/protocol.h). The moving parts:
//
//   ingest    An accept thread hands connections to a small reader pool.
//             Each reader services one connection at a time: decode frames,
//             admit-or-reject appends under the daemon mutex (bounded
//             per-tenant and global pending-tick depth), write one ack per
//             append in request order. Admission is O(1) — the expensive
//             work never runs on a reader thread.
//
//   dispatch  Accepting an append for a tenant with no dispatch in flight
//             marks it in_flight and submits ProcessTenant to the shared
//             util::ThreadPool. ProcessTenant swaps the tenant's pending
//             queue out under the mutex, applies it to the stream session
//             OUTSIDE the mutex (the batch append is the dominant cost),
//             then either resubmits itself (more ticks arrived meanwhile)
//             or clears in_flight. Per-tenant ordering is the in_flight
//             flag; cross-tenant parallelism is the pool. Each dispatched
//             batch runs under an obs::ScopedDeadline so a wedged tenant
//             trips the watchdog.
//
//   refresh   In append-only mode sessions defer cover maintenance
//             (incr/incremental.h SetAppendOnly); a periodic refresh
//             thread sweeps dirty idle tenants and brings their tableaux
//             up to date, amortizing cover cost across many small appends.
//             The same sweep enforces the hot-tenant bound by evicting
//             least-recently-dispatched idle sessions to the cold
//             sketch-tier store.
//
//   observe   serve.* counters/gauges/histograms (docs/OBSERVABILITY.md)
//             flow through the process registry; pair with
//             obs::ScrapeServer for a /metrics endpoint and
//             obs::StartWatchdog for stall detection — the daemon does not
//             own either, so embedders (tests, benches) compose them.
//
//   drain     Stop() closes the listener, waking readers, lets every
//             queued tick apply, runs a final cover refresh over dirty
//             tenants, and joins all threads. After Stop returns no tenant
//             has pending ticks — the "clean drain" the soak tests and
//             SIGTERM handler rely on.
//
// Concurrency notes: one mutex guards the registry + queues. That is a
// deliberate simplicity/scale trade-off — admission work under the lock is
// a few loads and vector pushes; the heavy per-tenant appends run outside
// it, pinned by in_flight. Profile before sharding.

#ifndef CONSERVATION_SERVE_DAEMON_H_
#define CONSERVATION_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/tenant_registry.h"
#include "util/status.h"

namespace conservation::serve {

struct DaemonOptions {
  // Ingest port; 0 picks an ephemeral one (read it back via port()).
  int port = 0;
  // Reader threads servicing accepted connections. Each reader owns one
  // connection at a time, so this bounds concurrent clients; keep small —
  // decoding is cheap and the machine also runs the dispatch pool.
  int readers = 2;
  // Admission bounds, in pending (accepted, unapplied) ticks. An append
  // that would push either depth past its bound is rejected with
  // kBackpressure and must be retried by the client.
  int64_t max_tenant_queue_ticks = 4096;
  int64_t max_global_queue_ticks = 1 << 20;
  // Cover refresh + eviction sweep period; 0 disables the thread (covers
  // then refresh only on Stop, eviction never runs).
  int64_t refresh_ms = 200;
  // Watchdog budget for one dispatched tenant batch (seconds; 0 = watchdog
  // default).
  double dispatch_budget_seconds = 30.0;
};

struct DaemonStats {
  uint64_t connections = 0;
  uint64_t frames = 0;
  uint64_t appends_accepted = 0;
  uint64_t appends_rejected = 0;
  // Appends refused with kInvalid (a negative or non-finite count); not
  // counted in appends_rejected, which are retryable.
  uint64_t appends_invalid = 0;
  uint64_t ticks_ingested = 0;
  uint64_t ticks_processed = 0;
  uint64_t batches_dispatched = 0;
  uint64_t cover_refreshes = 0;
  uint64_t protocol_errors = 0;
};

class ServeDaemon {
 public:
  ServeDaemon(const TenantConfig& tenant_config, const DaemonOptions& options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Binds, listens and starts the accept/reader/refresh threads.
  util::Status Start();

  // Graceful shutdown: stop accepting, unblock and join readers, drain
  // every pending tick through the dispatch pool, final cover refresh,
  // join the refresh thread. Idempotent.
  void Stop();

  // Blocks until every accepted tick has been applied and no dispatch is
  // in flight (steady state for tests; Stop calls this too).
  void DrainQueues();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  DaemonStats Stats() const;
  // Registry access for tests/benches; take care — not synchronized with a
  // running daemon except via DrainQueues/Stop.
  TenantRegistry& registry() { return registry_; }

 private:
  struct PendingAck {
    int fd = 0;
    AckFrame ack;
  };

  void AcceptLoop();
  void ReaderLoop();
  void RefreshLoop();
  void ServeConnection(int fd);
  // Admission + enqueue for one decoded append; fills *ack. Called with
  // mu_ held.
  void AdmitAppendLocked(const AppendFrame& append, AckFrame* ack);
  // Dispatched on the shared pool; owns the tenant via in_flight.
  void ProcessTenant(uint64_t tenant_id);
  void RefreshSweep(bool final_sweep);
  void UpdateQueueGauges();  // mu_ held

  TenantConfig tenant_config_;
  DaemonOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Atomic: Stop() closes and clears the fd while AcceptLoop polls it. The
  // accept loop tolerates a concurrently closed fd (poll/accept fail and it
  // exits); the atomic only makes the handoff of the value itself race-free.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> reader_threads_;
  std::thread refresh_thread_;

  // Accepted connections waiting for a reader.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::deque<int> conn_queue_;

  // Registry + scheduler state.
  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  TenantRegistry registry_;
  int64_t global_queue_ticks_ = 0;
  int64_t in_flight_tenants_ = 0;
  uint64_t dispatch_seq_ = 0;
  DaemonStats stats_;

  // Refresh thread wakeup (poked by Stop for prompt exit).
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;
};

}  // namespace conservation::serve

#endif  // CONSERVATION_SERVE_DAEMON_H_
