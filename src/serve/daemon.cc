#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "util/check.h"
#include "util/thread_pool.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace conservation::serve {
namespace {

// Hoisted registry handles (obs/metrics.h goal 3): resolved once, then
// every touch is a relaxed striped add.
struct ServeMetrics {
  obs::Counter& connections;
  obs::Counter& frames;
  obs::Counter& appends_accepted;
  obs::Counter& appends_rejected;
  obs::Counter& appends_invalid;
  obs::Counter& ticks_ingested;
  obs::Counter& ticks_processed;
  obs::Counter& batches_dispatched;
  obs::Counter& cover_refreshes;
  obs::Counter& protocol_errors;
  obs::Gauge& queue_depth;
  obs::Gauge& tenants;
  obs::Gauge& tenants_hot;
  obs::Gauge& inflight;
  obs::Histogram& dispatch_seconds;
  obs::Histogram& dispatch_ticks;

  static ServeMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static ServeMetrics metrics{
        reg.Counter("serve.connections"),
        reg.Counter("serve.frames"),
        reg.Counter("serve.appends_accepted"),
        reg.Counter("serve.appends_rejected"),
        reg.Counter("serve.appends_invalid"),
        reg.Counter("serve.ticks_ingested"),
        reg.Counter("serve.ticks_processed"),
        reg.Counter("serve.batches_dispatched"),
        reg.Counter("serve.cover_refreshes"),
        reg.Counter("serve.protocol_errors"),
        reg.Gauge("serve.queue_depth_ticks"),
        reg.Gauge("serve.tenants"),
        reg.Gauge("serve.tenants_hot"),
        reg.Gauge("serve.inflight_tenants"),
        reg.Histogram("serve.dispatch_batch_seconds",
                      {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0}),
        reg.Histogram("serve.dispatch_ticks",
                      {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0}),
    };
    return metrics;
  }
};

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Counts the incremental engine can take: finite and nonnegative. A NaN
// would poison the tenant's dominance filter for good (every later tick
// filters to (x, 0)), and a negative count would be silently rewritten.
bool ValidCounts(const std::vector<double>& counts) {
  for (const double count : counts) {
    if (!(std::isfinite(count) && count >= 0.0)) return false;
  }
  return true;
}

}  // namespace

ServeDaemon::ServeDaemon(const TenantConfig& tenant_config,
                         const DaemonOptions& options)
    : tenant_config_(tenant_config),
      options_(options),
      registry_(tenant_config) {}

ServeDaemon::~ServeDaemon() { Stop(); }

util::Status ServeDaemon::Start() {
  CR_CHECK(!running_.load(std::memory_order_acquire));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = std::string("bind: ") + std::strerror(errno);
    close(fd);
    return util::Status::Internal(message);
  }
  if (listen(fd, 128) != 0) {
    const std::string message = std::string("listen: ") + std::strerror(errno);
    close(fd);
    return util::Status::Internal(message);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string message =
        std::string("getsockname: ") + std::strerror(errno);
    close(fd);
    return util::Status::Internal(message);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int readers = options_.readers > 0 ? options_.readers : 1;
  reader_threads_.reserve(static_cast<size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    reader_threads_.emplace_back([this] { ReaderLoop(); });
  }
  if (options_.refresh_ms > 0) {
    refresh_thread_ = std::thread([this] { RefreshLoop(); });
  }
  return util::Status::Ok();
}

void ServeDaemon::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // Closing the listener wakes the accept loop's poll with an error.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    shutdown(listen_fd, SHUT_RDWR);
    close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  conn_cv_.notify_all();
  for (std::thread& reader : reader_threads_) {
    if (reader.joinable()) reader.join();
  }
  reader_threads_.clear();
  // Close any connections accepted but never picked up.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    while (!conn_queue_.empty()) {
      close(conn_queue_.front());
      conn_queue_.pop_front();
    }
  }

  // Everything accepted must apply before shutdown is "clean".
  DrainQueues();

  refresh_cv_.notify_all();
  if (refresh_thread_.joinable()) refresh_thread_.join();
  RefreshSweep(/*final_sweep=*/true);

  running_.store(false, std::memory_order_release);
}

void ServeDaemon::DrainQueues() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return global_queue_ticks_ == 0 && in_flight_tenants_ == 0;
  });
}

DaemonStats ServeDaemon::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ServeDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
      continue;
    }
    const int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    const int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServeMetrics::Get().connections.Increment();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_queue_.push_back(conn);
    }
    conn_cv_.notify_one();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections;
    }
  }
}

void ServeDaemon::ReaderLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] {
        return !conn_queue_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (conn_queue_.empty()) return;  // stopping
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    ServeConnection(fd);
    close(fd);
  }
}

void ServeDaemon::ServeConnection(int fd) {
  FrameReader reader;
  std::string out;
  char chunk[64 * 1024];
  Frame frame;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) return;
    if (stopping_.load(std::memory_order_acquire)) return;
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return;
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return;  // clean close
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    reader.Feed(chunk, static_cast<size_t>(n));
    out.clear();
    while (reader.Next(&frame)) {
      switch (frame.type) {
        case FrameType::kAppend: {
          AckFrame ack;
          {
            std::lock_guard<std::mutex> lock(mu_);
            AdmitAppendLocked(frame.append, &ack);
          }
          EncodeAck(ack, &out);
          break;
        }
        case FrameType::kPing: {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.frames;
          ServeMetrics::Get().frames.Increment();
          EncodeAck(AckFrame{}, &out);
          break;
        }
        case FrameType::kStats: {
          StatsReplyFrame reply;
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.frames;
            reply.tenants = static_cast<uint64_t>(registry_.size());
            reply.ticks_ingested = stats_.ticks_ingested;
            reply.ticks_processed = stats_.ticks_processed;
            reply.batches_rejected = stats_.appends_rejected;
          }
          ServeMetrics::Get().frames.Increment();
          EncodeStatsReply(reply, &out);
          break;
        }
        default: {
          // Clients must not send ack/stats-reply frames; drop the
          // connection after flushing any acks already produced.
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.protocol_errors;
          }
          ServeMetrics::Get().protocol_errors.Increment();
          if (!out.empty()) SendAll(fd, out.data(), out.size());
          return;
        }
      }
    }
    if (!out.empty() && !SendAll(fd, out.data(), out.size())) return;
    if (reader.failed()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      ServeMetrics::Get().protocol_errors.Increment();
      return;
    }
  }
}

void ServeDaemon::AdmitAppendLocked(const AppendFrame& append, AckFrame* ack) {
  ServeMetrics& metrics = ServeMetrics::Get();
  ++stats_.frames;
  metrics.frames.Increment();
  ack->tenant_id = append.tenant_id;
  const int64_t m = static_cast<int64_t>(append.a.size());
  if (stopping_.load(std::memory_order_acquire)) {
    ack->status = AckStatus::kShuttingDown;
    ++stats_.appends_rejected;
    metrics.appends_rejected.Increment();
    return;
  }
  if (!ValidCounts(append.a) || !ValidCounts(append.b)) {
    ack->status = AckStatus::kInvalid;
    ++stats_.appends_invalid;
    metrics.appends_invalid.Increment();
    return;
  }
  Tenant& tenant = registry_.GetOrCreate(append.tenant_id);
  const int64_t tenant_depth = static_cast<int64_t>(tenant.pend_a.size());
  if (tenant_depth + m > options_.max_tenant_queue_ticks ||
      global_queue_ticks_ + m > options_.max_global_queue_ticks) {
    ack->status = AckStatus::kBackpressure;
    ack->queued_ticks = static_cast<uint64_t>(tenant_depth);
    ++stats_.appends_rejected;
    metrics.appends_rejected.Increment();
    return;
  }
  registry_.Enqueue(tenant, append.a.data(), append.b.data(), m);
  global_queue_ticks_ += m;
  ++stats_.appends_accepted;
  stats_.ticks_ingested += static_cast<uint64_t>(m);
  metrics.appends_accepted.Increment();
  metrics.ticks_ingested.Add(static_cast<uint64_t>(m));
  ack->status = AckStatus::kOk;
  ack->accepted_ticks = static_cast<uint32_t>(m);
  ack->queued_ticks = static_cast<uint64_t>(tenant.pend_a.size());
  if (!tenant.in_flight) {
    tenant.in_flight = true;
    ++in_flight_tenants_;
    tenant.last_dispatch_seq = ++dispatch_seq_;
    const uint64_t id = tenant.id;
    util::ThreadPool::Shared().Submit([this, id] { ProcessTenant(id); });
  }
  UpdateQueueGauges();
}

void ServeDaemon::ProcessTenant(uint64_t tenant_id) {
  ServeMetrics& metrics = ServeMetrics::Get();
  std::vector<double> a;
  std::vector<double> b;
  bool fault = false;
  Tenant* tenant = nullptr;
  int64_t m = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant = registry_.Find(tenant_id);
    CR_CHECK(tenant != nullptr && tenant->in_flight);
    m = registry_.PrepareDispatch(*tenant, &a, &b, &fault);
    global_queue_ticks_ -= m;
    UpdateQueueGauges();
  }

  const auto start = std::chrono::steady_clock::now();
  {
    obs::ScopedDeadline deadline("serve.tenant_batch",
                                 options_.dispatch_budget_seconds);
    registry_.ApplyBatch(*tenant, fault, a, b);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  metrics.dispatch_seconds.Record(seconds);
  metrics.dispatch_ticks.Record(static_cast<double>(m));
  metrics.batches_dispatched.Increment();
  metrics.ticks_processed.Add(static_cast<uint64_t>(m));

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.batches_dispatched;
  stats_.ticks_processed += static_cast<uint64_t>(m);
  if (!tenant->pend_a.empty()) {
    // More ticks landed while we were applying: keep the pin, go again.
    tenant->last_dispatch_seq = ++dispatch_seq_;
    util::ThreadPool::Shared().Submit(
        [this, tenant_id] { ProcessTenant(tenant_id); });
    return;
  }
  tenant->in_flight = false;
  --in_flight_tenants_;
  UpdateQueueGauges();
  if (global_queue_ticks_ == 0 && in_flight_tenants_ == 0) {
    drain_cv_.notify_all();
  }
}

void ServeDaemon::RefreshLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(refresh_mu_);
      refresh_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.refresh_ms),
          [this] { return stopping_.load(std::memory_order_acquire); });
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    RefreshSweep(/*final_sweep=*/false);
  }
}

void ServeDaemon::RefreshSweep(bool final_sweep) {
  ServeMetrics& metrics = ServeMetrics::Get();
  // Pass 1: cover refreshes for dirty idle tenants. Each tenant is pinned
  // (in_flight) so the refresh can run unlocked without racing a dispatch.
  std::vector<uint64_t> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, tenant] : registry_.tenants()) {
      // in_flight must be tested first: session/cover_dirty are written by
      // the pinned worker outside mu_, so they may only be read once the
      // pin is observed clear (the worker releases it under mu_).
      if (!tenant->in_flight && tenant->pend_a.empty() &&
          tenant->session != nullptr && tenant->cover_dirty) {
        dirty.push_back(id);
      }
    }
  }
  for (const uint64_t id : dirty) {
    Tenant* tenant = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tenant = registry_.Find(id);
      if (tenant == nullptr || tenant->in_flight || !tenant->cover_dirty ||
          tenant->session == nullptr || !tenant->pend_a.empty()) {
        continue;
      }
      tenant->in_flight = true;
      ++in_flight_tenants_;
    }
    {
      obs::ScopedDeadline deadline("serve.cover_refresh",
                                   options_.dispatch_budget_seconds);
      registry_.RefreshCover(*tenant);
    }
    metrics.cover_refreshes.Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cover_refreshes;
    tenant->in_flight = false;
    --in_flight_tenants_;
    if (!tenant->pend_a.empty()) {
      // Ticks arrived mid-refresh and their admission saw in_flight set;
      // dispatch them now.
      tenant->in_flight = true;
      ++in_flight_tenants_;
      tenant->last_dispatch_seq = ++dispatch_seq_;
      util::ThreadPool::Shared().Submit([this, id] { ProcessTenant(id); });
    } else if (global_queue_ticks_ == 0 && in_flight_tenants_ == 0) {
      drain_cv_.notify_all();
    }
  }

  // Pass 2: enforce the hot-tenant bound (skipped on the final sweep —
  // shutdown keeps sessions so embedders can inspect them). One LRU scan
  // per sweep; each victim is re-validated under mu_ before it is pinned,
  // and one dispatched since the scan (busy, or its dispatch clock moved)
  // is skipped.
  const int64_t max_hot = registry_.config().max_hot;
  if (final_sweep || max_hot <= 0 || registry_.hot_count() <= max_hot) return;
  std::vector<std::pair<uint64_t, uint64_t>> idle;  // (seq, id)
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle = registry_.HotIdleByLru();
  }
  for (const auto& [seq, id] : idle) {
    if (registry_.hot_count() <= max_hot) return;
    Tenant* victim = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      victim = registry_.Find(id);
      if (victim == nullptr || victim->in_flight ||
          victim->last_dispatch_seq != seq || victim->session == nullptr ||
          !victim->pend_a.empty()) {
        continue;
      }
      victim->in_flight = true;
      ++in_flight_tenants_;
    }
    registry_.Evict(*victim);
    std::lock_guard<std::mutex> lock(mu_);
    victim->in_flight = false;
    --in_flight_tenants_;
    UpdateQueueGauges();
    if (!victim->pend_a.empty()) {
      victim->in_flight = true;
      ++in_flight_tenants_;
      victim->last_dispatch_seq = ++dispatch_seq_;
      util::ThreadPool::Shared().Submit([this, id] { ProcessTenant(id); });
    } else if (global_queue_ticks_ == 0 && in_flight_tenants_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

void ServeDaemon::UpdateQueueGauges() {
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.queue_depth.Set(static_cast<double>(global_queue_ticks_));
  metrics.tenants.Set(static_cast<double>(registry_.size()));
  metrics.tenants_hot.Set(static_cast<double>(registry_.hot_count()));
  metrics.inflight.Set(static_cast<double>(in_flight_tenants_));
}

}  // namespace conservation::serve
