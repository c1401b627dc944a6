// TenantRegistry: per-tenant stream state for the serving daemon.
//
// Each tenant is one (a,b) count-pair stream identified by a u64 id. The
// registry owns, per tenant:
//
//   * the canonical raw append log (every tick ever accepted, post
//     dominance filtering) — the source of truth a hot session is
//     (re)constructed from;
//   * an online dominance filter mirroring series::EnforceDominance
//     bitwise, so arbitrary client counts become a valid B-dominates-A
//     stream before they ever reach the discoverer (the incremental
//     engine's soundness assumption, incr/incremental.h);
//   * the pending queue: accepted-but-unapplied ticks awaiting a
//     scheduler dispatch;
//   * the HOT state, when resident: a StreamSession (incremental
//     discoverer + streaming monitor) over the full raw log, running in
//     append-only mode so small batches defer cover work to the periodic
//     refresh tick;
//   * the COLD state, after eviction: a sketch-tier SeriesStore
//     (~5.5 B/tick instead of the session's full working set). Fault-up
//     rebuilds the session from the raw log; by the incremental engine's
//     exactness contract the refreshed tableau after re-fault is
//     bit-identical to one maintained hot the whole time.
//
// Thread-safety: NONE — the registry is a plain data structure. The daemon
// (serve/daemon.h) serializes all access under its own mutex and uses the
// in_flight flag to pin a tenant while a dispatched batch runs outside the
// lock (ClaimForDispatch / FinishDispatch). Eviction skips in-flight
// tenants for the same reason.

#ifndef CONSERVATION_SERVE_TENANT_REGISTRY_H_
#define CONSERVATION_SERVE_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/tableau.h"
#include "incr/stream_session.h"
#include "series/sketch.h"
#include "series/store.h"
#include "stream/streaming_monitor.h"
#include "util/status.h"

namespace conservation::serve {

// Streaming mirror of series::EnforceDominance: feeding ticks one at a
// time produces exactly the batch function's outputs (same carried
// cumulative state, same min/max/rounding guards), so a tenant's filtered
// log is independent of how its appends were batched.
class DominanceFilter {
 public:
  // Filters one raw tick in place.
  void Apply(double* a, double* b) {
    raw_a_cum_ += *a;
    raw_b_cum_ += *b;
    const double a_cum = raw_a_cum_ < raw_b_cum_ ? raw_a_cum_ : raw_b_cum_;
    const double b_cum = raw_a_cum_ < raw_b_cum_ ? raw_b_cum_ : raw_a_cum_;
    const double da = a_cum - prev_a_cum_;
    const double db = b_cum - prev_b_cum_;
    *a = da > 0.0 ? da : 0.0;
    *b = db > 0.0 ? db : 0.0;
    prev_a_cum_ = a_cum;
    prev_b_cum_ = b_cum;
  }

 private:
  double prev_a_cum_ = 0.0;
  double prev_b_cum_ = 0.0;
  double raw_a_cum_ = 0.0;
  double raw_b_cum_ = 0.0;
};

struct TenantConfig {
  // Tableau request shared by every tenant (per-tenant requests are a
  // non-goal: a fleet monitors one rule family). stop_on_full_cover must
  // be false (incremental engine restriction).
  core::TableauRequest request;
  stream::StreamOptions stream;
  // Defer per-batch cover maintenance to RefreshDirtyCovers (recommended
  // for serving; incr/incremental.h SetAppendOnly).
  bool append_only = true;
  // Label each tenant's monitor metrics ({tenant=...} children). Off by
  // default: past the 64-labelset family cap every extra tenant funnels
  // into the overflow child, which is noise at fleet scale.
  bool label_tenants = false;
  // Hot-tenant bound: after a dispatch completes, if more than this many
  // tenants hold live sessions the least-recently-dispatched idle ones are
  // evicted to the cold tier. 0 = unbounded.
  int64_t max_hot = 0;
  // Sketch block for cold-tier stores.
  int64_t sketch_block = series::SeriesSketch::kDefaultBlock;
};

struct Tenant {
  uint64_t id = 0;

  // Canonical post-filter append log. Kept even while hot: the cumulative
  // columns inside the session cannot reconstruct the exact count vectors
  // (subtraction reintroduces rounding), and fault-up needs them.
  std::vector<double> log_a;
  std::vector<double> log_b;
  DominanceFilter filter;

  // Accepted ticks not yet applied to the session.
  std::vector<double> pend_a;
  std::vector<double> pend_b;

  // Hot state; null while cold or before the first valid prefix (a
  // session needs a CountSequence, which rejects all-zero inputs — such
  // tenants stay pending-only until a nonzero tick arrives).
  std::unique_ptr<incr::StreamSession> session;
  // Cold state; empty while hot.
  series::SeriesStore cold;

  // Scheduler bookkeeping (owned by the daemon, stored here for eviction
  // ordering): set while a dispatched batch for this tenant runs outside
  // the registry lock.
  bool in_flight = false;
  // Appends were applied since the last cover refresh (append-only mode).
  bool cover_dirty = false;
  // Monotone dispatch clock position of the last dispatch (LRU key).
  uint64_t last_dispatch_seq = 0;

  int64_t applied_ticks() const {
    return static_cast<int64_t>(log_a.size() - pend_a.size());
  }
};

class TenantRegistry {
 public:
  explicit TenantRegistry(const TenantConfig& config);

  // Looks up or creates the tenant.
  Tenant& GetOrCreate(uint64_t id);
  Tenant* Find(uint64_t id);

  // Filters and appends m raw ticks to the tenant's log + pending queue.
  void Enqueue(Tenant& tenant, const double* a, const double* b, int64_t m);

  // Dispatch is split so the expensive half can run outside the daemon's
  // mutex while readers keep appending to the same tenant:
  //
  //   * PrepareDispatch (call LOCKED) snapshots the work — swaps the
  //     pending ticks into *a/*b, or, when the tenant has no session yet,
  //     copies the full raw log (the session's initial batch subsumes the
  //     pending ticks) and sets *fault. Clears the pending queue; returns
  //     the number of pending ticks consumed.
  //   * ApplyBatch (call UNLOCKED, tenant pinned via in_flight) feeds the
  //     snapshot to the session, creating it first on the fault path. Only
  //     tenant.session / tenant.cold / tenant.cover_dirty are touched —
  //     fields readers never access.
  int64_t PrepareDispatch(Tenant& tenant, std::vector<double>* a,
                          std::vector<double>* b, bool* fault);
  void ApplyBatch(Tenant& tenant, bool fault, const std::vector<double>& a,
                  const std::vector<double>& b);

  // Convenience for single-threaded callers (tests): Prepare + Apply.
  int64_t ApplyPending(Tenant& tenant);

  // Refreshes the deferred cover of a hot, dirty tenant (append-only
  // mode); no-op otherwise. Call unlocked with the tenant pinned. Returns
  // true when a refresh ran.
  bool RefreshCover(Tenant& tenant);

  // Demotes the tenant to the cold tier: refreshes any deferred cover,
  // builds a sketch-tier SeriesStore over its applied series and drops the
  // session. Call unlocked with the tenant pinned; ticks that arrive
  // during the eviction stay pending and fault the tenant right back up
  // on their dispatch.
  void Evict(Tenant& tenant);

  // (last_dispatch_seq, id) of hot, idle (not in_flight, no pending)
  // tenants in ascending order — the eviction scan's candidate order.
  std::vector<std::pair<uint64_t, uint64_t>> HotIdleByLru() const;

  const TenantConfig& config() const { return config_; }
  int64_t size() const { return static_cast<int64_t>(tenants_.size()); }
  // Atomics: bumped by ApplyBatch/Evict, which run outside the daemon
  // mutex.
  int64_t hot_count() const {
    return hot_count_.load(std::memory_order_relaxed);
  }
  int64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  // Iteration for refresh ticks / drain checks.
  std::unordered_map<uint64_t, std::unique_ptr<Tenant>>& tenants() {
    return tenants_;
  }

 private:
  // (Re)creates tenant.session from a raw-log snapshot. Returns false when
  // the snapshot is not yet a valid CountSequence (all-zero so far).
  bool FaultUp(Tenant& tenant, const std::vector<double>& a,
               const std::vector<double>& b);

  TenantConfig config_;
  std::unordered_map<uint64_t, std::unique_ptr<Tenant>> tenants_;
  std::atomic<int64_t> hot_count_{0};
  std::atomic<int64_t> faults_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace conservation::serve

#endif  // CONSERVATION_SERVE_TENANT_REGISTRY_H_
