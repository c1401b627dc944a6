#include "incr/stream_session.h"

#include <utility>

#include "util/check.h"

namespace conservation::incr {

util::Result<StreamSession> StreamSession::Create(
    const series::CountSequence& initial, const core::TableauRequest& request,
    const stream::StreamOptions& stream_options) {
  util::Result<IncrementalDiscoverer> discoverer =
      IncrementalDiscoverer::Create(initial, request);
  if (!discoverer.ok()) return discoverer.status();
  StreamSession session(std::move(discoverer).value(), stream_options);
  for (int64_t t = 1; t <= initial.n(); ++t) {
    session.monitor_->Observe(initial.a(t), initial.b(t));
  }
  return session;
}

StreamSession::StreamSession(IncrementalDiscoverer discoverer,
                             const stream::StreamOptions& stream_options)
    : discoverer_(
          std::make_unique<IncrementalDiscoverer>(std::move(discoverer))),
      monitor_(std::make_unique<stream::StreamingMonitor>(stream_options)) {}

const core::Tableau& StreamSession::ObserveBatch(const double* a,
                                                 const double* b, int64_t m) {
  CR_CHECK(m > 0);
  for (int64_t k = 0; k < m; ++k) {
    monitor_->Observe(a[k], b[k]);
  }
  return discoverer_->AppendBatch(a, b, m);
}

const core::Tableau& StreamSession::ObserveBatch(const std::vector<double>& a,
                                                 const std::vector<double>& b) {
  CR_CHECK(a.size() == b.size());
  return ObserveBatch(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

}  // namespace conservation::incr
