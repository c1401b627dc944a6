// Wire protocol for the conservation serving daemon (crserved): a
// length-prefixed binary framing over a loopback TCP socket.
//
// Frame layout (all integers little-endian, floats IEEE-754 binary64 in
// little-endian byte order — the daemon is an operator-local loopback
// service, but the encoding is still pinned so a mixed-endian toolchain
// cannot silently corrupt counts):
//
//   frame   := u32 payload_len | payload          (len covers the payload)
//   payload := u8 type | body
//
//   kAppend(1)     u64 tenant_id | u32 m | m x f64 a | m x f64 b
//                  One batch of m ticks for one tenant. The daemon replies
//                  with exactly one kAck per kAppend, in request order
//                  (pipelining is allowed: a client may send several
//                  appends before reading the acks).
//   kAck(2)        u64 tenant_id | u8 status | u32 accepted_ticks |
//                  u64 queued_ticks
//                  status: AckStatus below. queued_ticks is the tenant's
//                  post-enqueue queue depth — admission-aware clients use
//                  it to self-pace before the hard backpressure bound.
//   kPing(3)       (empty body). Replies kAck{tenant_id=0, kOk}. Doubles
//                  as a sync barrier: the ack proves every earlier frame
//                  on this connection was decoded and enqueued.
//   kStats(4)      (empty body). Replies kStatsReply.
//   kStatsReply(5) u64 tenants | u64 ticks_ingested | u64 ticks_processed |
//                  u64 batches_rejected
//                  ticks_ingested counts accepted appends at enqueue time;
//                  ticks_processed counts ticks applied to tenant state.
//                  Drivers poll the delta to compute sustained throughput.
//
// Acks are per-append admission decisions: kOk means the batch is queued
// (durably owned by the daemon and guaranteed applied before a drain
// completes), not yet applied. kBackpressure means the batch was REJECTED
// under the per-tenant or global queue bound and must be retried later.
// kInvalid means the batch carried a negative or non-finite count and was
// rejected whole; resending it unchanged is rejected again.
//
// FrameReader is the incremental decoder both sides use: feed it raw
// bytes as they arrive, pop complete frames. A protocol violation (bad
// type, oversized or short body) poisons the reader — the connection
// should be dropped, there is no resynchronization inside a stream.

#ifndef CONSERVATION_SERVE_PROTOCOL_H_
#define CONSERVATION_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace conservation::serve {

enum class FrameType : uint8_t {
  kAppend = 1,
  kAck = 2,
  kPing = 3,
  kStats = 4,
  kStatsReply = 5,
};

enum class AckStatus : uint8_t {
  kOk = 0,            // batch queued (or ping answered)
  kBackpressure = 1,  // rejected: queue bound hit, retry later
  kShuttingDown = 2,  // rejected: daemon is draining
  kInvalid = 3,       // rejected: a count is negative or not finite
};

const char* AckStatusName(AckStatus status);

// Hard cap on one frame's payload: 1 MiB of ticks (~65k ticks per append)
// is far beyond any sane batch; anything larger is a protocol violation,
// not a workload.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
// Largest m a kAppend may carry under kMaxFramePayload.
inline constexpr uint32_t kMaxAppendTicks =
    (kMaxFramePayload - 1 - 8 - 4) / 16;

struct AppendFrame {
  uint64_t tenant_id = 0;
  std::vector<double> a;
  std::vector<double> b;
};

struct AckFrame {
  uint64_t tenant_id = 0;
  AckStatus status = AckStatus::kOk;
  uint32_t accepted_ticks = 0;
  uint64_t queued_ticks = 0;
};

struct StatsReplyFrame {
  uint64_t tenants = 0;
  uint64_t ticks_ingested = 0;
  uint64_t ticks_processed = 0;
  uint64_t batches_rejected = 0;
};

// One decoded frame; the struct matching `type` is populated.
struct Frame {
  FrameType type = FrameType::kPing;
  AppendFrame append;
  AckFrame ack;
  StatsReplyFrame stats;
};

// Encoders append the complete frame (length prefix included) to *out.
void EncodeAppend(uint64_t tenant_id, const double* a, const double* b,
                  int64_t m, std::string* out);
void EncodeAck(const AckFrame& ack, std::string* out);
void EncodePing(std::string* out);
void EncodeStatsRequest(std::string* out);
void EncodeStatsReply(const StatsReplyFrame& stats, std::string* out);

class FrameReader {
 public:
  // Appends raw bytes to the decode buffer.
  void Feed(const char* data, size_t size);

  // Pops the next complete frame. Returns true and fills *frame when one
  // is available; false otherwise — distinguish "need more bytes" from a
  // protocol violation via failed(). Once failed, the reader stays failed
  // and Next always returns false.
  bool Next(Frame* frame);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet consumed (0 on a clean frame boundary).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  bool Violation(const std::string& message);

  std::string buffer_;
  size_t consumed_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace conservation::serve

#endif  // CONSERVATION_SERVE_PROTOCOL_H_
