// Serving daemon tests: protocol framing, admission/backpressure, tenant
// eviction + re-fault identity, and clean drain — the per-component
// counterpart to the end-to-end tools/serve_soak.cc concurrency smoke.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/tenant_registry.h"
#include "series/cumulative.h"
#include "series/preprocess.h"
#include "series/sequence.h"
#include "tests/test_data.h"
#include "util/random.h"

namespace conservation {
namespace {

using serve::AckFrame;
using serve::AckStatus;
using serve::Frame;
using serve::FrameReader;
using serve::FrameType;

void ExpectSameTableau(const core::Tableau& lhs, const core::Tableau& rhs,
                       const std::string& context) {
  ASSERT_EQ(lhs.rows.size(), rhs.rows.size()) << context;
  for (size_t r = 0; r < rhs.rows.size(); ++r) {
    EXPECT_EQ(lhs.rows[r].interval.begin, rhs.rows[r].interval.begin)
        << context << " row " << r;
    EXPECT_EQ(lhs.rows[r].interval.end, rhs.rows[r].interval.end)
        << context << " row " << r;
    EXPECT_EQ(std::memcmp(&lhs.rows[r].confidence, &rhs.rows[r].confidence,
                          sizeof(double)),
              0)
        << context << " row " << r;
  }
  EXPECT_EQ(lhs.covered, rhs.covered) << context;
  EXPECT_EQ(lhs.required, rhs.required) << context;
  EXPECT_EQ(lhs.support_satisfied, rhs.support_satisfied) << context;
  EXPECT_EQ(lhs.num_candidates, rhs.num_candidates) << context;
}

// ---------------------------------------------------------------------------
// Protocol framing

TEST(Protocol, AppendRoundTripPreservesBits) {
  const std::vector<double> a = {1.5, 0.0, 3.25, 1e-300};
  const std::vector<double> b = {2.5, 1.0, 3.25, 7.75};
  std::string wire;
  serve::EncodeAppend(0xdeadbeefcafeULL, a.data(), b.data(), 4, &wire);

  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kAppend);
  EXPECT_EQ(frame.append.tenant_id, 0xdeadbeefcafeULL);
  ASSERT_EQ(frame.append.a.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(std::memcmp(&frame.append.a[k], &a[k], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&frame.append.b[k], &b[k], sizeof(double)), 0);
  }
  EXPECT_FALSE(reader.Next(&frame));  // exactly one frame
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, ByteAtATimeFeedingDecodesIdentically) {
  std::string wire;
  serve::EncodePing(&wire);
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, 4.0};
  serve::EncodeAppend(42, a.data(), b.data(), 2, &wire);
  AckFrame ack;
  ack.tenant_id = 42;
  ack.status = AckStatus::kBackpressure;
  ack.accepted_ticks = 0;
  ack.queued_ticks = 17;
  serve::EncodeAck(ack, &wire);

  FrameReader reader;
  std::vector<FrameType> seen;
  Frame frame;
  for (char byte : wire) {
    reader.Feed(&byte, 1);
    while (reader.Next(&frame)) seen.push_back(frame.type);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], FrameType::kPing);
  EXPECT_EQ(seen[1], FrameType::kAppend);
  EXPECT_EQ(seen[2], FrameType::kAck);
  EXPECT_EQ(frame.ack.status, AckStatus::kBackpressure);
  EXPECT_EQ(frame.ack.queued_ticks, 17u);
}

TEST(Protocol, StatsReplyRoundTrip) {
  serve::StatsReplyFrame stats;
  stats.tenants = 1000;
  stats.ticks_ingested = 1234567890123ULL;
  stats.ticks_processed = 1234567890000ULL;
  stats.batches_rejected = 7;
  std::string wire;
  serve::EncodeStatsReply(stats, &wire);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kStatsReply);
  EXPECT_EQ(frame.stats.tenants, 1000u);
  EXPECT_EQ(frame.stats.ticks_ingested, 1234567890123ULL);
  EXPECT_EQ(frame.stats.ticks_processed, 1234567890000ULL);
  EXPECT_EQ(frame.stats.batches_rejected, 7u);
}

TEST(Protocol, InvalidAckStatusRoundTrips) {
  AckFrame ack;
  ack.tenant_id = 9;
  ack.status = AckStatus::kInvalid;
  std::string wire;
  serve::EncodeAck(ack, &wire);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.ack.status, AckStatus::kInvalid);
  EXPECT_STREQ(serve::AckStatusName(AckStatus::kInvalid), "invalid");

  // The status byte past the last defined status is a violation.
  const uint8_t past_last = static_cast<uint8_t>(AckStatus::kInvalid) + 1;
  wire[4 + 1 + 8] = static_cast<char>(past_last);  // len | type | tenant
  FrameReader reader2;
  reader2.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader2.Next(&frame));
  EXPECT_TRUE(reader2.failed());
}

TEST(Protocol, OversizedFramePoisonsReader) {
  std::string wire;
  const uint32_t huge = serve::kMaxFramePayload + 1;
  wire.push_back(static_cast<char>(huge & 0xff));
  wire.push_back(static_cast<char>((huge >> 8) & 0xff));
  wire.push_back(static_cast<char>((huge >> 16) & 0xff));
  wire.push_back(static_cast<char>((huge >> 24) & 0xff));
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("length"), std::string::npos);
  // Poisoned for good: further feeds/nexts stay failed.
  std::string ping;
  serve::EncodePing(&ping);
  reader.Feed(ping.data(), ping.size());
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());
}

TEST(Protocol, MalformedBodiesAreViolations) {
  // Append whose body says 3 ticks but carries bytes for 2.
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  std::string wire;
  serve::EncodeAppend(1, a.data(), b.data(), 3, &wire);
  // Truncate the payload by one tick pair and patch the length prefix.
  wire.resize(wire.size() - 16);
  const uint32_t payload = static_cast<uint32_t>(wire.size() - 4);
  wire[0] = static_cast<char>(payload & 0xff);
  wire[1] = static_cast<char>((payload >> 8) & 0xff);
  wire[2] = static_cast<char>((payload >> 16) & 0xff);
  wire[3] = static_cast<char>((payload >> 24) & 0xff);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());

  // Unknown frame type.
  std::string bad = std::string("\x01\x00\x00\x00", 4) + '\x63';
  FrameReader reader2;
  reader2.Feed(bad.data(), bad.size());
  EXPECT_FALSE(reader2.Next(&frame));
  EXPECT_TRUE(reader2.failed());
  EXPECT_NE(reader2.error().find("unknown frame type"), std::string::npos);
}

// --- FrameReader mutation test ---------------------------------------------
//
// Deterministic, seeded mutations of a valid encoded stream — truncation at
// every byte, zero / oversized / off-by-one lengths, flipped type, status
// and tick-count bytes, random byte corruption — each decoded under three
// delivery plans (whole buffer, byte at a time, random chunks). Every run
// must satisfy the reader's contract:
//   - no frame is decoded that is not literally in the input: each decoded
//     frame re-encodes to exactly the bytes at its stream offset;
//   - every frame wholly before the first mutated byte decodes bit-exactly
//     to the frame that was encoded there;
//   - a poisoned reader stays poisoned (further bytes decode nothing);
//   - the outcome does not depend on how the bytes were delivered.
// Crashes and out-of-bounds reads surface directly (and under the asan_serve
// ctest configuration).

// One encoded frame of the reference stream.
struct EncodedFrame {
  size_t offset = 0;
  std::string bytes;
};

// Re-encodes a decoded frame with the public encoders.
std::string Reencode(const Frame& frame) {
  std::string out;
  switch (frame.type) {
    case FrameType::kAppend:
      serve::EncodeAppend(frame.append.tenant_id, frame.append.a.data(),
                          frame.append.b.data(),
                          static_cast<int64_t>(frame.append.a.size()), &out);
      break;
    case FrameType::kAck:
      serve::EncodeAck(frame.ack, &out);
      break;
    case FrameType::kPing:
      serve::EncodePing(&out);
      break;
    case FrameType::kStats:
      serve::EncodeStatsRequest(&out);
      break;
    case FrameType::kStatsReply:
      serve::EncodeStatsReply(frame.stats, &out);
      break;
  }
  return out;
}

// A stream holding every frame type, with appends of several sizes and
// count bit patterns a float round trip could lose (-0.0, a NaN payload,
// denormals, infinities).
std::vector<EncodedFrame> ReferenceFrames(util::Rng* rng) {
  std::vector<EncodedFrame> frames;
  std::string wire;
  auto close = [&](size_t begin) {
    frames.push_back(EncodedFrame{begin, wire.substr(begin)});
  };
  for (int round = 0; round < 2; ++round) {
    for (const int64_t m : {1, 3, 8}) {
      std::vector<double> a(static_cast<size_t>(m));
      std::vector<double> b(static_cast<size_t>(m));
      for (int64_t k = 0; k < m; ++k) {
        a[static_cast<size_t>(k)] = rng->Uniform(0.0, 100.0);
        b[static_cast<size_t>(k)] = rng->Uniform(0.0, 100.0);
      }
      a[0] = round == 0 ? -0.0 : std::numeric_limits<double>::denorm_min();
      if (m > 1) {
        uint64_t nan_bits = 0x7ff8000000001234ULL;
        std::memcpy(&b[1], &nan_bits, sizeof(double));
        a[1] = std::numeric_limits<double>::infinity();
      }
      const size_t begin = wire.size();
      serve::EncodeAppend(static_cast<uint64_t>(rng->UniformInt(0, 1 << 30)),
                          a.data(), b.data(), m, &wire);
      close(begin);
    }
    for (const AckStatus status :
         {AckStatus::kOk, AckStatus::kBackpressure, AckStatus::kShuttingDown,
          AckStatus::kInvalid}) {
      AckFrame ack;
      ack.tenant_id = static_cast<uint64_t>(rng->UniformInt(0, 1 << 30));
      ack.status = status;
      ack.accepted_ticks = static_cast<uint32_t>(rng->UniformInt(0, 64));
      ack.queued_ticks = static_cast<uint64_t>(rng->UniformInt(0, 1 << 20));
      const size_t begin = wire.size();
      serve::EncodeAck(ack, &wire);
      close(begin);
    }
    size_t begin = wire.size();
    serve::EncodePing(&wire);
    close(begin);
    begin = wire.size();
    serve::EncodeStatsRequest(&wire);
    close(begin);
    serve::StatsReplyFrame stats;
    stats.tenants = 3;
    stats.ticks_ingested = 0xfedcba9876543210ULL;
    stats.ticks_processed = 12345;
    stats.batches_rejected = 6;
    begin = wire.size();
    serve::EncodeStatsReply(stats, &wire);
    close(begin);
  }
  return frames;
}

std::string Concat(const std::vector<EncodedFrame>& frames) {
  std::string wire;
  for (const EncodedFrame& f : frames) wire += f.bytes;
  return wire;
}

enum class Delivery { kWhole, kByteAtATime, kRandomChunks };

struct DecodeResult {
  std::vector<std::string> frames;  // re-encoded, in decode order
  bool failed = false;
  std::string error;
  size_t buffered = 0;
};

// Feeds `wire` per `delivery`, draining Next after every feed, and checks
// that every decoded frame re-encodes to the bytes at its offset and that
// a failure is sticky.
DecodeResult Decode(const std::string& wire, Delivery delivery,
                    uint64_t chunk_seed) {
  FrameReader reader;
  DecodeResult result;
  util::Rng rng(chunk_seed);
  size_t offset = 0;  // stream offset of the next decoded frame
  Frame frame;
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t len = wire.size() - pos;
    if (delivery == Delivery::kByteAtATime) len = 1;
    if (delivery == Delivery::kRandomChunks) {
      len = std::min<size_t>(len, static_cast<size_t>(rng.UniformInt(1, 40)));
    }
    reader.Feed(wire.data() + pos, len);
    pos += len;
    while (reader.Next(&frame)) {
      std::string bytes = Reencode(frame);
      EXPECT_LE(offset + bytes.size(), pos) << "frame decoded past the feed";
      EXPECT_EQ(wire.compare(offset, bytes.size(), bytes), 0)
          << "decoded a frame not present at offset " << offset;
      offset += bytes.size();
      result.frames.push_back(std::move(bytes));
    }
    if (reader.failed()) break;
  }
  result.failed = reader.failed();
  result.error = reader.error();
  result.buffered = reader.buffered();
  if (result.failed) {
    // Sticky: the rest of the stream plus a fresh valid frame decode
    // nothing and leave the reader poisoned.
    std::string tail = wire.substr(pos);
    serve::EncodePing(&tail);
    reader.Feed(tail.data(), tail.size());
    EXPECT_FALSE(reader.Next(&frame));
    EXPECT_TRUE(reader.failed());
    EXPECT_EQ(reader.buffered(), 0u);
  } else {
    EXPECT_EQ(result.buffered, wire.size() - offset);
  }
  return result;
}

// Decodes `wire` under every delivery plan, requires identical outcomes,
// and requires the frames wholly before `first_mutated` to decode exactly
// as encoded. Returns the whole-buffer result.
DecodeResult DecodeAllWays(const std::string& wire,
                           const std::vector<EncodedFrame>& reference,
                           size_t first_mutated, uint64_t seed) {
  const DecodeResult whole = Decode(wire, Delivery::kWhole, seed);
  for (const Delivery delivery :
       {Delivery::kByteAtATime, Delivery::kRandomChunks}) {
    const DecodeResult other = Decode(wire, delivery, seed);
    EXPECT_EQ(other.frames, whole.frames);
    EXPECT_EQ(other.failed, whole.failed);
    EXPECT_EQ(other.error, whole.error);
    EXPECT_EQ(other.buffered, whole.buffered);
  }
  size_t intact = 0;
  while (intact < reference.size() &&
         reference[intact].offset + reference[intact].bytes.size() <=
             first_mutated) {
    ++intact;
  }
  EXPECT_GE(whole.frames.size(), intact);
  for (size_t k = 0; k < std::min(intact, whole.frames.size()); ++k) {
    EXPECT_EQ(whole.frames[k], reference[k].bytes) << "frame " << k;
  }
  return whole;
}

void PutLength(uint32_t len, std::string* wire, size_t at) {
  for (int k = 0; k < 4; ++k) {
    (*wire)[at + static_cast<size_t>(k)] =
        static_cast<char>((len >> (8 * k)) & 0xff);
  }
}

TEST(Protocol, MutatedStreamsNeverDecodeForeignFrames) {
  util::Rng rng(20121);
  const std::vector<EncodedFrame> reference = ReferenceFrames(&rng);
  const std::string wire = Concat(reference);
  uint64_t seed = 1;

  // The intact stream, under every delivery plan.
  {
    SCOPED_TRACE("intact");
    const DecodeResult r = DecodeAllWays(wire, reference, wire.size(), seed++);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.frames.size(), reference.size());
  }

  // Truncation at every byte: frames wholly inside the prefix decode, the
  // partial one waits for more bytes, nothing fails.
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SCOPED_TRACE("truncate at " + std::to_string(cut));
    const DecodeResult r =
        DecodeAllWays(wire.substr(0, cut), reference, cut, seed++);
    EXPECT_FALSE(r.failed);
    size_t whole_frames = 0;
    while (whole_frames < reference.size() &&
           reference[whole_frames].offset +
                   reference[whole_frames].bytes.size() <=
               cut) {
      ++whole_frames;
    }
    EXPECT_EQ(r.frames.size(), whole_frames);
  }

  for (size_t f = 0; f < reference.size(); ++f) {
    const EncodedFrame& target = reference[f];
    const uint32_t payload = static_cast<uint32_t>(target.bytes.size() - 4);
    const bool last = f + 1 == reference.size();

    // Zero and oversized lengths poison the reader at this frame.
    for (const uint32_t len :
         {uint32_t{0}, serve::kMaxFramePayload + 1, uint32_t{0xffffffff}}) {
      SCOPED_TRACE("frame " + std::to_string(f) + " length " +
                   std::to_string(len));
      std::string mutated = wire;
      PutLength(len, &mutated, target.offset);
      const DecodeResult r =
          DecodeAllWays(mutated, reference, target.offset, seed++);
      EXPECT_TRUE(r.failed);
      EXPECT_EQ(r.frames.size(), f);
    }
    // Off-by-one lengths never decode the frame: every body size is exact.
    // Only the last frame, one byte long, is merely incomplete.
    for (const int delta : {-1, 1}) {
      SCOPED_TRACE("frame " + std::to_string(f) + " length off by " +
                   std::to_string(delta));
      std::string mutated = wire;
      PutLength(static_cast<uint32_t>(static_cast<int64_t>(payload) + delta),
                &mutated, target.offset);
      const DecodeResult r =
          DecodeAllWays(mutated, reference, target.offset, seed++);
      EXPECT_EQ(r.frames.size(), f);
      EXPECT_EQ(r.failed, !(last && delta == 1));
    }

    // Every single-bit flip of the type byte: an unknown type poisons; a
    // known one decodes only as the frame the mutated bytes spell.
    const size_t type_at = target.offset + 4;
    const uint8_t type = static_cast<uint8_t>(wire[type_at]);
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("frame " + std::to_string(f) + " type bit " +
                   std::to_string(bit));
      std::string mutated = wire;
      const uint8_t flipped = static_cast<uint8_t>(type ^ (1u << bit));
      mutated[type_at] = static_cast<char>(flipped);
      const DecodeResult r = DecodeAllWays(mutated, reference, type_at, seed++);
      if (flipped < 1 || flipped > 5) {
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.frames.size(), f);
      }
    }

    if (type == static_cast<uint8_t>(FrameType::kAck)) {
      // Status byte: past the last defined status poisons.
      const size_t status_at = type_at + 1 + 8;
      const uint8_t status = static_cast<uint8_t>(wire[status_at]);
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE("frame " + std::to_string(f) + " status bit " +
                     std::to_string(bit));
        std::string mutated = wire;
        const uint8_t flipped = static_cast<uint8_t>(status ^ (1u << bit));
        mutated[status_at] = static_cast<char>(flipped);
        const DecodeResult r =
            DecodeAllWays(mutated, reference, status_at, seed++);
        const bool valid = flipped <= static_cast<uint8_t>(AckStatus::kInvalid);
        EXPECT_EQ(r.failed, !valid);
        EXPECT_EQ(r.frames.size(), valid ? reference.size() : f);
      }
    }

    if (type == static_cast<uint8_t>(FrameType::kAppend)) {
      // Tick count m: any other value disagrees with the body size (or is
      // out of range), so every single-bit flip poisons at this frame.
      const size_t m_at = type_at + 1 + 8;
      for (int bit = 0; bit < 32; ++bit) {
        SCOPED_TRACE("frame " + std::to_string(f) + " m bit " +
                     std::to_string(bit));
        std::string mutated = wire;
        const size_t byte_at = m_at + static_cast<size_t>(bit / 8);
        mutated[byte_at] =
            static_cast<char>(static_cast<uint8_t>(mutated[byte_at]) ^
                              (1u << (bit % 8)));
        const DecodeResult r =
            DecodeAllWays(mutated, reference, byte_at, seed++);
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.frames.size(), f);
      }
    }
  }

  // Random corruption: 1-4 bytes overwritten anywhere, then truncated at a
  // random point; only the generic contract is asserted.
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("random trial " + std::to_string(trial));
    std::string mutated = wire;
    size_t first = mutated.size();
    const int64_t writes = rng.UniformInt(1, 4);
    for (int64_t w = 0; w < writes; ++w) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
      first = std::min(first, at);
    }
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size())));
    mutated.resize(cut);
    DecodeAllWays(mutated, reference, std::min(first, cut), seed++);
  }
}

// ---------------------------------------------------------------------------
// Dominance filter

TEST(DominanceFilter, StreamingMatchesBatchEnforceDominanceBitwise) {
  // Raw counts where a overruns b in places (dominance violated).
  std::vector<double> raw_a = {5, 0, 3, 7,   0, 2.25, 9, 1};
  std::vector<double> raw_b = {1, 4, 3, 0.5, 6, 2.25, 2, 8};
  auto counts = series::CountSequence::Create(raw_a, raw_b);
  ASSERT_TRUE(counts.ok());
  const series::CountSequence batch = series::EnforceDominance(counts.value());

  serve::DominanceFilter filter;
  for (size_t k = 0; k < raw_a.size(); ++k) {
    double fa = raw_a[k];
    double fb = raw_b[k];
    filter.Apply(&fa, &fb);
    EXPECT_EQ(std::memcmp(&fa, &batch.outbound()[k], sizeof(double)), 0)
        << "tick " << k;
    EXPECT_EQ(std::memcmp(&fb, &batch.inbound()[k], sizeof(double)), 0)
        << "tick " << k;
  }
}

// ---------------------------------------------------------------------------
// Daemon end to end (loopback sockets)

serve::TenantConfig TestTenantConfig() {
  serve::TenantConfig config;
  config.request.type = core::TableauType::kFail;
  config.request.c_hat = 0.5;
  config.request.s_hat = 0.05;
  config.append_only = true;
  return config;
}

TEST(ServeDaemon, ProtocolOverSocketMatchesFreshDiscovery) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;  // deterministic: no background sweeps

  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/5, 96);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  for (int64_t at = 0; at < counts.n(); at += 12) {
    const int64_t m = std::min<int64_t>(12, counts.n() - at);
    auto ack = client.Append(7, a.data() + at, b.data() + at, m);
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    EXPECT_EQ(ack->status, AckStatus::kOk);
    EXPECT_EQ(ack->accepted_ticks, static_cast<uint32_t>(m));
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tenants, 1u);
  EXPECT_EQ(stats->ticks_ingested, static_cast<uint64_t>(counts.n()));

  daemon.DrainQueues();
  serve::Tenant* tenant = daemon.registry().Find(7);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);
  daemon.registry().RefreshCover(*tenant);

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " socket-replay");
  daemon.Stop();
}

TEST(ServeDaemon, BackpressureRejectsOverfullTenantQueue) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  options.max_tenant_queue_ticks = 8;  // tiny: second append must bounce
                                       // while the first is still queued
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> a(8, 1.0);
  std::vector<double> b(8, 2.0);

  // Saturate: keep appending until a backpressure ack arrives. The
  // dispatcher is draining concurrently, so acceptance counts vary, but
  // with an 8-tick bound and 8-tick appends a rejection must occur well
  // within the attempt budget on any scheduling.
  bool saw_backpressure = false;
  for (int attempt = 0; attempt < 10000 && !saw_backpressure; ++attempt) {
    auto ack = client.Append(1, a.data(), b.data(), 8);
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    if (ack->status == AckStatus::kBackpressure) {
      saw_backpressure = true;
      EXPECT_EQ(ack->accepted_ticks, 0u);
    }
  }
  EXPECT_TRUE(saw_backpressure);

  // An append larger than the per-tenant bound can never be admitted.
  std::vector<double> big_a(9, 1.0);
  std::vector<double> big_b(9, 2.0);
  auto ack = client.Append(2, big_a.data(), big_b.data(), 9);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kBackpressure);

  daemon.Stop();
  const serve::DaemonStats final_stats = daemon.Stats();
  EXPECT_GT(final_stats.appends_rejected, 0u);
  EXPECT_EQ(final_stats.ticks_ingested, final_stats.ticks_processed);
}

TEST(ServeDaemon, EvictionAndRefaultPreserveTableauBitwise) {
  serve::TenantConfig config = TestTenantConfig();
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(config, options);
  ASSERT_TRUE(daemon.Start().ok());

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/11, 80);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  // First half, then evict, then second half — the re-faulted session must
  // land exactly where an always-hot one would.
  auto ack = client.Append(3, a.data(), b.data(), 40);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->status, AckStatus::kOk);
  daemon.DrainQueues();

  serve::Tenant* tenant = daemon.registry().Find(3);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);
  daemon.registry().Evict(*tenant);
  EXPECT_EQ(tenant->session, nullptr);
  EXPECT_FALSE(tenant->cold.empty());
  EXPECT_EQ(tenant->cold.tier(), series::SeriesStore::Tier::kSketch);
  EXPECT_EQ(tenant->cold.n(), 40);

  ack = client.Append(3, a.data() + 40, b.data() + 40, 40);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->status, AckStatus::kOk);
  daemon.DrainQueues();
  ASSERT_NE(tenant->session, nullptr);  // faulted back up
  EXPECT_TRUE(tenant->cold.empty());    // cold copy dropped on fault
  daemon.registry().RefreshCover(*tenant);

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, config.request.model);
  auto fresh = core::DiscoverTableau(eval, config.request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " evict-refault");
  EXPECT_EQ(daemon.registry().evictions(), 1);
  EXPECT_EQ(daemon.registry().faults(), 2);
  daemon.Stop();
}

TEST(ServeDaemon, StopDrainsEverythingAccepted) {
  serve::DaemonOptions options;
  options.refresh_ms = 5;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> a(4, 1.0);
  std::vector<double> b(4, 2.5);
  uint64_t accepted_ticks = 0;
  for (int i = 0; i < 200; ++i) {
    auto ack = client.Append(1 + (i % 16), a.data(), b.data(), 4);
    ASSERT_TRUE(ack.ok());
    if (ack->status == AckStatus::kOk) accepted_ticks += 4;
  }
  daemon.Stop();  // drains without waiting for the client to disconnect
  const serve::DaemonStats stats = daemon.Stats();
  EXPECT_EQ(stats.ticks_ingested, accepted_ticks);
  EXPECT_EQ(stats.ticks_processed, accepted_ticks);
  for (auto& [id, tenant] : daemon.registry().tenants()) {
    EXPECT_TRUE(tenant->pend_a.empty()) << "tenant " << id;
    EXPECT_FALSE(tenant->cover_dirty) << "tenant " << id;
  }
}

TEST(ServeDaemon, AllZeroTenantStaysPendingOnlyUntilValid) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> zero(6, 0.0);
  auto ack = client.Append(9, zero.data(), zero.data(), 6);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kOk);  // accepted: the log is the truth
  daemon.DrainQueues();
  serve::Tenant* tenant = daemon.registry().Find(9);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->session, nullptr);  // all-zero: no session possible yet

  std::vector<double> a = {1.0, 0.5};
  std::vector<double> b = {2.0, 2.0};
  ack = client.Append(9, a.data(), b.data(), 2);
  ASSERT_TRUE(ack.ok());
  daemon.DrainQueues();
  ASSERT_NE(tenant->session, nullptr);  // first nonzero tick unlocked it
  EXPECT_EQ(tenant->session->n(), 8);   // zeros included in the series
  daemon.Stop();
}

// Negative and non-finite counts are refused whole at admission with
// kInvalid: nothing is queued and no tenant is created. A NaN that got
// through would poison the tenant's dominance filter and abort the daemon
// at its next dispatch; a negative count would be silently rewritten.
TEST(ServeDaemon, RejectsNonFiniteAndNegativeCounts) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());

  const double bad_counts[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               -1.0};
  uint64_t invalid = 0;
  for (const double bad : bad_counts) {
    for (const bool in_a : {true, false}) {
      std::vector<double> a = {1.0, 1.0, 1.0};
      std::vector<double> b = {2.0, 2.0, 2.0};
      (in_a ? a : b)[1] = bad;
      auto ack = client.Append(100, a.data(), b.data(), 3);
      ASSERT_TRUE(ack.ok()) << ack.status().message();
      EXPECT_EQ(ack->status, AckStatus::kInvalid)
          << bad << (in_a ? " in a" : " in b");
      EXPECT_EQ(ack->accepted_ticks, 0u);
      ++invalid;
    }
  }
  EXPECT_EQ(daemon.registry().Find(100), nullptr);

  // A tenant keeps serving across a refused append: the valid ticks around
  // it apply, and the tableau matches fresh discovery over them alone.
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/13, 48);
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  auto ack = client.Append(7, a.data(), b.data(), 24);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  std::vector<double> nan_a(a.begin() + 24, a.end());
  nan_a[3] = std::numeric_limits<double>::quiet_NaN();
  ack = client.Append(7, nan_a.data(), b.data() + 24, 24);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kInvalid);
  ++invalid;
  ack = client.Append(7, a.data() + 24, b.data() + 24, 24);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  daemon.DrainQueues();

  serve::Tenant* tenant = daemon.registry().Find(7);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);
  daemon.registry().RefreshCover(*tenant);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       TestTenantConfig().request.model);
  auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " after-invalid");
  daemon.Stop();

  const serve::DaemonStats stats = daemon.Stats();
  EXPECT_EQ(stats.appends_invalid, invalid);
  EXPECT_EQ(stats.appends_rejected, 0u);
  EXPECT_EQ(stats.appends_accepted, 2u);
  EXPECT_EQ(stats.ticks_ingested, static_cast<uint64_t>(counts.n()));
}

// A refresh sweep that must evict several tenants at once evicts the least
// recently dispatched ones and keeps the most recent hot.
TEST(ServeDaemon, SweepEvictsSeveralTenantsInLruOrder) {
  serve::TenantConfig config = TestTenantConfig();
  config.max_hot = 2;
  serve::DaemonOptions options;
  // Long enough that the five tenants below are usually all hot before the
  // first sweep, which then evicts three; the outcome is the same when a
  // sweep lands in between.
  options.refresh_ms = 300;
  serve::ServeDaemon daemon(config, options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/17, 16);
  for (uint64_t id = 1; id <= 5; ++id) {
    auto ack = client.Append(id, counts.outbound().data(),
                             counts.inbound().data(), counts.n());
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->status, AckStatus::kOk);
    daemon.DrainQueues();  // dispatch order == id order
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon.registry().evictions() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  daemon.Stop();
  EXPECT_EQ(daemon.registry().evictions(), 3);
  EXPECT_EQ(daemon.registry().hot_count(), 2);
  for (uint64_t id = 1; id <= 5; ++id) {
    serve::Tenant* tenant = daemon.registry().Find(id);
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->session != nullptr, id >= 4) << "tenant " << id;
  }
}

}  // namespace
}  // namespace conservation
