// Network serving tier tests: wire-protocol codecs (split buffers, malformed
// payloads, fatal length prefixes), transport robustness over real loopback
// sockets (partial writes, zero-length/oversized frames, unknown types,
// mid-frame disconnects), the loopback-vs-in-process bit-identity guarantee,
// shutdown drain over sockets, shard-routing determinism, admission control
// (queue watermark + corrector-burst EWMA), the serving observability
// residuals (histogram exposition, ring-buffer tracing, span sampling), and
// hostile clients (never reading, partial frame then silence, reset
// mid-reply; the byte-at-a-time sender is the split-writes case).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/corrector.hpp"
#include "core/dcn.hpp"
#include "core/detector.hpp"
#include "models/model_zoo.hpp"
#include "obs/trace.hpp"
#include "serve/metrics.hpp"
#include "serve/net/client.hpp"
#include "serve/net/net_server.hpp"
#include "serve/server.hpp"

namespace {

using namespace dcn;
using namespace dcn::serve::net;
using namespace std::chrono_literals;

// Same tiny stack as tests/test_serve.cpp: seed-deterministic construction
// means every Stack instance is an exact replica (identical weights,
// identical untrained-detector verdicts, corrector RNG stream at position
// 0), which is precisely the replica contract ShardRouter requires.
nn::Sequential make_small_model() {
  Rng init(77);
  return models::mlp({6, 24, 16, 4}, init);
}

Tensor make_input(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape{6}, rng, -0.5F, 0.5F);
}

struct Stack {
  nn::Sequential model = make_small_model();
  core::Detector detector{4};
  core::Corrector corrector{model, {.radius = 0.2F, .samples = 32}};
  core::Dcn dcn{model, detector, corrector};
};

/// N replica stacks behind a router behind a NetServer on an ephemeral port.
struct NetFixture {
  explicit NetFixture(std::size_t shards, RouterConfig router_config = {},
                      NetServerConfig net_config = {}) {
    std::vector<core::Dcn*> dcns;
    for (std::size_t i = 0; i < shards; ++i) {
      stacks.push_back(std::make_unique<Stack>());
      dcns.push_back(&stacks.back()->dcn);
    }
    router = std::make_unique<ShardRouter>(dcns, router_config);
    net_config.port = 0;
    server = std::make_unique<NetServer>(*router, net_config);
  }

  std::vector<std::unique_ptr<Stack>> stacks;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<NetServer> server;
};

Bytes length_prefix(std::uint32_t length) {
  return Bytes{static_cast<std::uint8_t>(length & 0xFFU),
               static_cast<std::uint8_t>((length >> 8) & 0xFFU),
               static_cast<std::uint8_t>((length >> 16) & 0xFFU),
               static_cast<std::uint8_t>((length >> 24) & 0xFFU)};
}

// ---- Protocol codecs (no sockets) ------------------------------------------

TEST(NetProtocol, FrameExtractionHandlesSplitBuffers) {
  const Bytes frame = encode_frame(MsgType::kHealthRequest, {});
  Bytes buffer;
  Frame out;
  // Feed one byte at a time: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buffer.push_back(frame[i]);
    EXPECT_FALSE(try_extract_frame(buffer, out));
  }
  buffer.push_back(frame.back());
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::kHealthRequest);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_TRUE(buffer.empty());

  // Two concatenated frames extract in order and drain the buffer.
  const Bytes second =
      encode_frame(MsgType::kMetricsRequest, encode_text("x"));
  buffer.insert(buffer.end(), frame.begin(), frame.end());
  buffer.insert(buffer.end(), second.begin(), second.end());
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::kHealthRequest);
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::kMetricsRequest);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetProtocol, PredictPayloadRoundTripIsBitExact) {
  Rng rng(123);
  const Tensor input = Tensor::uniform(Shape{2, 3, 4}, rng, -2.0F, 2.0F);
  // encode_predict_request returns a complete frame; unwrap it first.
  Bytes buffer = encode_predict_request(input, /*verbose=*/true);
  Frame frame;
  ASSERT_TRUE(try_extract_frame(buffer, frame));
  EXPECT_EQ(frame.type, MsgType::kPredictVerboseRequest);
  const Tensor back = decode_predict_payload(frame.payload);
  ASSERT_EQ(back.shape(), input.shape());
  ASSERT_EQ(back.data().size(), input.data().size());
  // Bit-exact: floats travel as their exact bit patterns, not text.
  EXPECT_EQ(std::memcmp(back.data().data(), input.data().data(),
                        input.data().size() * sizeof(float)),
            0);
}

TEST(NetProtocol, ResponseCodecsRoundTrip) {
  serve::ServeResult result;
  result.label = 3;
  result.dnn_label = 1;
  result.flagged_adversarial = true;
  result.tier0_resolved = true;
  result.corrector_samples = 17;
  result.batch_size = 4;
  result.sequence = 123456789ULL;
  result.queue_us = 12.5;
  result.total_us = 987.25;
  const ServeNetResult verbose =
      decode_verbose_response(encode_verbose_response(result, 2));
  EXPECT_EQ(verbose.shard, 2U);
  EXPECT_EQ(verbose.result.label, result.label);
  EXPECT_EQ(verbose.result.dnn_label, result.dnn_label);
  EXPECT_EQ(verbose.result.flagged_adversarial, result.flagged_adversarial);
  EXPECT_EQ(verbose.result.tier0_resolved, result.tier0_resolved);
  EXPECT_EQ(verbose.result.corrector_samples, result.corrector_samples);
  EXPECT_EQ(verbose.result.batch_size, result.batch_size);
  EXPECT_EQ(verbose.result.sequence, result.sequence);
  EXPECT_EQ(verbose.result.queue_us, result.queue_us);
  EXPECT_EQ(verbose.result.total_us, result.total_us);

  EXPECT_EQ(decode_predict_response(encode_predict_response(9)), 9U);

  const WireError err = decode_error(
      encode_error(ErrorCode::kOverloaded, 150, "shed: queue_depth"));
  EXPECT_EQ(err.code, ErrorCode::kOverloaded);
  EXPECT_EQ(err.retry_after_ms, 150U);
  EXPECT_EQ(err.message, "shed: queue_depth");

  HealthInfo health;
  health.state = 2;
  health.shards = 7;
  health.queue_depth = 41;
  const HealthInfo back = decode_health(encode_health(health));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.state, 2);
  EXPECT_EQ(back.shards, 7);
  EXPECT_EQ(back.queue_depth, 41U);

  EXPECT_EQ(decode_text(encode_text("prometheus\ntext")), "prometheus\ntext");
}

TEST(NetProtocol, MalformedPayloadsAreRejected) {
  // Rank 0 and rank > kMaxTensorRank.
  EXPECT_THROW(decode_predict_payload(Bytes{0x00}), ProtocolError);
  EXPECT_THROW(decode_predict_payload(Bytes{0x09}), ProtocolError);
  // Truncated: rank 1, dim 2, but only one float follows.
  Bytes truncated{0x01, 0x02, 0x00, 0x00, 0x00};
  truncated.resize(truncated.size() + sizeof(float), 0);
  EXPECT_THROW(decode_predict_payload(truncated), ProtocolError);
  // Trailing garbage after a well-formed tensor.
  Bytes framed = encode_predict_request(make_input(1), false);
  Frame frame;
  ASSERT_TRUE(try_extract_frame(framed, frame));
  frame.payload.push_back(0xAB);
  EXPECT_THROW(decode_predict_payload(frame.payload), ProtocolError);
  // Zero dimension.
  EXPECT_THROW(decode_predict_payload(Bytes{0x01, 0x00, 0x00, 0x00, 0x00}),
               ProtocolError);
  // Truncated error / health / verbose payloads.
  EXPECT_THROW((void)decode_error(Bytes{0x01}), ProtocolError);
  EXPECT_THROW((void)decode_health(Bytes{0x01, 0x01}), ProtocolError);
  EXPECT_THROW((void)decode_verbose_response(Bytes{0x00, 0x00}),
               ProtocolError);
}

TEST(NetProtocol, NonFiniteTensorValuesAreRejected) {
  // NaN/Inf bit patterns in a tensor payload are crafted inputs, not data:
  // one NaN poisons every GEMM in the micro-batch it rides in. Encode a good
  // frame, then overwrite the first value's bytes.
  auto payload_of = [](const Tensor& t) {
    Bytes framed = encode_predict_request(t, false);
    Frame frame;
    EXPECT_TRUE(try_extract_frame(framed, frame));
    return frame.payload;
  };
  const std::size_t first_value = 1 + 4;  // u8 rank + one u32 dim
  for (std::uint32_t bits : {0x7FC00000U /*qNaN*/, 0x7F800000U /*+Inf*/,
                             0xFF800000U /*-Inf*/}) {
    Bytes payload = payload_of(make_input(1));
    for (int i = 0; i < 4; ++i) {
      payload[first_value + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((bits >> (8 * i)) & 0xFFU);
    }
    EXPECT_THROW((void)decode_predict_payload(payload), ProtocolError)
        << "bits 0x" << std::hex << bits;
  }
  // Finite extremes stay legal — the guard is finiteness, not magnitude.
  Bytes payload = payload_of(make_input(1));
  const std::uint32_t max_bits = 0x7F7FFFFFU;  // FLT_MAX
  for (int i = 0; i < 4; ++i) {
    payload[first_value + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((max_bits >> (8 * i)) & 0xFFU);
  }
  EXPECT_NO_THROW((void)decode_predict_payload(payload));
}

TEST(NetProtocol, TensorElementCountOverflowIsRejected) {
  // rank 2 with dims 0x10000 x 0x10000: numel would be 2^32 — past the
  // multiplication guard well before any per-value read happens.
  Bytes payload{0x02};
  for (int d = 0; d < 2; ++d) {
    payload.push_back(0x00);
    payload.push_back(0x00);
    payload.push_back(0x01);
    payload.push_back(0x00);
  }
  EXPECT_THROW((void)decode_predict_payload(payload), ProtocolError);
}

TEST(NetProtocol, NonCanonicalEnumValuesAreRejected) {
  // ErrorCode is a closed set (1..7): casting 0 or 8+ into the enum would
  // hand callers a value no switch arm handles.
  for (std::uint8_t bad_code : {0x00, 0x08, 0xFF}) {
    Bytes payload = encode_error(ErrorCode::kInternal, 0, "x");
    payload[0] = bad_code;
    payload[1] = 0x00;
    EXPECT_THROW((void)decode_error(payload), ProtocolError)
        << "code " << int(bad_code);
  }
  // Every canonical code still decodes.
  for (std::uint16_t code = 1; code <= 7; ++code) {
    const Bytes payload =
        encode_error(static_cast<ErrorCode>(code), 0, "ok");
    EXPECT_EQ(decode_error(payload).code, static_cast<ErrorCode>(code));
  }
  // Health state is a closed set too (1 serving, 2 draining).
  for (std::uint8_t bad_state : {0x00, 0x03, 0x7F}) {
    Bytes payload = encode_health(HealthInfo{});
    payload[1] = bad_state;
    EXPECT_THROW((void)decode_health(payload), ProtocolError)
        << "state " << int(bad_state);
  }
}

TEST(NetProtocol, VerboseResponseRejectsUnknownFlagsAndBadLatencies) {
  serve::ServeResult result;
  result.label = 1;
  result.queue_us = 5.0;
  result.total_us = 9.0;
  const Bytes good = encode_verbose_response(result, 0);
  EXPECT_NO_THROW((void)decode_verbose_response(good));

  // Layout: u32 label, u32 dnn_label, u8 flags, 3 x u32, u64, f64, f64.
  const std::size_t flags_off = 8;
  const std::size_t queue_off = 8 + 1 + 12 + 8;
  const std::size_t total_off = queue_off + 8;

  // An undefined flag bit means a dialect we do not speak.
  Bytes flagged = good;
  flagged[flags_off] |= 0x04;
  EXPECT_THROW((void)decode_verbose_response(flagged), ProtocolError);
  // Both defined bits together are fine.
  Bytes both = good;
  both[flags_off] = 0x03;
  EXPECT_NO_THROW((void)decode_verbose_response(both));

  // NaN queue time: overwrite the f64 with a quiet-NaN bit pattern.
  Bytes nan_queue = good;
  const std::uint64_t qnan = 0x7FF8000000000000ULL;
  for (int i = 0; i < 8; ++i) {
    nan_queue[queue_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((qnan >> (8 * i)) & 0xFFU);
  }
  EXPECT_THROW((void)decode_verbose_response(nan_queue), ProtocolError);

  // Negative total time: durations cannot run backwards.
  Bytes negative = good;
  negative[total_off + 7] |= 0x80;  // set the f64 sign bit
  EXPECT_THROW((void)decode_verbose_response(negative), ProtocolError);
}

TEST(NetProtocol, BadLengthPrefixesAreFatal) {
  // Zero-length frame: no type byte can follow, the stream is undelimited.
  Bytes zero = length_prefix(0);
  Frame out;
  EXPECT_THROW(try_extract_frame(zero, out), ProtocolError);
  // Over-cap length prefix is fatal before any payload arrives.
  Bytes oversized = length_prefix(2048);
  EXPECT_THROW(try_extract_frame(oversized, out, /*max_frame_bytes=*/1024),
               ProtocolError);
  // At the cap is fine (incomplete, so extraction just waits for bytes).
  Bytes at_cap = length_prefix(1024);
  EXPECT_FALSE(try_extract_frame(at_cap, out, /*max_frame_bytes=*/1024));
}

TEST(NetProtocol, NamesAndClassifiers) {
  EXPECT_STREQ(msg_type_name(MsgType::kPredictRequest), "PredictRequest");
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "Overloaded");
  EXPECT_TRUE(is_request(MsgType::kPredictRequest));
  EXPECT_FALSE(is_request(MsgType::kPredictResponse));
  EXPECT_FALSE(is_request(MsgType::kErrorResponse));
}

// ---- Observability residuals -----------------------------------------------

TEST(ServeMetricsExport, HistogramExpositionIsCumulative) {
  serve::LatencyHistogram hist;
  hist.record(0.0);
  hist.record(1.0);
  hist.record(3.0);
  hist.record(1000.0);
  std::vector<obs::Metric> out;
  hist.collect("test_family_us", "help text", out);

  ASSERT_GE(out.size(), 4U);  // >= 2 buckets + +Inf + sum + count
  double last_bucket = 0.0;
  double inf_value = -1.0;
  double sum = -1.0;
  double count = -1.0;
  for (const obs::Metric& m : out) {
    EXPECT_EQ(m.type, obs::MetricType::kHistogram);
    if (m.name == "test_family_us_bucket") {
      EXPECT_EQ(m.label_key, "le");
      // Cumulative counts never decrease in `le` order (collect() appends
      // buckets in ascending bound order).
      EXPECT_GE(m.value, last_bucket);
      last_bucket = m.value;
      if (m.label_value == "+Inf") inf_value = m.value;
    } else if (m.name == "test_family_us_sum") {
      sum = m.value;
    } else if (m.name == "test_family_us_count") {
      count = m.value;
    }
  }
  EXPECT_EQ(inf_value, 4.0);
  EXPECT_EQ(count, 4.0);
  EXPECT_EQ(sum, 1004.0);  // 0 + 1 + 3 + 1000 microseconds
}

TEST(ServeTrace, RingPolicyKeepsTheNewestEvents) {
  obs::trace_clear();
  obs::set_trace_buffer_policy(obs::TraceBufferPolicy::kRing);
  obs::set_tracing_enabled(true);
  // Far more spans than one thread's buffer holds: the ring must overwrite
  // (never drop) and keep only the newest window. Single-threaded, so the
  // export is exact (no concurrent wrap for the slot seqlock to skip).
  constexpr std::size_t kSpans = 40000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    obs::Span span("serve.ring", "test");
  }
  obs::set_tracing_enabled(false);
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.dropped, 0U);
  EXPECT_LT(stats.recorded, kSpans);
  EXPECT_GT(stats.overwritten, 0U);
  EXPECT_EQ(stats.recorded + stats.overwritten, kSpans);
  // Restore the global defaults for every other suite in this binary.
  obs::set_trace_buffer_policy(obs::TraceBufferPolicy::kDrop);
  obs::trace_clear();
}

TEST(ServeTrace, SamplingSkipsAndCountsSpans) {
  obs::trace_clear();
  obs::set_trace_sampling(4);
  obs::set_tracing_enabled(true);
  constexpr std::size_t kSpans = 64;
  for (std::size_t i = 0; i < kSpans; ++i) {
    obs::Span span("serve.sampled", "test");
  }
  obs::set_tracing_enabled(false);
  const obs::TraceStats stats = obs::trace_stats();
  // Every span is either recorded or counted as sampled out; at 1-in-4 the
  // kept count is 16 up to one span of phase (the per-thread tick persists
  // across tests).
  EXPECT_EQ(stats.recorded + stats.sampled_out, kSpans);
  EXPECT_GE(stats.recorded, 15U);
  EXPECT_LE(stats.recorded, 17U);
  obs::set_trace_sampling(1);
  obs::trace_clear();
}

// ---- Loopback transport ----------------------------------------------------

TEST(NetServe, LoopbackMatchesInProcessBitForBit) {
  // The acceptance gate: the socket path must return exactly what
  // DcnServer::submit() returns for the same request sequence. Two replica
  // stacks (identical by seed-determinism), one driven in-process, one over
  // loopback, both closed-loop so the corrector RNG streams stay aligned.
  Stack in_process;
  serve::DcnServer reference(in_process.dcn, {.register_metrics = false});
  NetFixture net(1);
  DcnClient client = DcnClient::connect(net.server->port());

  for (std::uint64_t i = 0; i < 16; ++i) {
    const Tensor input = make_input(100 + i);
    const serve::ServeResult expected = reference.submit(input).get();
    const ServeNetResult got = client.predict_verbose(input);
    EXPECT_EQ(got.shard, 0U);
    EXPECT_EQ(got.result.label, expected.label) << "request " << i;
    EXPECT_EQ(got.result.dnn_label, expected.dnn_label) << "request " << i;
    EXPECT_EQ(got.result.flagged_adversarial, expected.flagged_adversarial)
        << "request " << i;
    EXPECT_EQ(got.result.tier0_resolved, expected.tier0_resolved);
    EXPECT_EQ(got.result.corrector_samples, expected.corrector_samples)
        << "request " << i;
    EXPECT_EQ(got.result.sequence, expected.sequence);
    EXPECT_GE(got.result.total_us, got.result.queue_us);
  }

  // The terse Predict frame agrees with the verbose one's label.
  const Tensor extra = make_input(999);
  const std::size_t label_a = reference.submit(extra).get().label;
  EXPECT_EQ(client.predict(extra), label_a);
  reference.shutdown();
}

TEST(NetServe, SplitWritesReassembleIntoOneFrame) {
  Stack in_process;
  serve::DcnServer reference(in_process.dcn, {.register_metrics = false});
  NetFixture net(1);
  const Tensor input = make_input(7);
  const serve::ServeResult expected = reference.submit(input).get();
  reference.shutdown();

  Socket raw = connect_loopback(net.server->port());
  const Bytes frame = encode_predict_request(input, /*verbose=*/true);
  // Trickle the frame a byte at a time across many TCP segments; the IO
  // thread must reassemble it no matter how the reads split, and answer
  // exactly what the in-process server does.
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(write_all(raw.fd(), &byte, 1));
    std::this_thread::sleep_for(200us);
  }
  Frame response;
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  ASSERT_EQ(response.type, MsgType::kPredictVerboseResponse);
  const ServeNetResult got = decode_verbose_response(response.payload);
  EXPECT_EQ(got.result.label, expected.label);
  EXPECT_EQ(got.result.dnn_label, expected.dnn_label);
  EXPECT_EQ(got.result.corrector_samples, expected.corrector_samples);
  EXPECT_EQ(net.server->stats().frames_received, 1U);
}

TEST(NetServe, ZeroLengthFrameIsFatalToTheConnection) {
  NetFixture net(1);
  Socket raw = connect_loopback(net.server->port());
  const Bytes zero = length_prefix(0);
  ASSERT_TRUE(write_all(raw.fd(), zero.data(), zero.size()));
  Frame response;
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  ASSERT_EQ(response.type, MsgType::kErrorResponse);
  EXPECT_EQ(decode_error(response.payload).code, ErrorCode::kBadFrame);
  // Fatal: the server hangs up after the error frame.
  EXPECT_FALSE(recv_frame(raw.fd(), response));
  EXPECT_GE(net.server->stats().protocol_errors, 1U);
}

TEST(NetServe, OversizedFrameIsFatalToTheConnection) {
  NetFixture net(1, {}, {.max_frame_bytes = 1024});
  Socket raw = connect_loopback(net.server->port());
  const Bytes huge = length_prefix(1U << 20);  // far over the 1 KiB cap
  ASSERT_TRUE(write_all(raw.fd(), huge.data(), huge.size()));
  Frame response;
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  ASSERT_EQ(response.type, MsgType::kErrorResponse);
  EXPECT_EQ(decode_error(response.payload).code, ErrorCode::kBadFrame);
  EXPECT_FALSE(recv_frame(raw.fd(), response));
}

TEST(NetServe, UnknownMessageTypeIsNonFatal) {
  NetFixture net(1);
  Socket raw = connect_loopback(net.server->port());
  const Bytes unknown = encode_frame(static_cast<MsgType>(0x60), {});
  ASSERT_TRUE(write_all(raw.fd(), unknown.data(), unknown.size()));
  Frame response;
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  ASSERT_EQ(response.type, MsgType::kErrorResponse);
  EXPECT_EQ(decode_error(response.payload).code, ErrorCode::kBadType);
  // Forward compatibility: the same connection still serves real requests.
  const Bytes predict = encode_predict_request(make_input(11), false);
  ASSERT_TRUE(write_all(raw.fd(), predict.data(), predict.size()));
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  EXPECT_EQ(response.type, MsgType::kPredictResponse);
}

TEST(NetServe, BadPayloadIsNonFatal) {
  NetFixture net(1);
  Socket raw = connect_loopback(net.server->port());
  const Bytes garbage =
      encode_frame(MsgType::kPredictRequest, Bytes{0xFF, 0x00, 0x01});
  ASSERT_TRUE(write_all(raw.fd(), garbage.data(), garbage.size()));
  Frame response;
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  ASSERT_EQ(response.type, MsgType::kErrorResponse);
  EXPECT_EQ(decode_error(response.payload).code, ErrorCode::kBadPayload);
  const Bytes predict = encode_predict_request(make_input(12), false);
  ASSERT_TRUE(write_all(raw.fd(), predict.data(), predict.size()));
  ASSERT_TRUE(recv_frame(raw.fd(), response));
  EXPECT_EQ(response.type, MsgType::kPredictResponse);
}

TEST(NetServe, MidFrameDisconnectLeavesTheServerServing) {
  NetFixture net(1);
  {
    Socket raw = connect_loopback(net.server->port());
    const Bytes frame = encode_predict_request(make_input(13), false);
    // Half a frame, then hang up: the partial frame dies with the
    // connection and must not poison the server.
    ASSERT_TRUE(write_all(raw.fd(), frame.data(), frame.size() / 2));
  }  // raw closes here
  DcnClient client = DcnClient::connect(net.server->port());
  EXPECT_LT(client.predict(make_input(14)), 4U);
  const HealthInfo health = client.health();
  EXPECT_EQ(health.state, 1);
  EXPECT_EQ(health.shards, 1);
}

TEST(NetServe, ShutdownDrainsAdmittedRequestsOverTheSocket) {
  auto net = std::make_unique<NetFixture>(1);
  DcnClient client = DcnClient::connect(net->server->port());
  client.send_predict(make_input(21), /*verbose=*/true);
  // Wait until the router has admitted the frame so stop() races nothing.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (net->router->admission_stats().admitted == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request was never admitted";
    std::this_thread::sleep_for(1ms);
  }
  net->server->stop();
  EXPECT_FALSE(net->server->serving());
  // The admitted request's answer was flushed before the writers exited;
  // it is sitting in the socket buffer even though the server is gone.
  const DcnClient::Response response = client.recv();
  EXPECT_EQ(response.type, MsgType::kPredictVerboseResponse);
  EXPECT_LT(response.verbose.result.label, 4U);
}

TEST(NetServe, ShardPlacementIsDeterministic) {
  // Closed-loop traffic over idle shards: least-loaded ties on every
  // request, so the rotating tie-break must walk the shards round-robin —
  // and a second identical run must reproduce both the placement and the
  // decisions exactly (every shard is an identical replica at the same
  // corrector stream position).
  std::vector<std::size_t> labels[2];
  std::vector<std::uint32_t> shards[2];
  for (int run = 0; run < 2; ++run) {
    NetFixture net(3);
    DcnClient client = DcnClient::connect(net.server->port());
    for (std::uint64_t i = 0; i < 9; ++i) {
      const ServeNetResult r = client.predict_verbose(make_input(300 + i));
      labels[run].push_back(r.result.label);
      shards[run].push_back(r.shard);
    }
  }
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(shards[0], shards[1]);
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(shards[0][i], i % 3) << "request " << i;
  }
}

TEST(NetServe, AdmissionShedsOnQueueWatermark) {
  // Flushes disabled (huge batch, huge timer): admitted requests pile up in
  // the shard queue, so the 4th..8th submits see depth >= 3 and shed. The
  // shed error frames queue behind the blocked predict jobs on the same
  // writer, so responses are collected only after stop() drains the shard.
  RouterConfig config;
  config.server.max_batch = 64;
  config.server.max_delay_us = 60'000'000;
  config.admission.queue_watermark = 3;
  config.admission.retry_after_ms = 50;
  auto net = std::make_unique<NetFixture>(1, config);
  DcnClient client = DcnClient::connect(net->server->port());

  for (std::uint64_t i = 0; i < 8; ++i) {
    client.send_predict(make_input(400 + i));
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (true) {
    const auto stats = net->router->admission_stats();
    if (stats.admitted + stats.shed_queue_depth == 8) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  const auto stats = net->router->admission_stats();
  EXPECT_EQ(stats.admitted, 3U);
  EXPECT_EQ(stats.shed_queue_depth, 5U);

  net->server->stop();  // drains the shard; writers flush all 8 responses
  for (std::uint64_t i = 0; i < 8; ++i) {
    const DcnClient::Response r = client.recv();
    if (i < 3) {
      EXPECT_EQ(r.type, MsgType::kPredictResponse) << "response " << i;
    } else {
      ASSERT_EQ(r.type, MsgType::kErrorResponse) << "response " << i;
      EXPECT_EQ(r.error.code, ErrorCode::kOverloaded);
      EXPECT_GE(r.error.retry_after_ms, 50U);
      EXPECT_NE(r.error.message.find("queue_depth"), std::string::npos);
    }
  }
}

TEST(NetServe, AdmissionShedsOnCorrectorBurst) {
  // Find an input the (deterministic, untrained) detector flags; replica
  // stacks share its verdicts, so the flag transfers to the burst fixture.
  Tensor flagged_input = make_input(0);
  {
    Stack probe;
    bool found = false;
    for (std::uint64_t seed = 500; seed < 700; ++seed) {
      const Tensor candidate = make_input(seed);
      if (probe.dcn.classify_verbose(candidate).flagged_adversarial) {
        flagged_input = candidate;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "no input flagged by the untrained detector";
  }

  RouterConfig config;
  config.admission.corrector_ewma_threshold = 0.0;  // any positive rate sheds
  config.admission.ewma_warmup = 4;
  NetFixture net(1, config);
  DcnClient client = DcnClient::connect(net.server->port());

  // Closed loop: 4 flagged requests complete during warmup, so the EWMA is
  // strictly positive and armed when the 5th submit arrives — that one must
  // shed with the corrector-burst reason and the typed retry-after hint.
  for (int i = 0; i < 4; ++i) {
    const ServeNetResult r = client.predict_verbose(flagged_input);
    EXPECT_TRUE(r.result.flagged_adversarial);
  }
  try {
    (void)client.predict(flagged_input);
    FAIL() << "5th request was not shed";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.retry_after_ms, net.router->config().admission.retry_after_ms);
    EXPECT_NE(std::string(e.what()).find("corrector_burst"),
              std::string::npos);
  }
  const auto stats = net.router->admission_stats();
  EXPECT_EQ(stats.shed_corrector_burst, 1U);
  EXPECT_GT(stats.corrector_ewma, 0.0);
}

TEST(NetServe, MetricsScrapeExposesHistogramsAndRouterFamilies) {
  NetFixture net(2);
  DcnClient client = DcnClient::connect(net.server->port());
  (void)client.predict(make_input(31));  // make the histograms non-empty
  const std::string text = client.metrics();
  EXPECT_NE(text.find("# TYPE dcn_server_end_to_end_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dcn_server_queue_wait_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dcn_server_end_to_end_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dcn_server_requests_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("dcn_router_shards 2"), std::string::npos);
  EXPECT_NE(text.find("dcn_router_admitted_total"), std::string::npos);
  EXPECT_NE(text.find("dcn_router_shed_total{reason=\"queue_depth\"}"),
            std::string::npos);
  // The socket tier's own families. The gauges are published at the top of
  // the IO turn that reads the Metrics frame: the predict is answered, and
  // nothing is queued or paused.
  for (const char* sample : {"dcn_net_connections_accepted_total 1\n",
                             "dcn_net_frames_received_total 2\n",
                             "dcn_net_responses_sent_total 1\n",
                             "dcn_net_protocol_errors_total 0\n",
                             "dcn_net_connections_open 1\n",
                             "dcn_net_pending_responses 0\n",
                             "dcn_net_outbound_bytes 0\n",
                             "dcn_net_reads_paused 0\n"}) {
    EXPECT_NE(text.find(sample), std::string::npos) << "missing " << sample;
  }
}

TEST(NetServe, HealthAndTraceFramesRoundTrip) {
  NetFixture net(2);
  DcnClient client = DcnClient::connect(net.server->port());
  const HealthInfo health = client.health();
  EXPECT_EQ(health.version, kProtocolVersion);
  EXPECT_EQ(health.state, 1);  // serving
  EXPECT_EQ(health.shards, 2);

  obs::trace_clear();
  obs::set_tracing_enabled(true);
  (void)client.predict(make_input(41));
  const std::string trace = client.trace();
  obs::set_tracing_enabled(false);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);
  obs::trace_clear();
}

// ---- Trace-context and decision-record extensions ---------------------------

TEST(NetProtocol, TraceContextExtensionRoundTrips) {
  obs::TraceContext trace;
  trace.trace_hi = 0x0123456789ABCDEFULL;
  trace.trace_lo = 0xFEDCBA9876543210ULL;
  trace.parent_span_id = 0x1111222233334444ULL;
  trace.sampled = true;

  // Request direction: the extension rides after the tensor payload.
  Bytes framed = encode_predict_request(make_input(1), true, trace);
  Frame frame;
  ASSERT_TRUE(try_extract_frame(framed, frame));
  const PredictRequest request = decode_predict_request(frame.payload);
  EXPECT_EQ(request.trace.trace_hi, trace.trace_hi);
  EXPECT_EQ(request.trace.trace_lo, trace.trace_lo);
  EXPECT_EQ(request.trace.parent_span_id, trace.parent_span_id);
  EXPECT_TRUE(request.trace.sampled);
  // The tensor itself is unaffected by the trailing extension.
  EXPECT_EQ(request.input.shape(), make_input(1).shape());

  // No trace sent => invalid (all-zero) context on decode.
  framed = encode_predict_request(make_input(1), false);
  ASSERT_TRUE(try_extract_frame(framed, frame));
  EXPECT_FALSE(decode_predict_request(frame.payload).trace.valid());

  // Verbose response direction: trace echo plus the decision-record
  // provenance block.
  serve::ServeResult result;
  result.label = 2;
  result.detector_margin = -1.25;
  result.tier0_policy = 2;
  result.stop_rule = 3;
  result.chunks_used = 5;
  result.rng_segment = 41;
  result.compute_us = 123.5;
  const ServeNetResult back =
      decode_verbose_response(encode_verbose_response(result, 1, trace));
  EXPECT_EQ(back.trace.trace_hi, trace.trace_hi);
  EXPECT_EQ(back.trace.trace_lo, trace.trace_lo);
  EXPECT_EQ(back.trace.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(back.result.detector_margin, result.detector_margin);
  EXPECT_EQ(back.result.tier0_policy, result.tier0_policy);
  EXPECT_EQ(back.result.stop_rule, result.stop_rule);
  EXPECT_EQ(back.result.chunks_used, result.chunks_used);
  EXPECT_EQ(back.result.rng_segment, result.rng_segment);
  EXPECT_EQ(back.result.compute_us, result.compute_us);

  // Error direction: an Overloaded shed stays attributable to its trace.
  const WireError err = decode_error(encode_error(
      ErrorCode::kOverloaded, 75, "shed: corrector_burst", trace));
  EXPECT_EQ(err.trace.trace_hi, trace.trace_hi);
  EXPECT_EQ(err.trace.trace_lo, trace.trace_lo);
  EXPECT_TRUE(err.trace.sampled);
}

TEST(NetProtocol, TraceContextExtensionRejectionPaths) {
  obs::TraceContext trace;
  trace.trace_hi = 7;
  trace.trace_lo = 9;
  trace.sampled = true;
  Bytes framed = encode_predict_request(make_input(2), false, trace);
  Frame frame;
  ASSERT_TRUE(try_extract_frame(framed, frame));
  const Bytes good = frame.payload;
  const std::size_t ext_off = good.size() - (2 + kTraceContextBytes);
  ASSERT_EQ(good[ext_off], kTraceContextTag);
  EXPECT_NO_THROW((void)decode_predict_request(good));

  // Truncated mid-extension: the header promises 25 value bytes, fewer land.
  Bytes truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW((void)decode_predict_request(truncated), ProtocolError);
  // Truncated to a bare tag byte (no length).
  Bytes bare_tag = good;
  bare_tag.resize(ext_off + 1);
  EXPECT_THROW((void)decode_predict_request(bare_tag), ProtocolError);

  // Duplicate trace-context extension.
  Bytes duplicate = good;
  duplicate.insert(duplicate.end(),
                   good.begin() + static_cast<long>(ext_off), good.end());
  EXPECT_THROW((void)decode_predict_request(duplicate), ProtocolError);

  // Wrong declared length for a known tag.
  Bytes bad_len = good;
  bad_len[ext_off + 1] = static_cast<std::uint8_t>(kTraceContextBytes - 1);
  EXPECT_THROW((void)decode_predict_request(bad_len), ProtocolError);

  // sampled is a wire boolean; 2 is a dialect we do not speak.
  Bytes bad_flag = good;
  bad_flag.back() = 2;
  EXPECT_THROW((void)decode_predict_request(bad_flag), ProtocolError);

  // The all-zero id is the "no trace" sentinel — contradictory inside the
  // extension whose purpose is to carry a trace.
  Bytes zero_id = good;
  for (std::size_t i = 0; i < 16; ++i) zero_id[ext_off + 2 + i] = 0;
  EXPECT_THROW((void)decode_predict_request(zero_id), ProtocolError);

  // Unknown extension tag: closed set per version.
  Bytes unknown = good;
  unknown[ext_off] = 0x7F;
  EXPECT_THROW((void)decode_predict_request(unknown), ProtocolError);

  // A decision record has no business on a request payload, even when its
  // value bytes are individually valid.
  Bytes with_decision(good.begin(), good.begin() + static_cast<long>(ext_off));
  with_decision.push_back(kDecisionRecordTag);
  with_decision.push_back(static_cast<std::uint8_t>(kDecisionRecordBytes));
  with_decision.insert(with_decision.end(), kDecisionRecordBytes, 0);
  EXPECT_THROW((void)decode_predict_request(with_decision), ProtocolError);
}

TEST(NetProtocol, DecisionRecordExtensionRejectionPaths) {
  serve::ServeResult result;
  result.queue_us = 1.0;
  result.total_us = 2.0;
  result.compute_us = 5.0;
  const Bytes good = encode_verbose_response(result, 0);
  // No trace passed, so the decision record is the only extension: tag at
  // 2 + kDecisionRecordBytes from the end.
  const std::size_t ext_off = good.size() - (2 + kDecisionRecordBytes);
  ASSERT_EQ(good[ext_off], kDecisionRecordTag);
  const std::size_t margin_off = ext_off + 2;
  const std::size_t policy_off = margin_off + 8;
  const std::size_t stop_off = policy_off + 1;
  EXPECT_NO_THROW((void)decode_verbose_response(good));

  // tier0_policy and stop_rule are closed sets (0..2 and 0..4).
  Bytes bad_policy = good;
  bad_policy[policy_off] = 3;
  EXPECT_THROW((void)decode_verbose_response(bad_policy), ProtocolError);
  Bytes bad_stop = good;
  bad_stop[stop_off] = 5;
  EXPECT_THROW((void)decode_verbose_response(bad_stop), ProtocolError);

  // Non-finite detector margin.
  Bytes nan_margin = good;
  const std::uint64_t qnan = 0x7FF8000000000000ULL;
  for (int i = 0; i < 8; ++i) {
    nan_margin[margin_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((qnan >> (8 * i)) & 0xFFU);
  }
  EXPECT_THROW((void)decode_verbose_response(nan_margin), ProtocolError);

  // Negative compute time (the f64 at the end of the record).
  Bytes negative = good;
  negative.back() |= 0x80;  // sign bit of the little-endian f64
  EXPECT_THROW((void)decode_verbose_response(negative), ProtocolError);

  // Duplicate decision-record extension.
  Bytes duplicate = good;
  duplicate.insert(duplicate.end(),
                   good.begin() + static_cast<long>(ext_off), good.end());
  EXPECT_THROW((void)decode_verbose_response(duplicate), ProtocolError);
}

TEST(NetProtocol, TraceQueryCodecRoundTrips) {
  const Bytes payload = encode_trace_query(0xAABB0000CCDD0001ULL, 0x42ULL);
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  decode_trace_query(payload, hi, lo);
  EXPECT_EQ(hi, 0xAABB0000CCDD0001ULL);
  EXPECT_EQ(lo, 0x42ULL);

  // The zero id is the "no trace" sentinel; querying it is refused at the
  // codec so it can never silently match unattributed records.
  EXPECT_THROW(decode_trace_query(encode_trace_query(0, 0), hi, lo),
               ProtocolError);
  // Truncated and trailing-bytes payloads.
  Bytes truncated(payload.begin(), payload.end() - 1);
  EXPECT_THROW(decode_trace_query(truncated, hi, lo), ProtocolError);
  Bytes trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(decode_trace_query(trailing, hi, lo), ProtocolError);
}

// ---- Exemplars ---------------------------------------------------------------

TEST(ServeMetricsExport, ExemplarsFollowMergeAndReset) {
  // Stamps are taken at record() time from a global monotonic counter, so
  // recording order decides which exemplar is "newer" regardless of which
  // histogram it landed in.
  serve::LatencyHistogram a;
  serve::LatencyHistogram b;
  const obs::TraceContext first = obs::mint_trace_context();
  const obs::TraceContext second = obs::mint_trace_context();
  a.record(100.0, first);
  b.record(100.0, second);  // same log2 bucket, newer stamp

  // merge keeps whichever side's exemplar is newer per bucket.
  a.merge(b);
  serve::ExemplarCell::Snapshot ex = a.newest_exemplar();
  ASSERT_TRUE(ex.present());
  EXPECT_EQ(ex.hi, second.trace_hi);
  EXPECT_EQ(ex.lo, second.trace_lo);
  EXPECT_EQ(ex.value, 100.0);

  // ...and never regresses: merging an older exemplar into a newer one is a
  // no-op for the cell.
  serve::LatencyHistogram c;
  const obs::TraceContext third = obs::mint_trace_context();
  c.record(100.0, third);
  c.merge(a);  // a's bucket exemplar (second) is older than c's (third)
  ex = c.newest_exemplar();
  ASSERT_TRUE(ex.present());
  EXPECT_EQ(ex.hi, third.trace_hi);
  EXPECT_EQ(ex.lo, third.trace_lo);

  // collect() decorates the bucket sample with the OpenMetrics exemplar.
  std::vector<obs::Metric> out;
  a.collect("fam_us", "help", out);
  const std::string hex = obs::trace_id_hex(second.trace_hi, second.trace_lo);
  bool found = false;
  for (const obs::Metric& m : out) {
    if (m.exemplar_trace == hex) {
      found = true;
      EXPECT_EQ(m.exemplar_value, 100.0);
    }
  }
  EXPECT_TRUE(found) << "no bucket sample carried the exemplar " << hex;

  // reset clears the exemplars along with the buckets.
  a.reset();
  EXPECT_FALSE(a.newest_exemplar().present());

  // Unsampled (or invalid) contexts never become exemplars.
  obs::TraceContext unsampled = obs::mint_trace_context();
  unsampled.sampled = false;
  a.record(10.0, unsampled);
  a.record(10.0, obs::TraceContext{});
  EXPECT_FALSE(a.newest_exemplar().present());
}

// ---- Request-scoped tracing over the wire -----------------------------------

TEST(NetServe, OverloadedShedCarriesTraceId) {
  // Same overload setup as AdmissionShedsOnQueueWatermark, but the client
  // records the trace context each predict frame carried: the shed error
  // frames must echo exactly the trace of the request they shed, and the
  // dcn_attack_ shed attribution must land on the shard that refused them.
  RouterConfig config;
  config.server.max_batch = 64;
  config.server.max_delay_us = 60'000'000;
  config.admission.queue_watermark = 3;
  auto net = std::make_unique<NetFixture>(1, config);
  DcnClient client = DcnClient::connect(net->server->port());

  std::vector<obs::TraceContext> sent;
  for (std::uint64_t i = 0; i < 8; ++i) {
    client.send_predict(make_input(600 + i));
    sent.push_back(client.last_trace());
    EXPECT_TRUE(sent.back().valid());
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (true) {
    const auto stats = net->router->admission_stats();
    if (stats.admitted + stats.shed_queue_depth == 8) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  net->server->stop();  // drains the shard; writers flush all 8 responses
  for (std::uint64_t i = 0; i < 8; ++i) {
    const DcnClient::Response r = client.recv();
    if (i < 3) {
      EXPECT_EQ(r.type, MsgType::kPredictResponse) << "response " << i;
      continue;
    }
    ASSERT_EQ(r.type, MsgType::kErrorResponse) << "response " << i;
    EXPECT_EQ(r.error.code, ErrorCode::kOverloaded);
    EXPECT_EQ(r.error.trace.trace_hi, sent[i].trace_hi) << "response " << i;
    EXPECT_EQ(r.error.trace.trace_lo, sent[i].trace_lo) << "response " << i;
  }
  const auto attack = net->router->attack_stats();
  ASSERT_EQ(attack.shard_sheds.size(), 1U);
  EXPECT_EQ(attack.shard_sheds[0], 5U);
}

TEST(NetServe, TraceQueryStitchesTheCrossProcessSpanTree) {
  // The PR's acceptance test: a probe-minted trace id sent over loopback
  // comes back as one stitched span tree (client -> net server -> shard ->
  // corrector) plus a DecisionRecord whose attribution matches the shard
  // corrector's own counters.
  if (!obs::kTraceCompiled) {
    GTEST_SKIP() << "tracing compiled out (DCN_TRACE=OFF)";
  }

  // A flagged input makes the request pay a Tier-1 vote, so the corrector
  // spans and the vote provenance exist (replica determinism transfers the
  // probe's verdict to the fixture shard).
  Tensor flagged_input = make_input(0);
  {
    Stack probe;
    bool found = false;
    for (std::uint64_t seed = 500; seed < 700; ++seed) {
      const Tensor candidate = make_input(seed);
      if (probe.dcn.classify_verbose(candidate).flagged_adversarial) {
        flagged_input = candidate;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "no input flagged by the untrained detector";
  }

  obs::trace_clear();
  obs::set_tracing_enabled(true);
  NetFixture net(1);
  DcnClient client = DcnClient::connect(net.server->port());

  // Install a minted context around the call: send_predict forwards the
  // ambient context (mint-or-forward), and the client-side span joins the
  // same tree the server side stitches under.
  const obs::TraceContext minted = obs::mint_trace_context();
  ServeNetResult r;
  {
    obs::ScopedTraceContext scope(minted);
    DCN_TRACE_SPAN("client.request", "test");
    r = client.predict_verbose(flagged_input);
  }
  EXPECT_EQ(client.last_trace().trace_hi, minted.trace_hi);
  EXPECT_EQ(client.last_trace().trace_lo, minted.trace_lo);
  // The verbose response echoes the request's trace id.
  EXPECT_EQ(r.trace.trace_hi, minted.trace_hi);
  EXPECT_EQ(r.trace.trace_lo, minted.trace_lo);
  ASSERT_TRUE(r.result.flagged_adversarial);

  // DecisionRecord: pushed into the ring before the response was sent, so
  // it is queryable immediately — and it must agree with both the wire
  // result and the shard corrector's own accounting.
  const std::vector<serve::DecisionRecord> records =
      net.router->decision_records(minted.trace_hi, minted.trace_lo);
  ASSERT_EQ(records.size(), 1U);
  const serve::DecisionRecord& record = records[0];
  EXPECT_EQ(record.shard, 0U);
  EXPECT_EQ(record.result.label, r.result.label);
  EXPECT_EQ(record.result.corrector_samples, r.result.corrector_samples);
  EXPECT_EQ(record.result.stop_rule, r.result.stop_rule);
  EXPECT_EQ(record.result.rng_segment, r.result.rng_segment);
  EXPECT_GT(record.result.detector_margin, 0.0);  // flagged => margin > 0

  const core::Corrector& corrector = net.stacks[0]->corrector;
  const core::VoteOutcome& outcome = corrector.last_outcome();
  EXPECT_EQ(record.result.corrector_samples, outcome.samples_used);
  EXPECT_EQ(record.result.chunks_used, outcome.chunks_used);
  EXPECT_EQ(record.result.stop_rule,
            static_cast<std::uint8_t>(outcome.stop_rule));
  EXPECT_EQ(record.result.rng_segment, outcome.segment_index);
  // Exactly one vote ran, so the record's segment is the last one consumed.
  EXPECT_EQ(corrector.segments_consumed(), record.result.rng_segment + 1);
  EXPECT_STREQ(core::stop_rule_name(
                   static_cast<core::StopRule>(record.result.stop_rule)),
               "exhausted");  // kFull mode classifies all m samples

  // The span tree: serve.flush records after the response promise resolves,
  // so the client can hold its answer before the span lands — poll the
  // TraceQuery frame until the tree is complete.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::string json;
  while (true) {
    json = client.trace_query(minted.trace_hi, minted.trace_lo);
    if (json.find("serve.flush") != std::string::npos &&
        json.find("corrector.vote") != std::string::npos) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "span tree never completed: " << json;
    std::this_thread::sleep_for(1ms);
  }
  obs::set_tracing_enabled(false);

  // One stitched tree: the client-side span, the server-side dispatch span,
  // the shard's flush, and the corrector vote all carry the minted id; the
  // DecisionRecord rides in the same response.
  const std::string hex = obs::trace_id_hex(minted.trace_hi, minted.trace_lo);
  for (const char* name : {"client.request", "net.dispatch", "serve.submit",
                           "serve.flush", "dcn.predict", "corrector.vote"}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing span " << name;
  }
  EXPECT_NE(json.find(hex), std::string::npos);
  EXPECT_NE(json.find("\"decisionRecords\""), std::string::npos);
  EXPECT_NE(json.find("\"stop_rule\":\"exhausted\""), std::string::npos);
  obs::trace_clear();
}

// ---- Hostile clients ----------------------------------------------------------
// Every wait below is bounded (poll() with a timeout, stop() on a watched
// thread), so a server that stalls fails these tests instead of hanging the
// suite.

constexpr auto kReplyBound = 1000ms;

/// One response frame from a blocking socket, or false after `timeout`.
bool recv_within(int fd, Frame& out, std::chrono::milliseconds timeout) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, static_cast<int>(timeout.count())) <= 0) return false;
  return recv_frame(fd, out);
}

/// A Health round trip on a fresh connection, answered within `bound`.
bool health_within(std::uint16_t port, std::chrono::milliseconds bound) {
  Socket probe = connect_loopback(port);
  const Bytes request = encode_frame(MsgType::kHealthRequest, {});
  if (!write_all(probe.fd(), request.data(), request.size())) return false;
  Frame reply;
  return recv_within(probe.fd(), reply, bound) &&
         reply.type == MsgType::kHealthResponse;
}

/// The value of an unlabelled sample in a Prometheus exposition, or -1.
double sample_value(const std::string& text, const std::string& name) {
  const std::size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + name.size() + 2, nullptr);
}

/// Pipelines Metrics requests (length 1, type 0x03) on a nonblocking socket
/// until the kernel refuses more, never reading a reply. Returns the bytes
/// sent; capped so that a server which reads without bound cannot keep the
/// client sending forever.
std::size_t flood_metrics_until_eagain(int fd) {
  set_nonblocking(fd, true);
  const Bytes one = encode_frame(MsgType::kMetricsRequest, {});
  Bytes chunk;
  for (int i = 0; i < 4096; ++i) {
    chunk.insert(chunk.end(), one.begin(), one.end());
  }
  std::size_t total = 0;
  std::size_t offset = 0;  // frames stay whole across partial sends
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (total < (64U << 20) && std::chrono::steady_clock::now() < give_up) {
    const ssize_t n = ::send(fd, chunk.data() + offset, chunk.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      total += static_cast<std::size_t>(n);
      offset = (offset + static_cast<std::size_t>(n)) % chunk.size();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN
  }
  return total;
}

/// Runs server.stop() on a watched thread and returns how long it took. A
/// stop() still running after `bound` fails the test and ends the process,
/// since the fixture's destructor would otherwise wait on it forever.
std::chrono::milliseconds timed_stop(NetServer& server,
                                     std::chrono::milliseconds bound) {
  const auto start = std::chrono::steady_clock::now();
  // A watchdog, not compute: the test thread must stay free to time out.
  // dcn-lint: allow(raw-thread)
  auto done = std::async(std::launch::async, [&server] { server.stop(); });
  if (done.wait_for(bound) != std::future_status::ready) {
    ADD_FAILURE() << "stop() still running after " << bound.count() << " ms";
    std::fflush(stdout);
    std::_Exit(1);
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

TEST(NetFault, NeverReadingClientStallsOnlyItself) {
  NetFixture net(1);
  // Two never-reading connections, so that a design pinning connections to
  // two response writers by id would put the probe behind one of them.
  // A small receive window makes the server meet a full socket after a few
  // answers rather than after megabytes of autotuned kernel buffer, which
  // keeps the test's length the same on every host.
  std::vector<Socket> hostile;
  for (int i = 0; i < 2; ++i) {
    hostile.push_back(connect_loopback(net.server->port()));
    const int window = 16 * 1024;
    ASSERT_EQ(::setsockopt(hostile.back().fd(), SOL_SOCKET, SO_RCVBUF,
                           &window, sizeof(window)),
              0);
    EXPECT_GT(flood_metrics_until_eagain(hostile.back().fd()), 0U);
  }

  EXPECT_TRUE(health_within(net.server->port(), kReplyBound))
      << "a fresh connection's Health was not answered within 1 s";

  // Both flooders end up not being read, holding at most the outbound cap
  // plus the one Metrics answer rendered past it. No ASSERT before the timed
  // stop() below: returning early would leave a stalled drain to the
  // fixture's destructor.
  Socket scraper = connect_loopback(net.server->port());
  const Bytes request = encode_frame(MsgType::kMetricsRequest, {});
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    Frame reply;
    if (!write_all(scraper.fd(), request.data(), request.size()) ||
        !recv_within(scraper.fd(), reply, kReplyBound)) {
      ADD_FAILURE() << "scrape not answered within 1 s";
      break;
    }
    text = decode_text(reply.payload);
    if (sample_value(text, "dcn_net_reads_paused") >= 2.0) break;
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(sample_value(text, "dcn_net_reads_paused"), 2.0) << text;
  const double bytes = sample_value(text, "dcn_net_outbound_bytes");
  EXPECT_GE(bytes, 2.0 * NetServer::kMaxOutboundBytes);
  EXPECT_LE(bytes, 2.0 * (NetServer::kMaxOutboundBytes + text.size() + 4096));
  EXPECT_LE(sample_value(text, "dcn_net_pending_responses"),
            2.0 * NetServer::kMaxPendingSlots + 1);

  // The flooders never read, so the drain closes them at its deadline.
  const auto took =
      timed_stop(*net.server, NetServer::kDrainDeadline + kReplyBound);
  EXPECT_GE(took, NetServer::kDrainDeadline - 100ms);
}

TEST(NetFault, PartialFrameThenSilenceDoesNotBlockOthers) {
  NetFixture net(1);
  Socket silent = connect_loopback(net.server->port());
  const Bytes frame = encode_predict_request(make_input(72), false);
  ASSERT_TRUE(write_all(silent.fd(), frame.data(), frame.size() / 2));

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(health_within(net.server->port(), kReplyBound));
  }
  DcnClient client = DcnClient::connect(net.server->port());
  EXPECT_LT(client.predict(make_input(73)), 4U);

  // Nothing is owed to the silent peer, so the drain does not wait on it.
  EXPECT_LT(timed_stop(*net.server, NetServer::kDrainDeadline + kReplyBound),
            NetServer::kDrainDeadline);
}

TEST(NetFault, ResetMidReplyLeavesTheServerServing) {
  NetFixture net(1);
  {
    Socket doomed = connect_loopback(net.server->port());
    Bytes burst;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const Bytes predict = encode_predict_request(make_input(80 + i), true);
      burst.insert(burst.end(), predict.begin(), predict.end());
    }
    const Bytes metrics = encode_frame(MsgType::kMetricsRequest, {});
    for (int i = 0; i < 200; ++i) {
      burst.insert(burst.end(), metrics.begin(), metrics.end());
    }
    ASSERT_TRUE(write_all(doomed.fd(), burst.data(), burst.size()));
    // Wait until the server has started answering, then reset the
    // connection with replies still queued: linger {1, 0} turns close()
    // into an RST.
    pollfd p{doomed.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1);
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(doomed.fd(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
  }  // doomed closes here

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(health_within(net.server->port(), kReplyBound));
  }
  DcnClient client = DcnClient::connect(net.server->port());
  EXPECT_LT(client.predict(make_input(90)), 4U);
  EXPECT_EQ(net.server->stats().protocol_errors, 0U);
  EXPECT_LT(timed_stop(*net.server, NetServer::kDrainDeadline + kReplyBound),
            NetServer::kDrainDeadline);
}

}  // namespace
