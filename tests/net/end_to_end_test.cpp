// End-to-end determinism golden test for the network ingestion layer: a
// synopsis stream delivered over a real loopback TCP connection
// (SynopsisClient -> SAADNET1 frames -> SynopsisServer -> SynopsisChannel)
// must arrive bit-identical and in order, and analyzer verdicts computed on
// the delivered stream must match the in-process pipeline byte for byte —
// the wire must be invisible to detection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/channel.h"
#include "core/detector.h"
#include "net/client.h"
#include "net/server.h"

namespace saad::net {
namespace {

using core::Anomaly;
using core::AnomalyDetector;
using core::DetectorConfig;
using core::OutlierModel;
using core::Synopsis;

/// Full-precision serialization (same as the checkpoint suite's): any drift
/// in value, order, or count shows up as a string diff.
std::string dump(const std::vector<Anomaly>& anomalies) {
  std::string out;
  char line[256];
  for (const auto& a : anomalies) {
    std::snprintf(line, sizeof line,
                  "w=%zu ws=%lld h=%u s=%u k=%d new=%d p=%.17g prop=%.17g "
                  "train=%.17g n=%llu out=%llu sig=%s\n",
                  a.window, static_cast<long long>(a.window_start), a.host,
                  a.stage, static_cast<int>(a.kind),
                  a.due_to_new_signature ? 1 : 0, a.p_value, a.proportion,
                  a.train_proportion, static_cast<unsigned long long>(a.n),
                  static_cast<unsigned long long>(a.outliers),
                  a.example_signature.to_string().c_str());
    out += line;
  }
  return out;
}

Synopsis make(Rng& rng, UsTime start, double rare_rate, double slow_rate) {
  constexpr core::StageId kStages = 12;
  constexpr core::HostId kHosts = 6;
  Synopsis s;
  s.stage = static_cast<core::StageId>(rng.next_below(kStages));
  s.host = static_cast<core::HostId>(rng.next_below(kHosts));
  s.start = start;
  const auto base = static_cast<core::LogPointId>(s.stage * 8);
  s.log_points.push_back({base, 1});
  const auto variant = rng.next_below(3);
  for (std::uint64_t v = 0; v <= variant; ++v)
    s.log_points.push_back({static_cast<core::LogPointId>(base + 1 + v), 2});
  if (rng.next_double() < rare_rate)
    s.log_points.push_back({static_cast<core::LogPointId>(base + 7), 1});
  s.duration = 1000 + static_cast<UsTime>(rng.next_below(3000));
  if (rng.next_double() < slow_rate) s.duration *= 40;
  return s;
}

std::vector<Synopsis> make_trace(std::uint64_t seed, std::size_t count,
                                 double rare_rate, double slow_rate) {
  Rng rng(seed);
  std::vector<Synopsis> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trace.push_back(
        make(rng, static_cast<UsTime>(i) * 700, rare_rate, slow_rate));
  return trace;
}

/// What one loopback run delivered, with both ends' counts.
struct Delivery {
  std::vector<Synopsis> received;  // in delivery order
  SynopsisServer::Stats server;
  std::uint64_t client_sent = 0;
};

/// The conservation ledger of a clean session: nothing is lost or made up
/// between the client's send and the consumer's drain.
void expect_ledger(const Delivery& d) {
  EXPECT_EQ(d.client_sent, d.server.synopses) << "sent != decoded";
  EXPECT_EQ(d.server.synopses, d.server.published) << "decoded != published";
  EXPECT_EQ(d.server.published, d.received.size()) << "published != drained";
}

/// Ships `stream` through a real loopback connection and returns what the
/// channel delivered.
Delivery loopback_roundtrip(const std::vector<Synopsis>& stream) {
  core::SynopsisChannel channel;
  SynopsisServer server(&channel);
  EXPECT_TRUE(server.start());

  SynopsisClient::Options options;
  options.port = server.port();
  options.batch_synopses = 256;
  options.connect_attempts_per_flush = 5;
  SynopsisClient client(options);
  for (const auto& s : stream) {
    client.enqueue(s);
    if (client.spool_size() >= options.batch_synopses) {
      EXPECT_TRUE(client.flush());
    }
  }
  EXPECT_TRUE(client.close());

  Delivery d;
  d.client_sent = client.stats().sent_synopses;
  std::vector<Synopsis> chunk;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    chunk.clear();
    const std::uint64_t seen = channel.pushed();
    channel.drain(chunk);
    server.ack(chunk.size());
    d.received.insert(d.received.end(), chunk.begin(), chunk.end());
    if (server.sessions_finished() > 0 && server.active_connections() == 0 &&
        d.received.size() >= stream.size())
      break;
    channel.wait_for_push(seen, std::chrono::milliseconds(1));
  }
  server.stop();
  chunk.clear();
  channel.drain(chunk);
  server.ack(chunk.size());
  d.received.insert(d.received.end(), chunk.begin(), chunk.end());
  d.server = server.stats();
  return d;
}

/// Replays `stream` through an AnomalyDetector with a mid-stream advance_to
/// plus a finish (the way Monitor::poll drives it) and dumps the verdicts.
std::string run_detector(const OutlierModel& model,
                         const std::vector<Synopsis>& stream) {
  DetectorConfig config;
  config.window = sec(5);
  AnomalyDetector detector(&model, config);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) detector.ingest(stream[i]);
  std::string out = dump(detector.advance_to(stream[half].start));
  for (std::size_t i = half; i < stream.size(); ++i)
    detector.ingest(stream[i]);
  out += dump(detector.finish());
  return out;
}

TEST(NetEndToEnd, LoopbackDeliveryIsBitIdenticalAndOrdered) {
  const auto stream = make_trace(21, 5000, 0.05, 0.08);
  const Delivery d = loopback_roundtrip(stream);
  const auto& received = d.received;
  const auto& stats = d.server;

  ASSERT_EQ(received.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::vector<std::uint8_t> sent_bytes, recv_bytes;
    core::encode_synopsis(stream[i], sent_bytes);
    core::encode_synopsis(received[i], recv_bytes);
    ASSERT_EQ(sent_bytes, recv_bytes) << "synopsis " << i << " diverged";
  }

  EXPECT_EQ(stats.synopses, stream.size());
  EXPECT_EQ(stats.published, stream.size());
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.goodbyes, 1u);
  EXPECT_EQ(stats.goodbye_mismatches, 0u);
  EXPECT_EQ(stats.crc_rejects, 0u);
  EXPECT_EQ(stats.magic_rejects, 0u);
  EXPECT_EQ(stats.frame_rejects, 0u);
  EXPECT_EQ(stats.payload_rejects, 0u);
  EXPECT_EQ(stats.truncated, 0u);
  EXPECT_EQ(d.client_sent, stream.size());
  expect_ledger(d);
}

TEST(NetEndToEnd, VerdictsMatchInProcessDetect) {
  const auto training = make_trace(11, 20000, 0.002, 0.005);
  const auto model = OutlierModel::train(training);
  // Elevated rare-signature and stretched-duration rates so both the flow
  // and the performance tests fire — an empty golden would be vacuous.
  const auto stream = make_trace(12, 20000, 0.05, 0.08);

  const std::string in_process = run_detector(model, stream);
  ASSERT_FALSE(in_process.empty())
      << "workload produced no anomalies — the golden comparison is vacuous";

  const Delivery d = loopback_roundtrip(stream);
  ASSERT_EQ(d.received.size(), stream.size());
  expect_ledger(d);

  EXPECT_EQ(run_detector(model, d.received), in_process);
}

}  // namespace
}  // namespace saad::net
