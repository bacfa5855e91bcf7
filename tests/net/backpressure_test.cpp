// Backpressure, not shedding: a SynopsisServer whose consumer stops draining
// must stop reading once its channel backlog reaches the watermark, keep the
// backlog under the watermark plus one receive buffer, and — once the
// consumer drains again — deliver every synopsis in send order. The test
// synchronizes on the channel and the server's own counters; it never
// sleeps for a fixed time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "net/client.h"
#include "net/server.h"

namespace saad::net {
namespace {

using core::Synopsis;

constexpr std::uint64_t kWatermark = 1024;
constexpr std::uint64_t kTotal = 50 * kWatermark;
constexpr std::size_t kFrameSynopses = 256;

Synopsis tagged(std::uint64_t i) {
  Synopsis s;
  s.stage = static_cast<core::StageId>(i % 5);
  s.host = 3;
  s.start = static_cast<UsTime>(i);  // the send sequence rides in start
  s.duration = 1000 + static_cast<UsTime>(i % 11);
  s.log_points.push_back({static_cast<core::LogPointId>(i % 5 * 8), 1});
  return s;
}

TEST(NetBackpressure, StalledConsumerPausesReadsThenDeliversEverything) {
  // The soft bound: the recv() that crosses the watermark is still decoded,
  // and it can complete every frame it holds plus one frame begun earlier.
  std::size_t min_encoded = SIZE_MAX;
  for (std::uint64_t i = 0; i < 64; ++i)
    min_encoded = std::min(min_encoded, core::encoded_size(tagged(i)));
  const std::uint64_t bound = kWatermark +
                              SynopsisServer::kRecvBufferBytes / min_encoded +
                              kFrameSynopses;

  core::SynopsisChannel channel;
  SynopsisServer::Options options;
  options.max_outstanding_synopses = kWatermark;
  SynopsisServer server(&channel, options);
  ASSERT_TRUE(server.start());

  SynopsisClient::Stats client_stats;
  std::thread sender([&] {
    SynopsisClient::Options client_options;
    client_options.port = server.port();
    client_options.batch_synopses = kFrameSynopses;
    client_options.connect_attempts_per_flush = 5;
    SynopsisClient client(client_options);
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      client.enqueue(tagged(i));
      if (client.spool_size() >= kFrameSynopses) {
        EXPECT_TRUE(client.flush());  // blocks while the server pushes back
      }
    }
    EXPECT_TRUE(client.close());
    client_stats = client.stats();
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  auto before_deadline = [&] {
    return std::chrono::steady_clock::now() < deadline;
  };

  // Phase 1: nobody drains. Publishes stop once the server pauses.
  while (server.stats().read_pauses == 0 && before_deadline())
    channel.wait_for_push(channel.pushed(), std::chrono::milliseconds(10));
  ASSERT_GT(server.stats().read_pauses, 0u);
  // Nothing was acked, so the backlog only grew: this is its peak.
  EXPECT_GE(server.outstanding(), kWatermark);
  EXPECT_LE(server.outstanding(), bound);
  EXPECT_LT(server.stats().published, kTotal) << "reads never paused";

  // Phase 2: drain. Each ack below the watermark reopens the reads.
  std::vector<Synopsis> received, chunk;
  received.reserve(kTotal);
  while (before_deadline()) {
    chunk.clear();
    const std::uint64_t seen = channel.pushed();
    channel.drain(chunk);
    server.ack(chunk.size());
    EXPECT_LE(server.outstanding(), bound);
    received.insert(received.end(), chunk.begin(), chunk.end());
    if (received.size() >= kTotal && server.sessions_finished() == 1 &&
        server.active_connections() == 0)
      break;
    channel.wait_for_push(seen, std::chrono::milliseconds(10));
  }
  sender.join();
  server.stop();
  chunk.clear();
  channel.drain(chunk);
  received.insert(received.end(), chunk.begin(), chunk.end());

  ASSERT_EQ(received.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i)
    ASSERT_EQ(received[i].start, static_cast<UsTime>(i))
        << "synopsis " << i << " out of send order";

  // The ledger: client sent == server decoded == published == drained, and
  // the client's own goodbye count agrees.
  const auto stats = server.stats();
  EXPECT_EQ(client_stats.sent_synopses, kTotal);
  EXPECT_EQ(client_stats.dropped, 0u);
  EXPECT_EQ(stats.synopses, client_stats.sent_synopses);
  EXPECT_EQ(stats.published, stats.synopses);
  EXPECT_EQ(received.size(), stats.published);
  EXPECT_EQ(stats.goodbyes, 1u);
  EXPECT_EQ(stats.goodbye_mismatches, 0u);
  EXPECT_EQ(stats.truncated, 0u);
}

}  // namespace
}  // namespace saad::net
