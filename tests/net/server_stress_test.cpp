// Concurrency stress for the network ingestion path, meant to run under the
// tsan preset: eight client threads hammer one SynopsisServer while the
// consumer thread drains and acks, and every synopsis must land exactly
// once. Races between the I/O thread, the client threads, and the consumer
// are exactly what tsan is pointed at here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/channel.h"
#include "net/client.h"
#include "net/server.h"

namespace saad::net {
namespace {

using core::Synopsis;

constexpr int kClients = 8;
constexpr std::uint64_t kPerClient = 4000;

Synopsis tagged(int client, std::uint64_t i) {
  Synopsis s;
  s.stage = static_cast<core::StageId>(client);
  s.host = static_cast<core::HostId>(client);
  // Globally unique uid in the start time: client * 1e6 + sequence.
  s.start = static_cast<UsTime>(
      static_cast<std::uint64_t>(client) * 1000000 + i);
  s.duration = 1000 + static_cast<UsTime>(i % 7);
  s.log_points.push_back({static_cast<core::LogPointId>(client * 8), 1});
  return s;
}

TEST(NetServerStress, EightConcurrentClientsEverySynopsisExactlyOnce) {
  core::SynopsisChannel channel;
  SynopsisServer server(&channel);
  ASSERT_TRUE(server.start());

  std::atomic<std::uint64_t> client_sent{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SynopsisClient::Options options;
      options.port = server.port();
      options.host_id = static_cast<core::HostId>(c);
      options.batch_synopses = 128;
      options.connect_attempts_per_flush = 10;
      SynopsisClient client(options);
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        client.enqueue(tagged(c, i));
        if (client.spool_size() >= options.batch_synopses) {
          EXPECT_TRUE(client.flush()) << "client " << c;
        }
      }
      EXPECT_TRUE(client.close()) << "client " << c;
      EXPECT_EQ(client.stats().sent_synopses, kPerClient) << "client " << c;
      client_sent.fetch_add(client.stats().sent_synopses);
    });
  }

  // Consumer: drain + ack concurrently with the senders, parked on the
  // channel between publishes.
  constexpr std::uint64_t kTotal = kClients * kPerClient;
  std::vector<Synopsis> received;
  received.reserve(kTotal);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<Synopsis> chunk;
    const std::uint64_t seen = channel.pushed();
    channel.drain(chunk);
    server.ack(chunk.size());
    received.insert(received.end(), chunk.begin(), chunk.end());
    if (received.size() >= kTotal &&
        server.sessions_finished() == kClients &&
        server.active_connections() == 0)
      break;
    channel.wait_for_push(seen, std::chrono::milliseconds(1));
  }
  for (auto& t : clients) t.join();
  server.stop();
  {
    std::vector<Synopsis> chunk;
    channel.drain(chunk);
    server.ack(chunk.size());
    received.insert(received.end(), chunk.begin(), chunk.end());
  }

  // Exactly once, globally: each uid appears a single time, and each
  // client's own sequence arrives in the order it was sent.
  ASSERT_EQ(received.size(), kTotal);
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  counts.reserve(received.size());
  std::vector<std::uint64_t> last_seen(kClients, 0);
  std::vector<bool> seen_any(kClients, false);
  for (const auto& s : received) {
    const auto uid = static_cast<std::uint64_t>(s.start);
    EXPECT_EQ(++counts[uid], 1u) << "uid " << uid << " duplicated";
    const auto c = static_cast<std::size_t>(uid / 1000000);
    const auto seq = uid % 1000000;
    ASSERT_LT(c, static_cast<std::size_t>(kClients));
    if (seen_any[c]) {
      EXPECT_GT(seq, last_seen[c]) << "client " << c << " reordered";
    }
    seen_any[c] = true;
    last_seen[c] = seq;
  }

  // The conservation ledger: client sent == server decoded == published ==
  // consumer drained.
  const auto stats = server.stats();
  EXPECT_EQ(client_sent.load(), kTotal);
  EXPECT_EQ(stats.synopses, client_sent.load());
  EXPECT_EQ(stats.published, stats.synopses);
  EXPECT_EQ(received.size(), stats.published);
  EXPECT_EQ(stats.sessions, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.goodbyes, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.goodbye_mismatches, 0u);
  EXPECT_EQ(stats.crc_rejects + stats.magic_rejects + stats.frame_rejects +
                stats.payload_rejects + stats.truncated,
            0u);
}

}  // namespace
}  // namespace saad::net
