#include "core/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace saad::core {
namespace {

Synopsis sample(TaskUid uid) {
  Synopsis s;
  s.stage = 1;
  s.uid = uid;
  s.log_points = {{1, 1}, {2, 3}};
  return s;
}

TEST(SynopsisChannel, PushDrainPreservesOrder) {
  SynopsisChannel channel;
  for (TaskUid uid = 1; uid <= 5; ++uid) channel.push(sample(uid));
  std::vector<Synopsis> out;
  channel.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (TaskUid uid = 1; uid <= 5; ++uid) EXPECT_EQ(out[uid - 1].uid, uid);
}

TEST(SynopsisChannel, DrainAppendsAndEmpties) {
  SynopsisChannel channel;
  channel.push(sample(1));
  std::vector<Synopsis> out;
  out.push_back(sample(99));
  channel.drain(out);
  EXPECT_EQ(out.size(), 2u);
  channel.drain(out);  // nothing left
  EXPECT_EQ(out.size(), 2u);
}

TEST(SynopsisChannel, CountsPushedAndBytes) {
  SynopsisChannel channel;
  EXPECT_EQ(channel.pushed(), 0u);
  EXPECT_EQ(channel.encoded_bytes(), 0u);
  channel.push(sample(1));
  channel.push(sample(2));
  EXPECT_EQ(channel.pushed(), 2u);
  EXPECT_EQ(channel.encoded_bytes(), 2 * encoded_size(sample(1)));
  // Counters survive draining (lifetime totals, used by Fig. 8).
  std::vector<Synopsis> out;
  channel.drain(out);
  EXPECT_EQ(channel.pushed(), 2u);
}

TEST(SynopsisChannel, ConcurrentProducersLoseNothing) {
  SynopsisChannel channel;
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&channel, t] {
      for (int i = 0; i < kPerThread; ++i) {
        channel.push(sample(static_cast<TaskUid>(t * kPerThread + i)));
      }
    });
  }
  for (auto& p : producers) p.join();
  std::vector<Synopsis> out;
  channel.drain(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(channel.pushed(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(SynopsisChannel, ProducerMovePushKeepsOrderAndContent) {
  SynopsisChannel channel;
  {
    auto producer = channel.producer();
    for (TaskUid uid = 1; uid <= 3; ++uid) {
      Synopsis s = sample(uid);
      producer.push(std::move(s));
    }
  }  // destruction flushes
  std::vector<Synopsis> out;
  channel.drain(out);
  ASSERT_EQ(out.size(), 3u);
  for (TaskUid uid = 1; uid <= 3; ++uid) EXPECT_EQ(out[uid - 1], sample(uid));
}

TEST(SynopsisChannel, WaitForPushReturnsAtOnceWhenSomethingLanded) {
  SynopsisChannel channel;
  const std::uint64_t seen = channel.pushed();
  channel.push(sample(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(channel.wait_for_push(seen, std::chrono::seconds(30)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(SynopsisChannel, WaitForPushTimesOutWhenIdle) {
  SynopsisChannel channel;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      channel.wait_for_push(channel.pushed(), std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
}

TEST(SynopsisChannel, WaitForPushWakesOnDirectPushAndOnFlush) {
  // A wake that relied on the timeout would take 30 s; either way the
  // return value says a push landed.
  for (const bool batched : {false, true}) {
    SynopsisChannel channel;
    const std::uint64_t seen = channel.pushed();
    std::thread producer([&] {
      if (batched) {
        auto handle = channel.producer();
        handle.push(sample(1));
        handle.push(sample(2));
        handle.flush();
      } else {
        channel.push(sample(1));
      }
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(channel.wait_for_push(seen, std::chrono::seconds(30)))
        << "batched=" << batched;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10))
        << "batched=" << batched << ": the wake was missed";
    producer.join();
  }
}

TEST(SynopsisChannel, ProducerBufferAloneDoesNotWake) {
  SynopsisChannel channel;
  auto handle = channel.producer();
  handle.push(sample(1));  // buffered, not yet visible
  EXPECT_FALSE(
      channel.wait_for_push(channel.pushed(), std::chrono::milliseconds(1)));
  const std::uint64_t seen = channel.pushed();
  handle.flush();
  EXPECT_TRUE(channel.wait_for_push(seen, std::chrono::milliseconds(1)));
}

}  // namespace
}  // namespace saad::core
