#include "obs/span.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "json_checker.h"

namespace saad::obs {
namespace {

// A scripted clock: each call advances by a fixed step, so every timestamp a
// tracer records is a pure function of how many stamps preceded it. Two
// tracers driven through the same hook sequence therefore produce
// byte-identical exports — the determinism property the admin plane's
// /spans endpoint relies on for reproducible acceptance runs.
SpanTracer::Options scripted(std::uint64_t sample_every, std::uint64_t seed,
                             std::int64_t* time, std::int64_t step = 10) {
  SpanTracer::Options options;
  options.sample_every = sample_every;
  options.seed = seed;
  options.clock = [time, step] { return *time += step; };
  return options;
}

// Drives one batch through every hop. `cumulative` is the shared
// published-synopsis position both producer and consumer sides count in.
std::uint64_t drive_batch(SpanTracer& tracer, std::uint64_t synopses,
                          std::uint64_t& cumulative) {
  const std::uint64_t token = tracer.on_batch_decoded(synopses);
  cumulative += synopses;
  tracer.on_published(token, cumulative);
  tracer.on_dequeued(cumulative);
  tracer.on_assigned(cumulative);
  tracer.on_window_close(cumulative);
  tracer.on_verdict_emit(cumulative);
  return token;
}

TEST(SpanTracer, DisabledHooksAreNoOps) {
  SpanTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.on_batch_decoded(16), 0u);
  tracer.on_published(1, 16);
  tracer.on_dequeued(16);
  tracer.on_verdict_emit(16);
  EXPECT_EQ(tracer.batches(), 0u);
  EXPECT_EQ(tracer.sampled(), 0u);
  EXPECT_TRUE(tracer.completed().empty());
}

TEST(SpanTracer, SamplingIsDeterministicInSeedAndRate) {
  std::int64_t time = 0;
  SpanTracer tracer;
  tracer.enable(scripted(4, 1, &time));
  std::vector<std::uint64_t> sampled_batches;
  for (std::uint64_t i = 0; i < 12; ++i) {
    if (tracer.on_batch_decoded(8) != 0) sampled_batches.push_back(i);
  }
  // batch i sampled iff i % 4 == 1 % 4.
  EXPECT_EQ(sampled_batches, (std::vector<std::uint64_t>{1, 5, 9}));
  EXPECT_EQ(tracer.batches(), 12u);
  EXPECT_EQ(tracer.sampled(), 3u);
}

TEST(SpanTracer, FullLifecycleStampsEveryHopInOrder) {
  std::int64_t time = 0;
  SpanTracer tracer;
  tracer.enable(scripted(1, 0, &time));
  std::uint64_t cumulative = 0;
  const std::uint64_t token = drive_batch(tracer, 32, cumulative);
  EXPECT_NE(token, 0u);

  const auto spans = tracer.completed();
  ASSERT_EQ(spans.size(), 1u);
  const PipelineSpan& span = spans[0];
  EXPECT_EQ(span.id, token);
  EXPECT_EQ(span.batch_index, 0u);
  EXPECT_EQ(span.synopses, 32u);
  EXPECT_EQ(span.position, 32u);
  for (std::size_t h = 0; h < kSpanHops; ++h) {
    EXPECT_GT(span.ts_us[h], 0) << to_string(static_cast<SpanHop>(h));
    if (h > 0) {
      EXPECT_GT(span.ts_us[h], span.ts_us[h - 1])
          << to_string(static_cast<SpanHop>(h));
    }
  }
  EXPECT_EQ(tracer.completed_count(), 1u);
  EXPECT_EQ(tracer.abandoned(), 0u);
}

TEST(SpanTracer, ConsumerHooksWaitForPublishPosition) {
  std::int64_t time = 0;
  SpanTracer tracer;
  tracer.enable(scripted(1, 0, &time));

  const std::uint64_t token = tracer.on_batch_decoded(10);
  ASSERT_NE(token, 0u);
  // Consumer progress before the batch is published must not stamp it...
  tracer.on_dequeued(100);
  tracer.on_assigned(100);
  tracer.on_published(token, 10);
  // ...nor does progress short of the publish position.
  tracer.on_dequeued(9);
  tracer.on_verdict_emit(9);
  EXPECT_TRUE(tracer.completed().empty());

  // Hops stamp strictly in order: verdict-emit can't fire before the
  // intermediate hops even when the position is reached.
  tracer.on_verdict_emit(10);
  EXPECT_TRUE(tracer.completed().empty());
  tracer.on_dequeued(10);
  tracer.on_assigned(10);
  tracer.on_window_close(10);
  tracer.on_verdict_emit(10);
  ASSERT_EQ(tracer.completed().size(), 1u);
}

TEST(SpanTracer, OpenBoundAbandonsOldest) {
  std::int64_t time = 0;
  SpanTracer tracer;
  SpanTracer::Options options = scripted(1, 0, &time);
  options.max_open = 2;
  tracer.enable(options);
  const std::uint64_t first = tracer.on_batch_decoded(1);
  tracer.on_batch_decoded(1);
  tracer.on_batch_decoded(1);  // evicts `first`
  EXPECT_EQ(tracer.sampled(), 3u);
  EXPECT_EQ(tracer.abandoned(), 1u);
  tracer.on_published(first, 1);  // no-op: the span is gone
  EXPECT_TRUE(tracer.completed().empty());
}

TEST(SpanTracer, RingEvictsOldestAndExportsOldestFirst) {
  std::int64_t time = 0;
  SpanTracer tracer;
  SpanTracer::Options options = scripted(1, 0, &time);
  options.ring_capacity = 2;
  tracer.enable(options);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < 5; ++i) drive_batch(tracer, 4, cumulative);
  EXPECT_EQ(tracer.completed_count(), 5u);
  const auto spans = tracer.completed();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].batch_index, 3u);  // oldest retained
  EXPECT_EQ(spans[1].batch_index, 4u);
  EXPECT_LT(spans[0].ts_us[0], spans[1].ts_us[0]);
}

TEST(SpanTracer, ChromeTraceIsValidJsonWithEveryHop) {
  std::int64_t time = 0;
  SpanTracer tracer;
  tracer.enable(scripted(1, 0, &time));
  std::uint64_t cumulative = 0;
  drive_batch(tracer, 16, cumulative);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(saad::testing::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (std::size_t h = 0; h < kSpanHops; ++h) {
    const std::string name =
        std::string("\"name\":\"") + to_string(static_cast<SpanHop>(h)) + "\"";
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(SpanTracer, EmptyTraceIsStillValidJson) {
  SpanTracer tracer;
  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(saad::testing::JsonChecker(json).valid()) << json;
}

// The property the admin-plane acceptance test leans on: same seed + sample
// rate + clock script => byte-identical Chrome trace JSON, regardless of
// when the export is taken or how many unsampled batches interleave.
TEST(SpanTracer, SameSeedAndRateExportByteIdenticalTraces) {
  const auto run = [] {
    std::int64_t time = 0;
    SpanTracer tracer;
    tracer.enable(scripted(3, 2, &time, 7));
    std::uint64_t cumulative = 0;
    for (int i = 0; i < 20; ++i) drive_batch(tracer, 8, cumulative);
    return tracer.chrome_trace_json();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // A different seed picks different batches: the export must differ.
  std::int64_t time = 0;
  SpanTracer other;
  other.enable(scripted(3, 0, &time, 7));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < 20; ++i) drive_batch(other, 8, cumulative);
  EXPECT_NE(first, other.chrome_trace_json());
}

TEST(SpanTracer, EnableResetsStateAndDisableDropsOpenSpans) {
  std::int64_t time = 0;
  SpanTracer tracer;
  tracer.enable(scripted(1, 0, &time));
  std::uint64_t cumulative = 0;
  drive_batch(tracer, 4, cumulative);
  tracer.on_batch_decoded(4);  // left open
  tracer.disable();
  EXPECT_FALSE(tracer.enabled());

  tracer.enable(scripted(1, 0, &time));
  EXPECT_EQ(tracer.batches(), 0u);
  EXPECT_EQ(tracer.sampled(), 0u);
  EXPECT_TRUE(tracer.completed().empty());
}

}  // namespace
}  // namespace saad::obs
