// CRC32C: the hardware (SSE4.2) path crc32c() dispatches to must agree with
// the portable table code bit for bit — at every length, every start
// alignment and under chaining — and files checksummed by the table code
// before the hardware path existed must still verify.
#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/trace_io.h"
#include "testutil/temp_dir.h"

namespace saad {
namespace {

// A v2 trace (5 synopses in two CRC-sealed blocks) and a SAADCKP1 checkpoint,
// both written by the table-only implementation.
constexpr std::uint8_t kParentTraceV2[] = {
    0x53, 0x41, 0x41, 0x44, 0x54, 0x52, 0x43, 0x32, 0x42, 0x4c, 0x4b, 0x32,
    0x23, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x24, 0x43, 0xdb, 0x95,
    0x02, 0x03, 0x64, 0x00, 0xf4, 0x03, 0x02, 0x07, 0x01, 0x02, 0x02, 0x02,
    0x04, 0x65, 0xd0, 0x0f, 0xf6, 0x03, 0x02, 0x07, 0x01, 0x03, 0x02, 0x02,
    0x03, 0x66, 0xa0, 0x1f, 0xf8, 0x03, 0x02, 0x07, 0x01, 0x04, 0x02, 0x42,
    0x4c, 0x4b, 0x32, 0x18, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xe5,
    0x38, 0x09, 0x48, 0x02, 0x04, 0x67, 0xf0, 0x2e, 0xfa, 0x03, 0x02, 0x07,
    0x01, 0x05, 0x02, 0x02, 0x03, 0x68, 0xc0, 0x3e, 0xfc, 0x03, 0x02, 0x07,
    0x01, 0x06, 0x02,
};
constexpr std::uint8_t kParentCheckpoint[] = {
    0x53, 0x41, 0x41, 0x44, 0x43, 0x4b, 0x50, 0x31, 0x01, 0x0a, 0x00, 0x00,
    0x00, 0x2e, 0x55, 0xa1, 0xf7, 0x01, 0x07, 0x02, 0x80, 0x89, 0x7a, 0x01,
    0x2a, 0x2a, 0x28, 0x02, 0x03, 0x00, 0x00, 0x00, 0x22, 0x39, 0x54, 0x66,
    0x01, 0x02, 0x03, 0x03, 0x02, 0x00, 0x00, 0x00, 0xc9, 0x16, 0x31, 0xf1,
    0x04, 0x05, 0x04, 0x04, 0x00, 0x00, 0x00, 0xea, 0xa6, 0x24, 0xf0, 0x06,
    0x07, 0x08, 0x09, 0x05, 0x25, 0x00, 0x00, 0x00, 0x5f, 0x8f, 0xd4, 0x08,
    0x01, 0x03, 0x80, 0x9b, 0xee, 0x02, 0x02, 0x04, 0x00, 0x01, 0xfc, 0xa9,
    0xf1, 0xd2, 0x4d, 0x62, 0x50, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xd0, 0x3f, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x28, 0x0a,
    0x00, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x78, 0x3b, 0xf6, 0x7d,
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

TEST(Crc32c, Rfc3720Vectors) {
  const std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF);
  std::vector<std::uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  for (const bool portable : {false, true}) {
    auto sum = [&](const std::vector<std::uint8_t>& v) {
      return portable ? detail::crc32c_portable(v) : crc32c(v);
    };
    EXPECT_EQ(sum(zeros), 0x8A9136AAu) << "portable=" << portable;
    EXPECT_EQ(sum(ones), 0x62A8AB43u) << "portable=" << portable;
    EXPECT_EQ(sum(ascending), 0x46DD794Eu) << "portable=" << portable;
  }
}

TEST(Crc32c, DispatchedEqualsPortableAtEveryLengthAndOffset) {
  const auto bytes = random_bytes(4096 + 8, 0xC0FFEE);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::span<const std::uint8_t> data(bytes.data() + offset, len);
      ASSERT_EQ(crc32c(data), detail::crc32c_portable(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, DispatchedEqualsPortableUnderChaining) {
  const auto bytes = random_bytes(3000, 7);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = detail::crc32c_portable(all);
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    // Split at random cut points and chain the pieces, alternating paths.
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    bool portable = round % 2 == 0;
    while (pos < all.size()) {
      const std::size_t len = std::min<std::size_t>(
          all.size() - pos, rng.next_below(97));
      const auto piece = all.subspan(pos, len);
      crc = portable ? detail::crc32c_portable(piece, crc)
                     : crc32c(piece, crc);
      portable = !portable;
      pos += len;
    }
    ASSERT_EQ(crc, whole) << "round " << round;
  }
}

TEST(Crc32c, TableWrittenTraceStillReads) {
  testutil::TempDir dir;
  const std::string path = dir.path("parent.trc");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(kParentTraceV2),
              sizeof kParentTraceV2);
  }
  core::TraceReader reader(path);
  std::vector<core::Synopsis> trace;
  core::Synopsis s;
  while (reader.next(s)) trace.push_back(s);
  const auto& stats = reader.stats();
  EXPECT_EQ(stats.version, 2);
  EXPECT_EQ(stats.blocks_total, 2u);
  EXPECT_EQ(stats.blocks_corrupt, 0u);
  EXPECT_EQ(stats.bytes_discarded, 0u);
  EXPECT_FALSE(stats.truncated_tail);
  ASSERT_EQ(trace.size(), 5u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].host, 2u);
    EXPECT_EQ(trace[i].uid, 100 + i);
    EXPECT_EQ(trace[i].start, static_cast<UsTime>(1000 * i));
    EXPECT_EQ(trace[i].duration, static_cast<UsTime>(250 + i));
    ASSERT_EQ(trace[i].log_points.size(), 2u);
    EXPECT_EQ(trace[i].log_points[1].count, 2u);
  }
}

TEST(Crc32c, TableWrittenCheckpointStillReads) {
  const auto c = core::decode_checkpoint(kParentCheckpoint);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->sequence, 7u);
  EXPECT_EQ(c->model_epoch, 2u);
  EXPECT_EQ(c->window, 1000000);
  EXPECT_EQ(c->ingested, 42u);
  EXPECT_EQ(c->acked, 40u);
  EXPECT_EQ(c->model, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(c->registry, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(c->analyzer, (std::vector<std::uint8_t>{6, 7, 8, 9}));
  ASSERT_EQ(c->anomalies.size(), 1u);
  EXPECT_EQ(c->anomalies[0].outliers, 10u);
  // And the same bytes re-encode identically: the writer's checksums did
  // not move either.
  std::vector<std::uint8_t> again;
  core::encode_checkpoint(*c, again);
  EXPECT_EQ(again, std::vector<std::uint8_t>(std::begin(kParentCheckpoint),
                                             std::end(kParentCheckpoint)));
}

}  // namespace
}  // namespace saad
