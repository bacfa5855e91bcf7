#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "core/varint.h"

namespace saad::net {

namespace {

void put_u32le(std::uint32_t v, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// CRC over the type byte then the payload, so both are covered.
std::uint32_t frame_crc(FrameType type, std::span<const std::uint8_t> payload) {
  const auto type_byte = static_cast<std::uint8_t>(type);
  const std::uint32_t seed = crc32c(std::span(&type_byte, 1));
  return crc32c(payload, seed);
}

bool valid_type(std::uint8_t byte) {
  return byte >= static_cast<std::uint8_t>(FrameType::kHello) &&
         byte <= static_cast<std::uint8_t>(FrameType::kGoodbye);
}

}  // namespace

const char* to_string(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadType: return "bad-type";
    case WireError::kOversized: return "oversized";
    case WireError::kBadCrc: return "bad-crc";
    case WireError::kBadPayload: return "bad-payload";
    case WireError::kNotHello: return "not-hello";
    case WireError::kBadVersion: return "bad-version";
  }
  return "unknown";
}

void encode_frame(FrameType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32le(static_cast<std::uint32_t>(payload.size()), out);
  put_u32le(frame_crc(type, payload), out);
  out.insert(out.end(), payload.begin(), payload.end());
}

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out) {
  core::put_varint(hello.version, out);
  core::put_varint(hello.host, out);
  core::put_varint(hello.flags, out);
}

bool decode_hello(std::span<const std::uint8_t> payload, Hello& out) {
  std::uint64_t host = 0;
  if (!core::get_varint(payload, out.version)) return false;
  if (!core::get_varint(payload, host)) return false;
  if (!core::get_varint(payload, out.flags)) return false;
  if (host > 0xFFFF || !payload.empty()) return false;
  out.host = static_cast<core::HostId>(host);
  return true;
}

void encode_batch(std::span<const core::Synopsis> batch,
                  std::vector<std::uint8_t>& out) {
  core::put_varint(batch.size(), out);
  for (const auto& s : batch) core::encode_synopsis(s, out);
}

bool decode_batch(std::span<const std::uint8_t> payload,
                  std::vector<core::Synopsis>& out) {
  std::uint64_t count = 0;
  if (!core::get_varint(payload, count)) return false;
  // Each synopsis encodes to >= 6 bytes; a count beyond what the payload
  // could possibly hold is damage, caught before reserving anything.
  if (count > payload.size()) return false;
  // Grow geometrically, not to the exact size: a caller appending many
  // batches to one vector would otherwise reallocate (and move everything
  // decoded so far) on every call.
  const std::size_t need = out.size() + static_cast<std::size_t>(count);
  if (need > out.capacity())
    out.reserve(std::max(need, 2 * out.capacity()));
  for (std::uint64_t i = 0; i < count; ++i) {
    core::Synopsis s;
    if (!core::decode_synopsis(payload, s)) return false;
    out.push_back(std::move(s));
  }
  return payload.empty();
}

void encode_goodbye(std::uint64_t total_synopses,
                    std::vector<std::uint8_t>& out) {
  core::put_varint(total_synopses, out);
}

bool decode_goodbye(std::span<const std::uint8_t> payload,
                    std::uint64_t& total_synopses) {
  return core::get_varint(payload, total_synopses) && payload.empty();
}

// ---- FrameDecoder ----------------------------------------------------------

FrameDecoder::FrameDecoder(bool expect_magic) : magic_pending_(expect_magic) {}

bool FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (failed()) return false;
  buffer_.insert(buffer_.end(), data.begin(), data.end());

  std::size_t pos = 0;
  if (magic_pending_) {
    const std::size_t have = std::min(buffer_.size(), sizeof kStreamMagic);
    if (std::memcmp(buffer_.data(), kStreamMagic, have) != 0) {
      error_ = WireError::kBadMagic;
      buffer_.clear();
      return false;
    }
    if (have < sizeof kStreamMagic) return true;  // wait for the rest
    magic_pending_ = false;
    pos = sizeof kStreamMagic;
  }

  while (buffer_.size() - pos >= kFrameHeaderBytes) {
    const std::uint8_t* header = buffer_.data() + pos;
    const std::uint8_t type_byte = header[0];
    const std::uint32_t len = get_u32le(header + 1);
    const std::uint32_t crc = get_u32le(header + 5);
    // Validate before waiting for (or allocating) the payload: a corrupt
    // length must not stall the connection or balloon the buffer.
    if (!valid_type(type_byte)) {
      error_ = WireError::kBadType;
      break;
    }
    if (len > kMaxFramePayload) {
      error_ = WireError::kOversized;
      break;
    }
    if (buffer_.size() - pos - kFrameHeaderBytes < len) break;  // partial
    Frame frame;
    frame.type = static_cast<FrameType>(type_byte);
    frame.payload.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(
                                               pos + kFrameHeaderBytes),
                         buffer_.begin() + static_cast<std::ptrdiff_t>(
                                               pos + kFrameHeaderBytes + len));
    if (frame_crc(frame.type, frame.payload) != crc) {
      error_ = WireError::kBadCrc;
      break;
    }
    ready_.push_back(std::move(frame));
    pos += kFrameHeaderBytes + len;
  }

  if (failed()) {
    buffer_.clear();
    return false;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

bool FrameDecoder::next(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void register_net_metrics() {
  detail::register_server_metrics();
  detail::register_client_metrics();
  detail::register_http_metrics();
}

}  // namespace saad::net
