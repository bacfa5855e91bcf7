#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace saad::net {

namespace {

// Process-wide server-side metrics (all SynopsisServer instances accumulate
// into the same families — the Prometheus model, matching channel.cpp).
struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& connections_rejected;
  obs::Counter& sessions;
  obs::Counter& frames;
  obs::Counter& batches;
  obs::Counter& synopses;
  obs::Counter& published;
  obs::Counter& bytes;
  obs::Counter& heartbeats;
  obs::Counter& goodbyes;
  obs::Counter& goodbye_mismatches;
  obs::Counter& crc_rejects;
  obs::Counter& magic_rejects;
  obs::Counter& frame_rejects;
  obs::Counter& payload_rejects;
  obs::Counter& truncated;
  obs::Counter& read_pauses;
  obs::Gauge& active;

  ServerMetrics()
      : connections(obs::MetricsRegistry::global().counter(
            "saad_net_connections_total", "Client connections accepted.")),
        connections_rejected(obs::MetricsRegistry::global().counter(
            "saad_net_connections_rejected_total",
            "Connections refused because max_connections was reached.")),
        sessions(obs::MetricsRegistry::global().counter(
            "saad_net_sessions_total",
            "Hello-completed connections that have ended (goodbye or "
            "disconnect).")),
        frames(obs::MetricsRegistry::global().counter(
            "saad_net_frames_total",
            "Valid SAADNET1 frames decoded, all types.")),
        batches(obs::MetricsRegistry::global().counter(
            "saad_net_batches_total", "Batch frames decoded.")),
        synopses(obs::MetricsRegistry::global().counter(
            "saad_net_synopses_total",
            "Synopses decoded from batch frames.")),
        published(obs::MetricsRegistry::global().counter(
            "saad_net_published_total",
            "Synopses published into the analyzer channel.")),
        bytes(obs::MetricsRegistry::global().counter(
            "saad_net_bytes_total", "Raw bytes received from clients.")),
        heartbeats(obs::MetricsRegistry::global().counter(
            "saad_net_heartbeats_total", "Heartbeat frames received.")),
        goodbyes(obs::MetricsRegistry::global().counter(
            "saad_net_goodbyes_total", "Goodbye frames received.")),
        goodbye_mismatches(obs::MetricsRegistry::global().counter(
            "saad_net_goodbye_mismatches_total",
            "Goodbye frames whose synopsis count disagreed with what the "
            "connection delivered.")),
        crc_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_crc_rejects_total",
            "Connections dropped for a frame CRC32C mismatch.")),
        magic_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_magic_rejects_total",
            "Connections dropped for a bad SAADNET1 stream prologue.")),
        frame_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_frame_rejects_total",
            "Connections dropped for framing damage (bad type byte or "
            "oversized length prefix).")),
        payload_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_payload_rejects_total",
            "Connections dropped for an undecodable payload, a non-hello "
            "first frame, or an unsupported protocol version.")),
        truncated(obs::MetricsRegistry::global().counter(
            "saad_net_truncated_total",
            "Connections that disconnected mid-frame.")),
        read_pauses(obs::MetricsRegistry::global().counter(
            "saad_net_read_pauses_total",
            "Times the server stopped reading its connections because the "
            "analyzer backlog reached max_outstanding_synopses "
            "(backpressure).")),
        active(obs::MetricsRegistry::global().gauge(
            "saad_net_connections_active", "Currently open connections.")) {}

  static ServerMetrics& get() {
    static ServerMetrics* metrics = new ServerMetrics();
    return *metrics;
  }
};

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

void detail::register_server_metrics() { ServerMetrics::get(); }

struct SynopsisServer::Connection {
  int fd = -1;  // -1 once closed; the I/O loop then erases it
  FrameDecoder decoder;  // expects the stream magic
  bool got_hello = false;
  std::uint64_t synopses = 0;  // decoded on this connection
};

struct SynopsisServer::Impl {
  int listen_fd = -1;
  // Self-pipe: stop() and ack() wake poll(). It lives as long as the server
  // so an ack() never writes to a closed (or reused) descriptor.
  int wake_rd = -1, wake_wr = -1;
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::uint8_t> recv_buf;
  std::vector<core::Synopsis> batch;  // decode target, reused per frame
  std::optional<core::SynopsisChannel::Producer> producer;

  // stats() is cross-thread; the I/O thread updates these relaxed.
  std::atomic<std::uint64_t> connections_total{0}, connections_rejected{0},
      frames{0}, batches{0}, synopses{0}, bytes{0}, heartbeats{0}, goodbyes{0},
      goodbye_mismatches{0}, crc_rejects{0}, magic_rejects{0}, frame_rejects{0},
      payload_rejects{0}, truncated{0}, read_pauses{0};
};

SynopsisServer::SynopsisServer(core::SynopsisChannel* channel, Options options)
    : channel_(channel),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {
  ServerMetrics::get();  // register families even if start() never runs
  impl_->recv_buf.resize(kRecvBufferBytes);
}

SynopsisServer::~SynopsisServer() {
  stop();
  close_quietly(impl_->wake_rd);
  close_quietly(impl_->wake_wr);
}

bool SynopsisServer::start() {
  if (running()) return true;
  Impl& im = *impl_;

  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return false;
  const int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 64) != 0 || !set_nonblocking(im.listen_fd)) {
    close_quietly(im.listen_fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close_quietly(im.listen_fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  if (im.wake_rd < 0) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      close_quietly(im.listen_fd);
      return false;
    }
    im.wake_rd = pipe_fds[0];
    im.wake_wr = pipe_fds[1];
    set_nonblocking(im.wake_rd);
    set_nonblocking(im.wake_wr);  // a full pipe already means "wake up"
  }

  im.producer.emplace(channel_->producer());
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { io_loop(); });
  return true;
}

void SynopsisServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const auto n = ::write(impl_->wake_wr, &byte, 1);
  if (thread_.joinable()) thread_.join();
  // The wake pipe stays open until the destructor (see Impl).
  close_quietly(impl_->listen_fd);
  running_.store(false, std::memory_order_release);
}

void SynopsisServer::ack(std::uint64_t n) {
  // Sequentially consistent pair with the I/O thread's pause (set
  // wake_on_ack_, then re-read acked_): either it sees this ack and does
  // not sleep, or this load sees the flag and wakes it.
  acked_.fetch_add(n, std::memory_order_seq_cst);
  if (!wake_on_ack_.load(std::memory_order_seq_cst) ||
      outstanding() >= options_.max_outstanding_synopses ||
      !wake_on_ack_.exchange(false, std::memory_order_seq_cst))
    return;
  const char byte = 0;
  [[maybe_unused]] const auto w = ::write(impl_->wake_wr, &byte, 1);
}

SynopsisServer::Stats SynopsisServer::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.connections = im.connections_total.load(std::memory_order_relaxed);
  s.connections_rejected =
      im.connections_rejected.load(std::memory_order_relaxed);
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.frames = im.frames.load(std::memory_order_relaxed);
  s.batches = im.batches.load(std::memory_order_relaxed);
  s.synopses = im.synopses.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  s.bytes = im.bytes.load(std::memory_order_relaxed);
  s.heartbeats = im.heartbeats.load(std::memory_order_relaxed);
  s.goodbyes = im.goodbyes.load(std::memory_order_relaxed);
  s.goodbye_mismatches = im.goodbye_mismatches.load(std::memory_order_relaxed);
  s.crc_rejects = im.crc_rejects.load(std::memory_order_relaxed);
  s.magic_rejects = im.magic_rejects.load(std::memory_order_relaxed);
  s.frame_rejects = im.frame_rejects.load(std::memory_order_relaxed);
  s.payload_rejects = im.payload_rejects.load(std::memory_order_relaxed);
  s.truncated = im.truncated.load(std::memory_order_relaxed);
  s.read_pauses = im.read_pauses.load(std::memory_order_relaxed);
  return s;
}

void SynopsisServer::io_loop() {
  Impl& im = *impl_;
  auto& metrics = ServerMetrics::get();
  const std::uint64_t watermark = options_.max_outstanding_synopses;

  auto bump = [](std::atomic<std::uint64_t>& stat, obs::Counter& counter,
                 std::uint64_t n = 1) {
    stat.fetch_add(n, std::memory_order_relaxed);
    counter.inc(n);
  };

  // Closes a connection and attributes the end to the right counters; the
  // entry is erased after the service pass. Everything the connection
  // carried is already published, so the release on sessions_ hands the
  // consumer a complete session.
  auto close_connection = [&](Connection& conn, bool count_truncation) {
    if (count_truncation && conn.decoder.mid_frame())
      bump(im.truncated, metrics.truncated);
    if (conn.got_hello) {
      sessions_.fetch_add(1, std::memory_order_release);
      metrics.sessions.inc();
    }
    close_quietly(conn.fd);
  };

  // Attributes a wire decode error to its reject family.
  auto count_reject = [&](WireError error) {
    switch (error) {
      case WireError::kBadCrc:
        bump(im.crc_rejects, metrics.crc_rejects);
        break;
      case WireError::kBadMagic:
        bump(im.magic_rejects, metrics.magic_rejects);
        break;
      case WireError::kBadType:
      case WireError::kOversized:
        bump(im.frame_rejects, metrics.frame_rejects);
        break;
      default:
        bump(im.payload_rejects, metrics.payload_rejects);
        break;
    }
  };

  // Moves the decoded batch into the channel. The Producer is bound to one
  // channel shard, so publish order is FIFO, and the flush makes the batch
  // visible before anything later on its connection (a goodbye, a close)
  // is counted. published_ moves first, so outstanding() never undercounts
  // what the consumer can already drain.
  auto publish = [&](std::uint64_t span_token) {
    const std::uint64_t n = im.batch.size();
    const std::uint64_t position =
        published_.fetch_add(n, std::memory_order_relaxed) + n;
    // Stamp the publish hop before the first push: once a synopsis is in
    // the channel the consumer may dequeue it, and the span's publish
    // timestamp must precede its dequeue timestamp.
    obs::SpanTracer::global().on_published(span_token, position);
    for (auto& s : im.batch) im.producer->push(std::move(s));
    im.producer->flush();
    im.batch.clear();
    metrics.published.inc(n);
  };

  // Handles every completed frame on a connection. Returns false when the
  // connection must be dropped (protocol violation or goodbye).
  auto handle_frames = [&](Connection& conn) -> bool {
    Frame frame;
    while (conn.decoder.next(frame)) {
      if (!conn.got_hello && frame.type != FrameType::kHello) {
        count_reject(WireError::kNotHello);
        return false;
      }
      bump(im.frames, metrics.frames);
      switch (frame.type) {
        case FrameType::kHello: {
          Hello hello;
          if (!decode_hello(frame.payload, hello)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          if (hello.version != kProtocolVersion) {
            count_reject(WireError::kBadVersion);
            return false;
          }
          conn.got_hello = true;
          break;
        }
        case FrameType::kBatch: {
          im.batch.clear();
          if (!decode_batch(frame.payload, im.batch)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          const std::uint64_t n = im.batch.size();
          bump(im.batches, metrics.batches);
          bump(im.synopses, metrics.synopses, n);
          conn.synopses += n;
          publish(obs::SpanTracer::global().on_batch_decoded(n));
          break;
        }
        case FrameType::kHeartbeat:
          bump(im.heartbeats, metrics.heartbeats);
          break;
        case FrameType::kGoodbye: {
          std::uint64_t claimed = 0;
          if (!decode_goodbye(frame.payload, claimed)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          bump(im.goodbyes, metrics.goodbyes);
          if (claimed != conn.synopses)
            bump(im.goodbye_mismatches, metrics.goodbye_mismatches);
          return false;  // clean end of session
        }
      }
    }
    return true;
  };

  // One recv() on a readable connection, then publish what it completed.
  auto service = [&](Connection& conn) {
    const ssize_t n =
        ::recv(conn.fd, im.recv_buf.data(), im.recv_buf.size(), 0);
    if (n > 0) {
      bump(im.bytes, metrics.bytes, static_cast<std::uint64_t>(n));
      if (!conn.decoder.feed(
              std::span(im.recv_buf.data(), static_cast<std::size_t>(n)))) {
        count_reject(conn.decoder.error());
        close_connection(conn, false);  // decode damage, not a torn end
      } else if (!handle_frames(conn)) {
        close_connection(conn, false);
      }
      return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return;
    close_connection(conn, true);  // peer closed, or a hard socket error
  };

  auto backlogged = [&] {
    return published_.load(std::memory_order_relaxed) -
               acked_.load(std::memory_order_seq_cst) >=
           watermark;
  };
  // True while reads must stay paused. Arms ack()'s wake before the final
  // re-check, so an ack racing with the pause is never slept through.
  auto pause_reads = [&] {
    if (!backlogged()) return false;
    wake_on_ack_.store(true, std::memory_order_seq_cst);
    if (backlogged()) return true;
    wake_on_ack_.store(false, std::memory_order_relaxed);
    return false;
  };

  std::vector<pollfd> fds;
  std::size_t rotation = 0;  // first connection serviced in a pass
  bool was_paused = false;
  while (!stopping_.load(std::memory_order_acquire)) {
    const bool paused = pause_reads();
    if (paused && !was_paused) bump(im.read_pauses, metrics.read_pauses);
    was_paused = paused;

    fds.clear();
    fds.push_back({im.wake_rd, POLLIN, 0});
    fds.push_back({im.listen_fd, POLLIN, 0});
    // Paused: a negative fd makes poll() skip the entry, so unread bytes
    // stay in the socket and TCP flow control pushes back on the sender.
    for (const auto& conn : im.connections)
      fds.push_back({paused ? -1 : conn->fd, POLLIN, 0});

    const int rc = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char sink[64];
      while (::read(im.wake_rd, sink, sizeof sink) > 0) {
      }
    }

    // Accept new connections (drain the backlog).
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(im.listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        if (im.connections.size() >= options_.max_connections) {
          bump(im.connections_rejected, metrics.connections_rejected);
          ::close(fd);
          continue;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        im.connections.push_back(std::move(conn));
        bump(im.connections_total, metrics.connections);
        active_.store(im.connections.size(), std::memory_order_relaxed);
        metrics.active.set(static_cast<std::int64_t>(im.connections.size()));
      }
    }

    // Service readable connections, one recv() each. fds[i + 2] belongs to
    // connections[i] (accepts only append). The pass starts at a rotating
    // index and stops at the watermark, so under backpressure every
    // connection still gets its turn.
    const std::size_t polled = fds.size() - 2;
    for (std::size_t k = 0; k < polled; ++k) {
      const std::size_t i = (rotation + k) % polled;
      if (fds[i + 2].revents == 0) continue;
      if (backlogged()) break;
      service(*im.connections[i]);
    }
    ++rotation;

    if (std::erase_if(im.connections,
                      [](const auto& conn) { return conn->fd < 0; }) > 0) {
      active_.store(im.connections.size(), std::memory_order_relaxed);
      metrics.active.set(static_cast<std::int64_t>(im.connections.size()));
    }
  }

  // Shutdown: close everything. Nothing decoded is waiting — every batch
  // was published by the read that completed it.
  for (auto& conn : im.connections) close_connection(*conn, true);
  im.connections.clear();
  active_.store(0, std::memory_order_relaxed);
  metrics.active.set(0);
  wake_on_ack_.store(false, std::memory_order_relaxed);
  im.producer->flush();
  im.producer.reset();
  // The listen fd stays open here; stop() closes it after the join.
}

}  // namespace saad::net
