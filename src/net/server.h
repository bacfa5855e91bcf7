// SynopsisServer — the analyzer-side TCP acceptor for live synopsis
// ingestion. Remote trackers (SynopsisClient, or `saad_offline replay`)
// connect, speak the SAADNET1 framed protocol (net/wire.h), and their batch
// frames are decoded and published into the existing sharded
// core::SynopsisChannel, from which the analyzer loop drains exactly as it
// would from in-process trackers.
//
// Concurrency shape: one poll()-based I/O thread owns the listener, every
// connection, and the channel Producer handle; the analyzer (consumer)
// thread only drains the channel and calls ack(). No per-connection threads
// — the paper's deployment expects many lightweight senders per analyzer.
//
// Ordering: the I/O thread publishes every decoded batch right after the
// recv() that completed it, FIFO through a single channel Producer (one
// shard), moving the decoded synopses into the channel. A single client's
// synopses therefore reach the analyzer in exactly the order it sent them —
// the property the end-to-end determinism test pins. Interleaving *between*
// clients is unspecified, as it already is between in-process producer
// threads.
//
// Overload policy (bounded everywhere, lossless):
//   * per-connection reassembly buffers are bounded by one frame
//     (kMaxFramePayload) — a corrupt length prefix cannot balloon them;
//   * nothing waits between decode and publish, so the server holds no
//     queue of its own to overflow;
//   * backpressure, not shedding: once published-minus-acked reaches
//     max_outstanding_synopses the I/O thread stops polling data
//     connections for reads (counted in saad_net_read_pauses_total). TCP
//     flow control then blocks the senders, whose spools absorb the wait.
//     The bound is soft: the recv() that crosses the watermark is still
//     decoded and published, so the channel backlog stays under the
//     watermark plus one receive buffer (kRecvBufferBytes) and one partial
//     frame. ack() reopens the reads through the I/O thread's self-pipe as
//     soon as the backlog falls back under the watermark;
//   * the ledger: a synopsis the server read is either published or its
//     connection was rejected for damage (counted by cause). On a clean
//     session, client sent == server decoded == published == what the
//     consumer drains, and the goodbye frame audits the first equality.
//
// Damage policy: any wire decode error poisons that connection — it is
// closed and the matching saad_net_* reject counter is bumped; other
// connections and the listener are unaffected (the corruption suite pins
// "never crash, always count").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/channel.h"
#include "net/wire.h"

namespace saad::net {

class SynopsisServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port() for the real one
    std::size_t max_connections = 64;
    /// High watermark on synopses published into the channel but not yet
    /// ack()ed by the consumer; reaching it pauses reads (backpressure).
    std::uint64_t max_outstanding_synopses = 1 << 20;
    /// poll() timeout: the idle tick. Stop and ack() wake the I/O thread
    /// through its self-pipe, so neither waits for it.
    int poll_interval_ms = 20;
  };

  /// Monotonic since start(); every field also feeds a saad_net_* family.
  struct Stats {
    std::uint64_t connections = 0;       // accepted
    std::uint64_t connections_rejected = 0;  // over max_connections
    std::uint64_t sessions = 0;          // hello'd connections that ended
    std::uint64_t frames = 0;            // valid frames, all types
    std::uint64_t batches = 0;
    std::uint64_t synopses = 0;          // decoded from batch frames
    std::uint64_t published = 0;         // handed to the channel
    std::uint64_t bytes = 0;             // raw bytes received
    std::uint64_t heartbeats = 0;
    std::uint64_t goodbyes = 0;
    std::uint64_t goodbye_mismatches = 0;  // goodbye count != received count
    std::uint64_t crc_rejects = 0;       // WireError::kBadCrc
    std::uint64_t magic_rejects = 0;     // WireError::kBadMagic
    std::uint64_t frame_rejects = 0;     // kBadType / kOversized
    std::uint64_t payload_rejects = 0;   // kBadPayload / kNotHello / kBadVersion
    std::uint64_t truncated = 0;         // disconnect mid-frame
    std::uint64_t read_pauses = 0;       // reads paused at the watermark
  };

  /// Bytes one recv() reads; with the watermark it bounds the backlog.
  static constexpr std::size_t kRecvBufferBytes = 64 * 1024;

  explicit SynopsisServer(core::SynopsisChannel* channel)
      : SynopsisServer(channel, Options()) {}
  SynopsisServer(core::SynopsisChannel* channel, Options options);
  ~SynopsisServer();  // stop()s if still running
  SynopsisServer(const SynopsisServer&) = delete;
  SynopsisServer& operator=(const SynopsisServer&) = delete;

  /// Binds, listens and spawns the I/O thread. False on bind/listen failure
  /// (error written to errno by the failing call).
  bool start();

  /// Closes the listener and every connection and joins the I/O thread.
  /// Everything decoded is already in the channel. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (resolves port 0); valid after start().
  std::uint16_t port() const { return port_; }

  /// Consumer-side flow control: report `n` synopses drained out of the
  /// channel. Wakes the I/O thread when this brings a paused server back
  /// under the watermark. Call from one consumer thread, not concurrently
  /// with the destructor.
  void ack(std::uint64_t n);

  std::size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Connections that completed the hello and have since ended (goodbye or
  /// disconnect). Everything such a session carried is already published
  /// when the count moves (acquire pairs with the I/O thread's release), so
  /// `serve --once` exits when this goes positive and the channel is empty.
  std::uint64_t sessions_finished() const {
    return sessions_.load(std::memory_order_acquire);
  }

  /// Synopses published minus acked — the channel backlog this server is
  /// responsible for.
  std::uint64_t outstanding() const {
    return published_.load(std::memory_order_relaxed) -
           acked_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  struct Connection;
  struct Impl;

  void io_loop();

  core::SynopsisChannel* channel_;
  Options options_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::uint16_t port_ = 0;

  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> acked_{0};
  // Set by the I/O thread while reads are paused at the watermark; the
  // ack() that clears it writes the wake byte.
  std::atomic<bool> wake_on_ack_{false};
};

}  // namespace saad::net
