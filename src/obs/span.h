// Sampled end-to-end pipeline spans (Dapper-style, deterministic 1-in-N):
// a synopsis batch picked at ingest-decode is stamped at each hop it takes
// through the live serving pipeline —
//
//   ingest-decode -> channel-publish -> dequeue -> window-assign
//                 -> window-close -> verdict-emit
//
// — giving per-hop latency attribution for the exact path a synopsis travels
// from the wire to a verdict, without timing every batch.
//
// Sampling is deterministic: batch `i` (a lifetime 0-based index assigned at
// decode) is sampled iff i % sample_every == seed % sample_every, so the
// same seed and rate always pick the same batches — the property the
// determinism test pins (with an injected clock, two runs export
// byte-identical Chrome trace JSON).
//
// Hop-matching model: the decode and publish stamps are applied by the
// producer (server I/O) thread, which knows the batch it is handling and
// passes the span token along. Downstream, batches lose their identity in
// the channel, so the consumer-side hooks stamp by *stream position*: the
// server's publishes are FIFO through one channel producer, so the span for
// a batch published at cumulative position P gets its dequeue / assign /
// close / emit stamps the first time the consumer's cumulative count reaches
// P with the prior hop already stamped. Positions are in published-synopsis
// coordinates; the server publishes every decoded batch, so decode and
// publish positions never diverge.
//
// Cost model: every hook self-gates on one relaxed atomic load when tracing
// is disabled (the default — `detect` and in-process tests never pay more
// than that). Enabled, hooks take a mutex per *batch* (not per synopsis);
// at the default 1-in-64 rate the open-span list is almost always empty or
// tiny. Completed spans land in a bounded ring (oldest evicted, counted) and
// export as Chrome trace-event JSON (Perfetto-loadable) via the admin
// plane's /spans and `serve --trace-out=`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace saad::obs {

enum class SpanHop : std::uint8_t {
  kIngestDecode = 0,
  kChannelPublish = 1,
  kDequeue = 2,
  kWindowAssign = 3,
  kWindowClose = 4,
  kVerdictEmit = 5,
};
inline constexpr std::size_t kSpanHops = 6;
const char* to_string(SpanHop hop);

struct PipelineSpan {
  std::uint64_t id = 0;           // 1-based sampled-span sequence
  std::uint64_t batch_index = 0;  // lifetime batch number at decode
  std::uint64_t synopses = 0;     // synopses the batch carried
  std::uint64_t position = 0;     // cumulative published synopses incl. batch
  std::int64_t ts_us[kSpanHops] = {};  // stamp per hop; 0 = never reached
};

/// Registers every saad_span_* family (hop histograms, totals, gauges) so
/// snapshots expose them zero-valued even before tracing is enabled.
void register_span_metrics();

class SpanTracer {
 public:
  struct Options {
    /// Sample one batch in this many (1 = every batch).
    std::uint64_t sample_every = 64;
    /// Phase within the 1-in-N cycle; same seed + rate => same batches.
    std::uint64_t seed = 0;
    /// Completed spans retained for /spans and --trace-out.
    std::size_t ring_capacity = 1024;
    /// Spans still waiting for downstream hops; beyond this the oldest is
    /// abandoned (bounds memory if the pipeline stalls mid-stream).
    std::size_t max_open = 256;
    /// Injectable time source (us); defaults to the steady clock. Tests
    /// script it to make exports byte-reproducible.
    std::function<std::int64_t()> clock;
  };

  SpanTracer();  // constructed disabled
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Process-wide tracer the serving pipeline stamps into (leaked, like the
  /// global metrics registry). Disabled until enable() is called, so every
  /// non-serving path pays one relaxed load per hook.
  static SpanTracer& global();

  void enable(Options options);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // ---- Producer-side hooks (server I/O thread) -----------------------------

  /// A batch of `synopses` decoded off the wire. Returns a span token to
  /// carry alongside the batch: 0 = not sampled, otherwise the span id.
  std::uint64_t on_batch_decoded(std::uint64_t synopses);

  /// The token's batch is about to be published into the channel at
  /// cumulative published position `position` (total synopses published
  /// through and including this batch). Call with token 0 allowed (no-op).
  void on_published(std::uint64_t token, std::uint64_t position);

  // ---- Consumer-side hooks (analyzer loop thread) --------------------------
  // Each stamps every open span whose position <= `cumulative` and whose
  // previous hop is already stamped. `cumulative` counts synopses the
  // consumer has drained (same coordinates as the publish position).

  void on_dequeued(std::uint64_t cumulative);
  void on_assigned(std::uint64_t cumulative);
  void on_window_close(std::uint64_t cumulative);
  void on_verdict_emit(std::uint64_t cumulative);

  // ---- Export --------------------------------------------------------------

  /// Completed spans, oldest first (at most ring_capacity).
  std::vector<PipelineSpan> completed() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}) of the completed
  /// spans: one "X" (complete) event per hop, ts/dur in microseconds,
  /// tid = span id. Loadable in Perfetto / chrome://tracing.
  std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path` (truncating). False on I/O error.
  bool write_chrome_trace(const std::string& path) const;

  std::uint64_t batches() const;    // batches seen at decode since enable()
  std::uint64_t sampled() const;    // spans started
  std::uint64_t completed_count() const;
  std::uint64_t abandoned() const;  // open-overflowed spans
  std::uint64_t sample_every() const;

  /// Drops all state and counters (not the registered metric families).
  /// Tests only; enable() also resets.
  void reset();

 private:
  struct Open {
    PipelineSpan span;
    bool published = false;  // publish position known
  };

  void stamp_from(std::uint64_t cumulative, SpanHop hop);
  void complete_locked(PipelineSpan&& span);
  std::int64_t now() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Options options_;
  // Lock-free fast paths for the hot hooks: the lifetime batch counter is an
  // atomic so unsampled batches (the 63-in-64 case) never take the mutex in
  // on_batch_decoded, and the consumer hooks skip it entirely while no span
  // is open. Both are written under mu_ where consistency matters
  // (enable/reset, open-list mutation) and read relaxed on the hot path —
  // the channel's own synchronization orders a span's insertion before the
  // consumer can see the synopses it describes.
  std::atomic<std::uint64_t> batch_index_{0};  // next batch's index
  std::atomic<std::size_t> open_count_{0};     // == open_.size()
  std::uint64_t next_id_ = 1;
  std::uint64_t sampled_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t abandoned_ = 0;
  std::vector<Open> open_;            // decode order
  std::vector<PipelineSpan> ring_;    // completed, ring-indexed by count
};

}  // namespace saad::obs
