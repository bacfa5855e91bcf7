#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace saad::obs {

namespace {

const char* kHopNames[kSpanHops] = {
    "ingest-decode", "channel-publish", "dequeue",
    "window-assign", "window-close",    "verdict-emit",
};

// Label values for the per-gap latency families: the gap from hop k to
// hop k+1.
const char* kGapLabels[kSpanHops - 1] = {
    "decode_to_publish", "publish_to_dequeue", "dequeue_to_assign",
    "assign_to_close",   "close_to_emit",
};

// Process-wide span telemetry; every SpanTracer accumulates into the same
// families (the Prometheus model, matching server/channel instrumentation).
struct SpanMetrics {
  Counter& batches;
  Counter& sampled;
  Counter& completed;
  Counter& abandoned;
  Counter& evicted;
  Gauge& open;
  Histogram* gap_us[kSpanHops - 1];
  Histogram& end_to_end_us;

  SpanMetrics()
      : batches(MetricsRegistry::global().counter(
            "saad_span_batches_total",
            "Synopsis batches considered for span sampling at decode.")),
        sampled(MetricsRegistry::global().counter(
            "saad_span_sampled_total", "Pipeline spans started (sampled).")),
        completed(MetricsRegistry::global().counter(
            "saad_span_completed_total",
            "Spans that reached the verdict-emit hop.")),
        abandoned(MetricsRegistry::global().counter(
            "saad_span_abandoned_total",
            "Spans lost before completion (open-span bound hit).")),
        evicted(MetricsRegistry::global().counter(
            "saad_span_evicted_total",
            "Completed spans overwritten in the bounded export ring.")),
        open(MetricsRegistry::global().gauge(
            "saad_span_open", "Spans waiting for downstream hops.")),
        end_to_end_us(MetricsRegistry::global().histogram(
            "saad_span_end_to_end_us",
            "Sampled batch latency from ingest-decode to verdict-emit.",
            latency_bounds_us())) {
    for (std::size_t i = 0; i + 1 < kSpanHops; ++i) {
      gap_us[i] = &MetricsRegistry::global().histogram(
          "saad_span_hop_us",
          "Per-hop latency of sampled pipeline spans (hop label names the "
          "gap).",
          latency_bounds_us(), {{"hop", kGapLabels[i]}});
    }
  }

  static SpanMetrics& get() {
    static SpanMetrics* metrics = new SpanMetrics();
    return *metrics;
  }
};

}  // namespace

const char* to_string(SpanHop hop) {
  const auto i = static_cast<std::size_t>(hop);
  return i < kSpanHops ? kHopNames[i] : "unknown";
}

void register_span_metrics() { SpanMetrics::get(); }

SpanTracer::SpanTracer() = default;

SpanTracer& SpanTracer::global() {
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

std::int64_t SpanTracer::now() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanTracer::enable(Options options) {
  std::lock_guard lock(mu_);
  options_ = std::move(options);
  if (options_.sample_every == 0) options_.sample_every = 1;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  if (options_.max_open == 0) options_.max_open = 1;
  batch_index_.store(0, std::memory_order_relaxed);
  next_id_ = 1;
  sampled_ = 0;
  completed_total_ = 0;
  abandoned_ = 0;
  open_.clear();
  open_count_.store(0, std::memory_order_relaxed);
  ring_.clear();
  SpanMetrics::get();  // families exist before the first scrape
  enabled_.store(true, std::memory_order_release);
}

void SpanTracer::disable() {
  enabled_.store(false, std::memory_order_release);
  std::lock_guard lock(mu_);
  open_.clear();
  open_count_.store(0, std::memory_order_relaxed);
  SpanMetrics::get().open.set(0);
}

void SpanTracer::reset() {
  std::lock_guard lock(mu_);
  batch_index_.store(0, std::memory_order_relaxed);
  next_id_ = 1;
  sampled_ = 0;
  completed_total_ = 0;
  abandoned_ = 0;
  open_.clear();
  open_count_.store(0, std::memory_order_relaxed);
  ring_.clear();
}

std::uint64_t SpanTracer::on_batch_decoded(std::uint64_t synopses) {
  if (!enabled()) return 0;
  auto& metrics = SpanMetrics::get();
  // Unsampled batches — at 1-in-64, nearly all of them — are decided on one
  // atomic increment; only a sampled batch pays for the lock. sample_every
  // and seed are immutable while enabled, so reading them unlocked is safe.
  const std::uint64_t index =
      batch_index_.fetch_add(1, std::memory_order_relaxed);
  metrics.batches.inc();
  if (index % options_.sample_every != options_.seed % options_.sample_every)
    return 0;

  std::lock_guard lock(mu_);
  if (open_.size() >= options_.max_open) {
    open_.erase(open_.begin());
    ++abandoned_;
    metrics.abandoned.inc();
  }
  Open open;
  open.span.id = next_id_++;
  open.span.batch_index = index;
  open.span.synopses = synopses;
  open.span.ts_us[static_cast<std::size_t>(SpanHop::kIngestDecode)] = now();
  open_.push_back(std::move(open));
  open_count_.store(open_.size(), std::memory_order_relaxed);
  ++sampled_;
  metrics.sampled.inc();
  metrics.open.set(static_cast<std::int64_t>(open_.size()));
  return open_.back().span.id;
}

void SpanTracer::on_published(std::uint64_t token, std::uint64_t position) {
  if (token == 0 || !enabled()) return;
  std::lock_guard lock(mu_);
  for (auto& open : open_) {
    if (open.span.id != token) continue;
    open.span.position = position;
    open.published = true;
    open.span.ts_us[static_cast<std::size_t>(SpanHop::kChannelPublish)] =
        now();
    return;
  }
}

void SpanTracer::stamp_from(std::uint64_t cumulative, SpanHop hop) {
  if (!enabled()) return;
  // No span is waiting: skip the lock. The publish that opens a span
  // happens-before the consumer drains its synopses (the channel's mutex
  // orders them), so a consumer hook that should stamp always sees a
  // non-zero count here.
  if (open_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard lock(mu_);
  const auto h = static_cast<std::size_t>(hop);
  bool completed_any = false;
  for (auto& open : open_) {
    if (!open.published || open.span.position > cumulative) continue;
    if (open.span.ts_us[h] != 0 || open.span.ts_us[h - 1] == 0) continue;
    open.span.ts_us[h] = now();
    if (hop == SpanHop::kVerdictEmit) completed_any = true;
  }
  if (!completed_any) return;
  auto done = std::stable_partition(
      open_.begin(), open_.end(), [](const Open& open) {
        return open.span
                   .ts_us[static_cast<std::size_t>(SpanHop::kVerdictEmit)] ==
               0;
      });
  std::vector<Open> finished(std::make_move_iterator(done),
                             std::make_move_iterator(open_.end()));
  open_.erase(done, open_.end());
  open_count_.store(open_.size(), std::memory_order_relaxed);
  for (auto& open : finished) complete_locked(std::move(open.span));
  SpanMetrics::get().open.set(static_cast<std::int64_t>(open_.size()));
}

void SpanTracer::on_dequeued(std::uint64_t cumulative) {
  stamp_from(cumulative, SpanHop::kDequeue);
}
void SpanTracer::on_assigned(std::uint64_t cumulative) {
  stamp_from(cumulative, SpanHop::kWindowAssign);
}
void SpanTracer::on_window_close(std::uint64_t cumulative) {
  stamp_from(cumulative, SpanHop::kWindowClose);
}
void SpanTracer::on_verdict_emit(std::uint64_t cumulative) {
  stamp_from(cumulative, SpanHop::kVerdictEmit);
}

void SpanTracer::complete_locked(PipelineSpan&& span) {
  auto& metrics = SpanMetrics::get();
  for (std::size_t i = 0; i + 1 < kSpanHops; ++i)
    metrics.gap_us[i]->observe(span.ts_us[i + 1] - span.ts_us[i]);
  metrics.end_to_end_us.observe(
      span.ts_us[static_cast<std::size_t>(SpanHop::kVerdictEmit)] -
      span.ts_us[static_cast<std::size_t>(SpanHop::kIngestDecode)]);
  metrics.completed.inc();
  ++completed_total_;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(span));
    return;
  }
  // Ring is full: overwrite the oldest. completed_total_ keeps the lifetime
  // ordering, so (completed_total_ - 1) % capacity is the slot the span
  // would occupy in arrival order.
  metrics.evicted.inc();
  ring_[(completed_total_ - 1) % options_.ring_capacity] = std::move(span);
}

std::vector<PipelineSpan> SpanTracer::completed() const {
  std::lock_guard lock(mu_);
  if (ring_.size() < options_.ring_capacity || completed_total_ == 0)
    return ring_;  // not yet wrapped: already oldest-first
  std::vector<PipelineSpan> out;
  out.reserve(ring_.size());
  const std::size_t cap = options_.ring_capacity;
  const std::size_t head = completed_total_ % cap;  // oldest retained slot
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head + i) % cap]);
  return out;
}

std::uint64_t SpanTracer::batches() const {
  return batch_index_.load(std::memory_order_relaxed);
}
std::uint64_t SpanTracer::sampled() const {
  std::lock_guard lock(mu_);
  return sampled_;
}
std::uint64_t SpanTracer::completed_count() const {
  std::lock_guard lock(mu_);
  return completed_total_;
}
std::uint64_t SpanTracer::abandoned() const {
  std::lock_guard lock(mu_);
  return abandoned_;
}
std::uint64_t SpanTracer::sample_every() const {
  std::lock_guard lock(mu_);
  return options_.sample_every == 0 ? 1 : options_.sample_every;
}

std::string SpanTracer::chrome_trace_json() const {
  const auto spans = completed();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const auto& span : spans) {
    for (std::size_t h = 0; h < kSpanHops; ++h) {
      const std::int64_t ts = span.ts_us[h];
      const std::int64_t dur =
          h + 1 < kSpanHops ? span.ts_us[h + 1] - span.ts_us[h] : 0;
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"saad\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%" PRIu64 ",\"ts\":%" PRId64 ",\"dur\":%" PRId64
          ",\"args\":{\"batch\":%" PRIu64 ",\"synopses\":%" PRIu64
          ",\"position\":%" PRIu64 "}}",
          first ? "" : ",", kHopNames[h], span.id, ts, dur, span.batch_index,
          span.synopses, span.position);
      out += buf;
      first = false;
    }
  }
  out += "]}";
  return out;
}

bool SpanTracer::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << chrome_trace_json() << "\n";
  return static_cast<bool>(file);
}

}  // namespace saad::obs
