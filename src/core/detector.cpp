#include "core/detector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/telemetry.h"
#include "core/varint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

struct DetectorMetrics {
  obs::Counter& analyzer_ingested;
  obs::Counter& model_swaps;
  obs::Gauge& model_epoch;
  obs::Counter& synopses;
  obs::Counter& windows_closed;
  obs::Counter& flow_anomalies;
  obs::Counter& perf_anomalies;
  obs::Counter& tests_run;
  obs::Counter& tests_rejected;
  obs::Histogram& window_close_us;

  DetectorMetrics()
      : analyzer_ingested(obs::MetricsRegistry::global().counter(
            "saad_analyzer_ingested_total",
            "Synopses handed to the analyzer.")),
        model_swaps(obs::MetricsRegistry::global().counter(
            "saad_analyzer_model_swaps_total",
            "Hot model reloads applied at a window boundary.")),
        model_epoch(obs::MetricsRegistry::global().gauge(
            "saad_analyzer_model_epoch",
            "Model epoch of the most recently swapped analyzer (0 = the "
            "construction model, +1 per applied swap).")),
        synopses(obs::MetricsRegistry::global().counter(
            "saad_detector_synopses_total",
            "Synopses classified and bucketed into windows.")),
        windows_closed(obs::MetricsRegistry::global().counter(
            "saad_detector_windows_closed_total",
            "Detection windows closed.")),
        flow_anomalies(obs::MetricsRegistry::global().counter(
            "saad_detector_anomalies_total", "Anomaly verdicts raised.",
            {{"kind", "flow"}})),
        perf_anomalies(obs::MetricsRegistry::global().counter(
            "saad_detector_anomalies_total", "Anomaly verdicts raised.",
            {{"kind", "performance"}})),
        tests_run(obs::MetricsRegistry::global().counter(
            "saad_detector_tests_total",
            "Proportion hypothesis tests executed at window close.")),
        tests_rejected(obs::MetricsRegistry::global().counter(
            "saad_detector_test_rejections_total",
            "Hypothesis tests that rejected the null (raised or contributed "
            "to an anomaly).")),
        window_close_us(obs::MetricsRegistry::global().histogram(
            "saad_detector_window_close_us",
            "Latency of closing one detection window (all tests for all "
            "(host, stage) keys), microseconds.",
            obs::latency_bounds_us())) {}

  static DetectorMetrics& get() {
    static DetectorMetrics* metrics = new DetectorMetrics();
    return *metrics;
  }
};

}  // namespace

void detail::register_detector_metrics() { DetectorMetrics::get(); }

AnomalyDetector::AnomalyDetector(const OutlierModel* model,
                                 DetectorConfig config)
    : model_(model), config_(config) {
  assert(model_ != nullptr);
  assert(config_.window > 0);
}

void AnomalyDetector::ingest(const Synopsis& synopsis) {
  const Feature f = make_feature(synopsis);
  const auto window =
      static_cast<std::size_t>(std::max<UsTime>(f.start, 0) / config_.window);
  // Late synopses for windows already closed are attributed to the oldest
  // open window rather than dropped: anomalies should not escape detection
  // because a long task finished after its start window closed.
  const std::size_t effective = std::max(window, next_window_to_close_);
  auto [win_it, opened] = open_windows_.try_emplace(effective);
  if (opened) {
    obs::FlightRecorder::global().record(obs::EventKind::kWindowOpen,
                                         "window %zu opened", effective);
  }
  auto& stage_stats = win_it->second[{f.host, f.stage}];
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = DetectorMetrics::get();
    metrics.analyzer_ingested.inc();
    metrics.synopses.inc();
  }

  const Classification c = model_->classify(f);
  stage_stats.n++;
  if (c.flow_outlier) {
    stage_stats.flow_outliers++;
    if (stage_stats.example_flow_outlier.empty())
      stage_stats.example_flow_outlier = f.signature;
  }
  if (c.new_signature) {
    auto& fresh = stage_stats.new_signatures;
    if (std::find(fresh.begin(), fresh.end(), f.signature) == fresh.end())
      fresh.push_back(f.signature);
  }
  auto& sig_stats = stage_stats.per_signature[f.signature];
  sig_stats.n++;
  sig_stats.perf_applicable = c.perf_applicable;
  if (c.perf_outlier) sig_stats.perf_outliers++;
  ingested_++;
}

std::vector<Anomaly> AnomalyDetector::advance_to(UsTime now) {
  std::vector<Anomaly> out;
  while (!open_windows_.empty()) {
    auto it = open_windows_.begin();
    const UsTime window_end =
        static_cast<UsTime>(it->first + 1) * config_.window;
    if (window_end > now) break;
    auto produced = close_window(it->first, it->second);
    out.insert(out.end(), produced.begin(), produced.end());
    next_window_to_close_ = it->first + 1;
    open_windows_.erase(it);
  }
  return out;
}

std::vector<Anomaly> AnomalyDetector::finish() {
  std::vector<Anomaly> out;
  for (auto& [index, stats] : open_windows_) {
    auto produced = close_window(index, stats);
    out.insert(out.end(), produced.begin(), produced.end());
    next_window_to_close_ = index + 1;
  }
  open_windows_.clear();
  return out;
}

void AnomalyDetector::rebind_model(const OutlierModel* model) {
  assert(model != nullptr);
  model_ = model;
  ++model_epoch_;
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = DetectorMetrics::get();
    metrics.model_swaps.inc();
    metrics.model_epoch.set(static_cast<std::int64_t>(model_epoch_));
  }
  obs::FlightRecorder::global().record(
      obs::EventKind::kModelReload,
      "analyzer: model swapped at window boundary (epoch %llu)",
      static_cast<unsigned long long>(model_epoch_));
}

namespace {

// Detector-state codec (version 1). All integers varint; signatures are
// count + delta-encoded sorted points (the model_io.cpp idiom). Every map
// iterates in key order, so equal states encode equal bytes.
constexpr std::uint64_t kDetectorStateVersion = 1;

void put_signature(const Signature& sig, std::vector<std::uint8_t>& out) {
  put_varint(sig.points().size(), out);
  LogPointId prev = 0;
  for (const LogPointId p : sig.points()) {
    put_varint(static_cast<std::uint64_t>(p - prev), out);
    prev = p;
  }
}

bool get_signature(std::span<const std::uint8_t>& in, Signature& sig) {
  std::uint64_t count = 0;
  if (!get_varint(in, count) || count > 0x10000) return false;
  std::vector<LogPointId> points;
  points.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(in, delta)) return false;
    prev += delta;
    if (prev > 0xFFFF) return false;
    points.push_back(static_cast<LogPointId>(prev));
  }
  sig = Signature(std::move(points));
  return true;
}

}  // namespace

void AnomalyDetector::save_state(std::vector<std::uint8_t>& out) const {
  put_varint(kDetectorStateVersion, out);
  put_varint(next_window_to_close_, out);
  put_varint(ingested_, out);
  put_varint(open_windows_.size(), out);
  for (const auto& [index, window] : open_windows_) {
    put_varint(index, out);
    put_varint(window.size(), out);
    for (const auto& [key, stage_stats] : window) {
      put_varint(key.first, out);
      put_varint(key.second, out);
      put_varint(stage_stats.n, out);
      put_varint(stage_stats.flow_outliers, out);
      put_signature(stage_stats.example_flow_outlier, out);
      put_varint(stage_stats.new_signatures.size(), out);
      for (const Signature& sig : stage_stats.new_signatures)
        put_signature(sig, out);
      put_varint(stage_stats.per_signature.size(), out);
      for (const auto& [sig, sig_stats] : stage_stats.per_signature) {
        put_signature(sig, out);
        put_varint(sig_stats.n, out);
        put_varint(sig_stats.perf_outliers, out);
        put_varint(sig_stats.perf_applicable ? 1 : 0, out);
      }
    }
  }
}

bool AnomalyDetector::restore_state(std::span<const std::uint8_t> in) {
  // Decode into scratch structures first: a malformed tail must not leave
  // the detector half-mutated.
  std::uint64_t version = 0, next_window = 0, ingested = 0, num_windows = 0;
  if (!get_varint(in, version) || version != kDetectorStateVersion)
    return false;
  if (!get_varint(in, next_window)) return false;
  if (!get_varint(in, ingested)) return false;
  if (!get_varint(in, num_windows) || num_windows > 0x100000) return false;
  std::map<std::size_t, WindowStats> windows;
  for (std::uint64_t w = 0; w < num_windows; ++w) {
    std::uint64_t index = 0, num_keys = 0;
    if (!get_varint(in, index)) return false;
    auto [win_it, fresh] = windows.try_emplace(static_cast<std::size_t>(index));
    if (!fresh) return false;  // duplicate window index
    if (!get_varint(in, num_keys) || num_keys > 0x100000) return false;
    for (std::uint64_t k = 0; k < num_keys; ++k) {
      std::uint64_t host = 0, stage = 0, count = 0;
      if (!get_varint(in, host) || host > 0xFFFFFFFF) return false;
      if (!get_varint(in, stage) || stage > 0xFFFF) return false;
      StageWindowStats stage_stats;
      if (!get_varint(in, stage_stats.n)) return false;
      if (!get_varint(in, stage_stats.flow_outliers)) return false;
      if (!get_signature(in, stage_stats.example_flow_outlier)) return false;
      if (!get_varint(in, count) || count > 0x100000) return false;
      stage_stats.new_signatures.reserve(count);
      for (std::uint64_t s = 0; s < count; ++s) {
        Signature sig;
        if (!get_signature(in, sig)) return false;
        stage_stats.new_signatures.push_back(std::move(sig));
      }
      if (!get_varint(in, count) || count > 0x100000) return false;
      for (std::uint64_t s = 0; s < count; ++s) {
        Signature sig;
        if (!get_signature(in, sig)) return false;
        SigWindowStats sig_stats;
        std::uint64_t flags = 0;
        if (!get_varint(in, sig_stats.n)) return false;
        if (!get_varint(in, sig_stats.perf_outliers)) return false;
        if (!get_varint(in, flags) || flags > 1) return false;
        sig_stats.perf_applicable = flags != 0;
        if (!win_it->second[{static_cast<HostId>(host),
                             static_cast<StageId>(stage)}]
                 .per_signature.emplace(std::move(sig), sig_stats)
                 .second) {
          return false;  // duplicate signature
        }
      }
      auto& slot = win_it->second[{static_cast<HostId>(host),
                                   static_cast<StageId>(stage)}];
      slot.n = stage_stats.n;
      slot.flow_outliers = stage_stats.flow_outliers;
      slot.example_flow_outlier = std::move(stage_stats.example_flow_outlier);
      slot.new_signatures = std::move(stage_stats.new_signatures);
    }
  }
  if (!in.empty()) return false;

  open_windows_ = std::move(windows);
  next_window_to_close_ = static_cast<std::size_t>(next_window);
  ingested_ = ingested;
  return true;
}

std::vector<Anomaly> AnomalyDetector::close_window(std::size_t index,
                                                   WindowStats& stats) {
  std::vector<Anomaly> out;
  std::chrono::steady_clock::time_point close_begin;
  if constexpr (obs::kMetricsEnabled)
    close_begin = std::chrono::steady_clock::now();

  double alpha = config_.alpha;
  if (config_.bonferroni) {
    // Count the hypothesis tests this window will run: one flow test per
    // (host, stage) with outliers, one perf test per applicable signature
    // with outliers.
    std::size_t tests = 0;
    for (const auto& [key, stage_stats] : stats) {
      if (stage_stats.flow_outliers > 0) tests++;
      for (const auto& [sig, sig_stats] : stage_stats.per_signature) {
        if (sig_stats.perf_applicable && sig_stats.perf_outliers > 0) tests++;
      }
    }
    if (tests > 1) alpha /= static_cast<double>(tests);
  }

  for (auto& [key, stage_stats] : stats) {
    const auto [host, stage] = key;
    const StageModel* sm = model_->stage_model(stage);
    const double train_flow_rate = sm ? sm->train_flow_outlier_rate : 0.0;

    // ---- Flow anomaly ---------------------------------------------------
    Anomaly flow;
    flow.window = index;
    flow.window_start = static_cast<UsTime>(index) * config_.window;
    flow.host = host;
    flow.stage = stage;
    flow.kind = AnomalyKind::kFlow;
    flow.n = stage_stats.n;
    flow.outliers = stage_stats.flow_outliers;
    flow.proportion = stage_stats.n > 0
                          ? static_cast<double>(stage_stats.flow_outliers) /
                                static_cast<double>(stage_stats.n)
                          : 0.0;
    flow.train_proportion = train_flow_rate;
    flow.example_signature = stage_stats.example_flow_outlier;

    bool flow_anomalous = false;
    if (config_.new_signature_is_anomaly && !stage_stats.new_signatures.empty()) {
      flow_anomalous = true;
      flow.due_to_new_signature = true;
      flow.example_signature = stage_stats.new_signatures.front();
      flow.p_value = 0.0;  // condition (ii): categorical, not a test
    } else if (stage_stats.flow_outliers > 0) {
      const auto result = stats::proportion_above(
          stage_stats.flow_outliers, stage_stats.n, train_flow_rate, alpha,
          config_.test_kind, config_.min_n);
      flow.p_value = result.p_value;
      flow_anomalous = result.reject;
      if constexpr (obs::kMetricsEnabled) {
        auto& metrics = DetectorMetrics::get();
        metrics.tests_run.inc();
        if (result.reject) metrics.tests_rejected.inc();
      }
    }
    if (flow_anomalous) out.push_back(flow);

    // ---- Performance anomaly ---------------------------------------------
    // Tested per signature; the stage is anomalous if any signature rejects.
    bool perf_anomalous = false;
    Anomaly perf;
    perf.window = index;
    perf.window_start = flow.window_start;
    perf.host = host;
    perf.stage = stage;
    perf.kind = AnomalyKind::kPerformance;
    perf.p_value = 1.0;
    if (sm != nullptr) {
      for (const auto& [sig, sig_stats] : stage_stats.per_signature) {
        if (!sig_stats.perf_applicable || sig_stats.perf_outliers == 0)
          continue;
        const auto trained = sm->signatures.find(sig);
        if (trained == sm->signatures.end()) continue;
        const auto result = stats::proportion_above(
            sig_stats.perf_outliers, sig_stats.n,
            trained->second.train_perf_outlier_rate, alpha,
            config_.test_kind, config_.min_n);
        if constexpr (obs::kMetricsEnabled) {
          auto& metrics = DetectorMetrics::get();
          metrics.tests_run.inc();
          if (result.reject) metrics.tests_rejected.inc();
        }
        if (result.reject && result.p_value <= perf.p_value) {
          perf_anomalous = true;
          perf.p_value = result.p_value;
          perf.n = sig_stats.n;
          perf.outliers = sig_stats.perf_outliers;
          perf.proportion = static_cast<double>(sig_stats.perf_outliers) /
                            static_cast<double>(sig_stats.n);
          perf.train_proportion = trained->second.train_perf_outlier_rate;
          perf.example_signature = sig;
        }
      }
    }
    if (perf_anomalous) out.push_back(perf);
  }

  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = DetectorMetrics::get();
    metrics.windows_closed.inc();
    metrics.window_close_us.observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - close_begin)
            .count());
    for (const auto& anomaly : out) {
      (anomaly.kind == AnomalyKind::kFlow ? metrics.flow_anomalies
                                          : metrics.perf_anomalies)
          .inc();
    }
  }
  if (!out.empty()) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kWindowClose, "window %zu closed: %zu anomalies over %zu (host, stage) keys",
        index, out.size(), stats.size());
  }
  return out;
}

}  // namespace saad::core
