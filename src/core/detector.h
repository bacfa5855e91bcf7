// Windowed anomaly detector (paper §3.3.3): periodically applies statistical
// tests to the synopsis stream.
//
// Per window, per (host, stage):
//  * FLOW anomaly when a never-seen signature appears, or a one-sided
//    proportion t-test (alpha = 0.001) rejects "flow-outlier proportion <=
//    training proportion";
//  * PERFORMANCE anomaly when, for any signature of the stage with a valid
//    duration threshold, the same test rejects "performance-outlier
//    proportion <= that signature's training proportion".
//
// Anomalies are keyed (window, host, stage, kind) — exactly the marks on the
// paper's Fig. 9/10 timelines.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/model.h"
#include "stats/tests.h"

namespace saad::core {

struct DetectorConfig {
  UsTime window = kUsPerMin;  // detection period
  double alpha = stats::kDefaultAlpha;
  stats::ProportionTestKind test_kind = stats::ProportionTestKind::kTTest;
  /// Minimum tasks for a proportion test in a window (below: exact binomial).
  std::uint64_t min_n = 20;
  /// When true, a single never-seen signature immediately raises a flow
  /// anomaly (the paper's condition ii).
  bool new_signature_is_anomaly = true;
  /// Extension (not in the paper): Bonferroni-correct alpha by the number
  /// of hypothesis tests run in the window. The paper tests every
  /// (host, stage) and every (host, stage, signature) each period at a flat
  /// alpha = 0.001; with hundreds of simultaneous tests that compounds —
  /// the correction trades a little sensitivity for a familywise error
  /// bound. See the `ablation_tests` bench.
  bool bonferroni = false;
};

enum class AnomalyKind : std::uint8_t { kFlow, kPerformance };

struct Anomaly {
  std::size_t window = 0;  // index: [window * config.window, +config.window)
  UsTime window_start = 0;
  HostId host = 0;
  StageId stage = kInvalidStage;
  AnomalyKind kind = AnomalyKind::kFlow;
  bool due_to_new_signature = false;  // flow anomalies only
  double p_value = 1.0;
  double proportion = 0.0;        // observed outlier proportion in the window
  double train_proportion = 0.0;  // training baseline it was tested against
  std::uint64_t n = 0;            // tasks considered
  std::uint64_t outliers = 0;     // outlier tasks among them
  Signature example_signature;    // a representative outlier/new signature
};

class AnomalyDetector {
 public:
  AnomalyDetector(const OutlierModel* model, DetectorConfig config = {});

  /// Buckets the synopsis into its window (by task start time). Synopses may
  /// arrive out of order within open windows.
  void ingest(const Synopsis& synopsis);

  /// Closes every window that ends at or before `now` and appends its
  /// anomalies to the internal result. Returns the newly produced anomalies.
  std::vector<Anomaly> advance_to(UsTime now);

  /// Closes all remaining windows.
  std::vector<Anomaly> finish();

  const DetectorConfig& config() const { return config_; }
  std::uint64_t ingested() const { return ingested_; }
  /// Index of the oldest window a future synopsis can still land in. Right
  /// after restore_state() it is the restored close cursor.
  std::size_t next_window_to_close() const { return next_window_to_close_; }

  // ---- Warm-restart state (checkpoint.h) -----------------------------------
  // The detector's only mutable state is the open-window tallies plus the
  // close cursor; both serialize to a canonical byte string (std::map
  // iteration order), so save -> restore -> save round-trips bit-identically
  // and two detectors with equal state encode equal bytes.

  /// Appends every open window's per-(host, stage) and per-signature tallies,
  /// the close cursor, and the ingest count to `out`.
  void save_state(std::vector<std::uint8_t>& out) const;

  /// Replaces the detector's state with state produced by save_state().
  /// False on malformed input, leaving the detector unchanged. The model is
  /// not part of the state: the caller restores it first and constructs the
  /// detector over it.
  bool restore_state(std::span<const std::uint8_t> in);

  /// Points classification at a new model and bumps model_epoch(). Call it
  /// at a window boundary, right after advance_to()/finish(): open windows
  /// were classified at ingest time under the old model and close with
  /// those tallies; only synopses ingested after the rebind see the new
  /// model. `model` must outlive the detector or the next rebind.
  void rebind_model(const OutlierModel* model);

  /// Model swaps applied by rebind_model() (construction model = epoch 0).
  std::uint64_t model_epoch() const { return model_epoch_; }

 private:
  struct SigWindowStats {
    std::uint64_t n = 0;
    std::uint64_t perf_outliers = 0;
    bool perf_applicable = false;
  };
  struct StageWindowStats {
    std::uint64_t n = 0;
    std::uint64_t flow_outliers = 0;
    std::vector<Signature> new_signatures;  // distinct, first-seen order
    std::map<Signature, SigWindowStats> per_signature;
    Signature example_flow_outlier;
  };
  // (host, stage) -> stats, inside one window.
  using WindowStats = std::map<std::pair<HostId, StageId>, StageWindowStats>;

  std::vector<Anomaly> close_window(std::size_t index, WindowStats& stats);

  const OutlierModel* model_;
  DetectorConfig config_;
  std::map<std::size_t, WindowStats> open_windows_;
  std::size_t next_window_to_close_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t model_epoch_ = 0;
};

}  // namespace saad::core
