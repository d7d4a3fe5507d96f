// Distribution-drift detection over the decision stream (pillar 1).
//
// Per-input supervisors catch individually anomalous inputs; *drift*
// detectors catch the slow failure mode certification worries about most:
// the environment gradually leaving the qualified domain while every
// single input still looks plausible. Two standard detectors:
//   - CUSUM on the supervisor-score stream (fast reaction to mean shifts);
//   - windowed two-sample Kolmogorov-Smirnov against the calibration
//     score distribution (distribution-shape changes).
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace sx::supervise {

/// One-sided CUSUM: alarms when the cumulative excess of observations over
/// (reference mean + slack) crosses the decision threshold.
class CusumDetector {
 public:
  /// `reference_mean` and `reference_std` describe in-distribution scores;
  /// slack and threshold are in units of reference_std.
  CusumDetector(double reference_mean, double reference_std,
                double slack = 0.5, double threshold = 8.0);

  /// Fits the reference from calibration scores.
  static CusumDetector fit(std::span<const double> calibration_scores,
                           double slack = 0.5, double threshold = 8.0);

  /// Feeds one observation; returns true if the alarm fired (sticky until
  /// reset()).
  bool update(double score) noexcept;

  bool alarmed() const noexcept { return alarmed_; }
  double statistic() const noexcept { return s_; }
  double reference_mean() const noexcept { return mean_; }
  double reference_std() const noexcept { return std_; }
  void reset() noexcept {
    s_ = 0.0;
    alarmed_ = false;
  }

 private:
  double mean_;
  double std_;
  double slack_;
  double threshold_;
  double s_ = 0.0;
  bool alarmed_ = false;
};

/// Sliding-window KS test against a stored calibration sample.
class WindowedKsDetector {
 public:
  /// `window` recent scores are compared against `calibration_scores`;
  /// alarm when the KS statistic exceeds the 1% critical value.
  WindowedKsDetector(std::vector<double> calibration_scores,
                     std::size_t window = 50);

  bool update(double score);

  bool alarmed() const noexcept { return alarmed_; }
  double last_statistic() const noexcept { return last_ks_; }
  double critical_value() const noexcept { return critical_; }
  void reset() noexcept {
    recent_.clear();
    alarmed_ = false;
    last_ks_ = 0.0;
  }

 private:
  std::vector<double> calibration_;  // sorted
  std::size_t window_;
  double critical_;
  std::deque<double> recent_;
  double last_ks_ = 0.0;
  bool alarmed_ = false;
};

}  // namespace sx::supervise
