// One allocation-free trust score per decision (pillar 1).
//
// A TapScorer is the deploy-time scoring object behind every runtime
// Mahalanobis verdict. It runs no model: the channel's own engine run taps
// the supervisor's feature layer (safety::InferenceChannel::infer's tap),
// so each decision runs the model once per replica and scoring is the
// solve alone. The safety bag scores through it inside the channel and
// the pipeline reuses that score; without a bag the pipeline scores the
// channel's tap itself. A scorer's solve scratch is its own, so every
// channel a batch worker runs gets its own scorer. It holds the
// fitted supervisor (threshold included), the rejection counter binding
// and a per-class solve scratch sized at deploy time, so score() is
// bitwise MahalanobisSupervisor::score_from_features and free of heap
// allocation.
#pragma once

#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "supervise/supervisor.hpp"

namespace sx::supervise {

class TapScorer {
 public:
  /// `supervisor` must outlive the scorer, be fitted and be
  /// threshold-calibrated (std::invalid_argument otherwise).
  explicit TapScorer(const MahalanobisSupervisor& supervisor);

  /// Width of the features score() reads.
  std::size_t feature_dim() const noexcept { return scratch_.size(); }

  /// Scores features tapped at the supervisor's feature layer. A span of
  /// the wrong width scores +infinity, which accept() never passes.
  double score(std::span<const float> features) noexcept;

  /// Threshold verdict on a score from score(): true when it is at most
  /// the calibrated threshold. A rejection increments the bound counter.
  bool accept(double score) noexcept;

  /// Binds the rejection counter (configuration time): every accept()
  /// returning false also increments `rejections` in `registry`.
  void bind_telemetry(obs::Registry* registry,
                      obs::CounterId rejections) noexcept {
    obs_ = registry;
    rejections_id_ = rejections;
  }

 private:
  const MahalanobisSupervisor* sup_;
  std::vector<double> scratch_;  // one feature-width solve, reused per class
  obs::Registry* obs_ = nullptr;
  obs::CounterId rejections_id_{};
};

}  // namespace sx::supervise
