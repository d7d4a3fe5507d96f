// One planned, allocation-free trust score per decision (pillar 1).
//
// A TapScorer is the deploy-time scoring object behind every runtime
// Mahalanobis verdict: the safety bag scores through it inside the channel,
// and the pipeline's supervisor stage reuses that score or, when the bag
// took none, scores through the same object. It owns a StaticEngine over
// the deployed model whose plan pins the supervisor's feature layer, the
// engine's feature and logit buffers, and the per-class solve scratch, all
// sized here, at deploy time. score() runs the engine once, taps the
// feature layer and solves in place: bitwise identical to
// MahalanobisSupervisor::score (the reference model walk) and free of heap
// allocation.
#pragma once

#include <vector>

#include "dl/engine.hpp"
#include "obs/registry.hpp"
#include "supervise/supervisor.hpp"
#include "util/status.hpp"

namespace sx::supervise {

class TapScorer {
 public:
  /// `model` and `supervisor` must outlive the scorer. The supervisor must
  /// be fitted on `model` and threshold-calibrated (std::invalid_argument
  /// otherwise). A feature layer the planned engine cannot tap throws
  /// std::logic_error. Fault policing stays off, matching the reference
  /// walk, which does not screen activations either.
  TapScorer(const dl::Model& model, const MahalanobisSupervisor& supervisor,
            dl::KernelMode kernels = dl::KernelMode::kAuto);

  /// Scores `input`. `score` is written only on kOk; a failed tap (e.g. a
  /// wrong-shaped input) returns the engine's status.
  Status score(tensor::ConstTensorView input, double& score) noexcept;

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
  dl::StaticEngine engine_;
  std::vector<float> feat_;
  std::vector<float> logits_;
  std::vector<double> scratch_;  // one feature-width solve, reused per class
  obs::Registry* obs_ = nullptr;
  obs::CounterId rejections_id_{};
};

}  // namespace sx::supervise
