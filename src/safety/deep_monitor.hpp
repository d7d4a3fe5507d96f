// Deep activation monitoring (pillar 2 meets pillar 1).
//
// Instead of checking only the final output, this channel learns per-layer
// activation envelopes (min/max per layer, widened by a margin) from
// calibration data and verifies *every intermediate activation* during
// inference. Faults that corrupt internal state — weight upsets, numeric
// blow-ups, far-off-distribution inputs — surface at the first layer whose
// envelope breaks, giving fault *localization* for free.
#pragma once

#include <vector>

#include "dl/dataset.hpp"
#include "safety/channel.hpp"

namespace sx::safety {

struct LayerEnvelope {
  float lo = 0.0f;
  float hi = 0.0f;
};

class DeepMonitoredChannel final : public InferenceChannel {
 public:
  /// Fits per-layer envelopes on `calibration` with relative `margin`.
  DeepMonitoredChannel(const dl::Model& model, const dl::Dataset& calibration,
                       float margin = 0.5f);

  std::string_view pattern_name() const noexcept override {
    return "deep-monitored";
  }
  std::size_t output_size() const noexcept override {
    return replica_.output_size();
  }
  /// The monitored model. Inference walks its layers directly (every
  /// activation is checked), so the replica's engine runs the reference
  /// loops, which read the weights live: no refresh is needed.
  std::span<Replica> replicas() noexcept override { return {&replica_, 1}; }

  const std::vector<LayerEnvelope>& envelopes() const noexcept {
    return envelopes_;
  }
  /// Layer index at which the previous rejection fired (layer_count() if
  /// the last inference passed).
  std::size_t last_violation_layer() const noexcept { return violation_at_; }
  std::uint64_t violations() const noexcept { return violations_; }

 private:
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  Replica replica_;
  const dl::Model* model_;  // the replica's model
  std::vector<LayerEnvelope> envelopes_;
  std::vector<float> ping_;
  std::vector<float> pong_;
  std::size_t violation_at_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace sx::safety
