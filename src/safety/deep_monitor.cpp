#include "safety/deep_monitor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sx::safety {

DeepMonitoredChannel::DeepMonitoredChannel(const dl::Model& model,
                                           const dl::Dataset& calibration,
                                           float margin)
    : replica_(model,
               dl::StaticEngineConfig{.kernels = dl::KernelMode::kReference}),
      model_(&replica_.model()) {
  if (calibration.samples.empty())
    throw std::invalid_argument("DeepMonitoredChannel: empty calibration");
  if (margin < 0.0f)
    throw std::invalid_argument("DeepMonitoredChannel: negative margin");

  envelopes_.assign(model_->layer_count(),
                    LayerEnvelope{std::numeric_limits<float>::max(),
                                  std::numeric_limits<float>::lowest()});
  for (const auto& s : calibration.samples) {
    const auto acts = model_->forward_trace(s.input);
    for (std::size_t i = 0; i < model_->layer_count(); ++i) {
      for (const float v : acts[i + 1].data()) {
        envelopes_[i].lo = std::min(envelopes_[i].lo, v);
        envelopes_[i].hi = std::max(envelopes_[i].hi, v);
      }
    }
  }
  for (auto& e : envelopes_) {
    const float width = e.hi - e.lo;
    e.lo -= margin * width;
    e.hi += margin * width;
  }

  ping_.assign(model_->max_activation_size(), 0.0f);
  pong_.assign(model_->max_activation_size(), 0.0f);
  violation_at_ = model_->layer_count();
}

Status DeepMonitoredChannel::infer_impl(tensor::ConstTensorView in,
                                        std::span<float> out,
                                        std::span<float> tap) noexcept {
  violation_at_ = model_->layer_count();
  if (in.shape != model_->input_shape() || !in.valid() ||
      out.size() != model_->output_shape().size() ||
      (!tap.empty() && tap.size() != replica_.tap_size()))
    return Status::kShapeMismatch;

  tensor::ConstTensorView cur = in;
  bool use_ping = true;
  for (std::size_t i = 0; i < model_->layer_count(); ++i) {
    if (i == replica_.tap_layer())
      for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = cur.data[j];
    const tensor::Shape& shape = model_->activation_shape(i);
    auto& dst = use_ping ? ping_ : pong_;
    tensor::TensorView next{std::span<float>(dst.data(), shape.size()),
                            shape};
    const Status st = model_->layer(i).forward(cur, next);
    if (!ok(st)) return st;
    // Envelope check: every element of this activation must lie inside the
    // fitted range (NaN fails every comparison and is caught here too).
    for (const float v : next.data) {
      if (!(v >= envelopes_[i].lo && v <= envelopes_[i].hi)) {
        violation_at_ = i;
        ++violations_;
        return Status::kNumericFault;
      }
    }
    cur = next;
    use_ping = !use_ping;
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cur.data[i];
  return Status::kOk;
}

}  // namespace sx::safety
