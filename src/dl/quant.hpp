// Post-training static int8 quantization (pillar 3).
//
// Symmetric int8 quantization with int32 accumulation:
//   - weights: per-tensor or per-output-channel scales (experiment E2
//     contrasts the two granularities);
//   - activations: per-layer scales from the abs-max of every activation
//     over a representative dataset, taken by the planned float engine's
//     observing pass (calibrate_ranges, StaticEngine::run_observed) at the
//     deployment's kernel mode, so the ranges come from the code that
//     serves and are bitwise the reference walk's on every arm;
//   - inference: int8 ping-pong buffers, noexcept, allocation-free after
//     construction — the same FUSA discipline as StaticEngine.
//
// BatchNorm layers must be folded into the preceding Conv2d/Dense first
// (fold_batchnorm), mirroring standard deployment practice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "dl/plan.hpp"

namespace sx::dl {

enum class WeightGranularity : std::uint8_t { kPerTensor, kPerChannel };

const char* to_string(WeightGranularity g) noexcept;

struct QuantConfig {
  WeightGranularity granularity = WeightGranularity::kPerChannel;
};

/// The largest |v| of every activation of `model` over `calibration`,
/// indexed like Model::forward_trace: [0] the input, [i + 1] the output of
/// layer i. One StaticEngine at `kernels`, its numeric-fault screen off as
/// forward_trace has none, runs every sample through its observing pass
/// (StaticEngine::run_observed) and allocates nothing per sample; on every
/// arm the result is bitwise what forward_trace gives. Throws
/// std::invalid_argument on an empty set or a sample that does not fit
/// the model's input.
std::vector<float> calibrate_ranges(const Model& model,
                                    const Dataset& calibration,
                                    KernelMode kernels);

/// Returns a copy of `model` with every BatchNorm folded into the directly
/// preceding Conv2d or Dense layer. Throws if a BatchNorm has no foldable
/// predecessor.
Model fold_batchnorm(const Model& model);

/// A fully quantized sequential model.
class QuantizedModel {
 public:
  /// Quantizes `model` with activation scales from `ranges`, as
  /// calibrate_ranges returns them (layer_count() + 1 entries). The model
  /// must contain only Dense/Conv2d/Relu/MaxPool/AvgPool/Flatten layers;
  /// any other kind, or a ranges size mismatch, throws
  /// std::invalid_argument before anything is built.
  static QuantizedModel quantize(const Model& model,
                                 std::span<const float> ranges,
                                 QuantConfig cfg = {});

  /// quantize(model, calibrate_ranges(model, calibration, kAuto), cfg),
  /// refusing an unsupported model before it runs any sample. For tests
  /// and benches; a deployment calibrates at its own kernel mode.
  static QuantizedModel quantize(const Model& model,
                                 const Dataset& calibration,
                                 QuantConfig cfg = {});

  /// Int8 inference; output is dequantized float logits. No allocation,
  /// no exceptions: every operational failure (shape mismatch, unfitted
  /// model) is a returned Status. Per-layer requantization clips are
  /// counted into saturation_counts().
  Status run(tensor::ConstTensorView input,
             std::span<float> output) noexcept;

  const Shape& input_shape() const noexcept { return input_shape_; }
  const Shape& output_shape() const noexcept { return shapes_.back(); }

  /// Bytes of weight storage (for the footprint column of E2).
  std::size_t weight_bytes() const noexcept;

  /// Classification accuracy (argmax over dequantized logits).
  double evaluate_accuracy(const Dataset& ds);

  WeightGranularity granularity() const noexcept { return cfg_.granularity; }

  /// Number of quantized layers; indices align with the (folded) float
  /// model the quantization was produced from.
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Calibrated activation scale after layer i; scale * 127 is the largest
  /// magnitude int8 can represent there. Exposed so the static verifier can
  /// compare against abstract-interpretation activation bounds.
  float activation_scale(std::size_t i) const { return layers_.at(i).out_scale; }
  float input_scale() const noexcept { return input_scale_; }

  /// Shape after layer i (configuration-time API; throws on a bad index).
  const Shape& activation_shape(std::size_t i) const { return shapes_.at(i); }

  /// Read-only view of one quantized layer's parameters and geometry —
  /// what dl::QuantKernelPlan lowers into planned kernels. Spans alias the
  /// model's live storage and stay valid for the model's lifetime.
  struct QLayerView {
    LayerKind kind{};
    std::span<const std::int8_t> weights;
    std::span<const float> w_scales;  ///< per output channel, or one entry
    std::span<const float> bias;
    std::size_t in_c = 0, out_c = 0, k = 0, stride = 0, pad = 0;  // conv
    std::size_t in_dim = 0, out_dim = 0;                          // dense
    std::size_t window = 0;                                       // pooling
    float out_scale = 1.0f;
  };
  /// Configuration-time API; throws on a bad index.
  QLayerView layer_view(std::size_t i) const;

  /// Mutable view of layer i's int8 weights — the deployed parameter
  /// memory a fault-injection campaign perturbs (empty for layers without
  /// parameters). Campaign/configuration-time API; throws on a bad index.
  /// Mutating weights under a QuantKernelPlan requires repack()
  /// afterwards so panel snapshots see the new bits.
  std::span<std::int8_t> mutable_weights(std::size_t i) {
    return layers_.at(i).weights;
  }

  /// Runs one layer standalone: `in`/`out` must be sized to the layer's
  /// input/output shapes. Used by the planned engine's reference steps
  /// (pooling layers). noexcept, allocation-free; requantization clips are
  /// counted into `*sat` when non-null.
  Status apply_layer(std::size_t i, std::span<const std::int8_t> in,
                     std::span<std::int8_t> out,
                     std::uint64_t* sat) const noexcept;

  /// Cumulative requantization clips per layer across every run() —
  /// deterministic (input-dependent only), cross-checked against
  /// verify::check_quant_saturation's static margins.
  std::span<const std::uint64_t> saturation_counts() const noexcept {
    return sat_counts_;
  }
  std::uint64_t saturation_total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t c : sat_counts_) n += c;
    return n;
  }

  /// Channels whose float bias is not representable in the int32
  /// accumulator at scale w_scale * in_scale (audited with
  /// quantize_bias_i32 at quantize() time). The runtime epilogue keeps
  /// bias in float, so a non-zero count is *evidence* for integer-only
  /// targets, not a value error here.
  std::uint64_t bias_saturation_count() const noexcept {
    return bias_saturations_;
  }

 private:
  struct QLayer {
    LayerKind kind{};
    // Dense / Conv2d payload.
    std::vector<std::int8_t> weights;
    std::vector<float> w_scales;  // one per output channel, or a single entry
    std::vector<float> bias;
    std::size_t in_c = 0, out_c = 0, k = 0, stride = 0, pad = 0;  // conv
    std::size_t in_dim = 0, out_dim = 0;                          // dense
    std::size_t window = 0;                                       // pooling
    float out_scale = 1.0f;  // activation scale after this layer
  };

  QuantizedModel() = default;

  Status run_layer(const QLayer& l, const Shape& in_shape,
                   std::span<const std::int8_t> in, float in_scale,
                   const Shape& out_shape, std::span<std::int8_t> out,
                   std::uint64_t* sat) const noexcept;

  Shape input_shape_{};
  float input_scale_ = 1.0f;
  std::vector<QLayer> layers_;
  std::vector<Shape> shapes_;  // shape after each layer
  QuantConfig cfg_{};
  // Ping-pong int8 activation buffers (sized at quantize() time).
  std::vector<std::int8_t> ping_;
  std::vector<std::int8_t> pong_;
  // Cumulative requantization clips per layer (sized at quantize() time).
  std::vector<std::uint64_t> sat_counts_;
  std::uint64_t bias_saturations_ = 0;
};

/// Quantizes a single float to int8 with the given scale. Clamps in float
/// before the integer conversion — casting a float past the int range is
/// UB — with thresholds that preserve the unguarded expression's value for
/// every input it handled (see tensor::qkernels::quantize_sat, which must
/// stay value-identical to this).
inline std::int8_t quantize_value(float v, float scale) noexcept {
  const float q = v / scale;
  const float r = q >= 0.0f ? q + 0.5f : q - 0.5f;  // round half away
  if (!(r < 128.0f)) return std::int8_t{127};  // r >= 128, or NaN
  if (r <= -128.0f) return std::int8_t{-127};
  return static_cast<std::int8_t>(static_cast<int>(r));
}

/// out[i] = quantize_value(in[i], scale) for i < n, four lanes at a time
/// on generic vectors: the same IEEE division (a packed divide rounds
/// exactly like the scalar one), the same round-half-away rule, the same
/// `!(r < 128)` clip to +127 (which catches NaN) and -127 floor, so every
/// byte equals the scalar function's. The last n % 4 run it directly.
void quantize_span(const float* in, std::size_t n, float scale,
                   std::int8_t* out) noexcept;

/// Quantizes a float bias to the int32 accumulator scale w_scale *
/// in_scale, the representation an integer-only requantizer would need.
/// Deterministic rule: widen through double (so the quotient itself cannot
/// overflow), round half away from zero — the same rule quantize_value
/// uses — then clamp to the int32 range; a degenerate scale (<= 0) or
/// non-finite bias deterministically maps to 0. `*saturated` (when
/// non-null) reports whether clamping or the degenerate rule fired: such a
/// channel's bias is NOT representable at this scale, which is why the
/// runtime epilogue keeps bias in float (see QuantizedModel::run_layer)
/// and why quantize() records the count as deployment evidence.
std::int32_t quantize_bias_i32(float bias, float w_scale, float in_scale,
                               bool* saturated = nullptr) noexcept;

}  // namespace sx::dl
