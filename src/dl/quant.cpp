#include "dl/quant.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "dl/engine.hpp"
#include "tensor/qkernels.hpp"

namespace sx::dl {
namespace {

/// scale such that absmax maps to 127; floor to avoid zero scales.
float scale_for(float amax) noexcept {
  return amax > 1e-12f ? amax / 127.0f : 1.0f / 127.0f;
}

void quantize_block(std::span<const float> src, float scale,
                    std::span<std::int8_t> dst) noexcept {
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = quantize_value(src[i], scale);
}

/// Throws for the first layer whose kind the int8 engine cannot run.
void require_int8_layers(const Model& model) {
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    switch (model.layer(i).kind()) {
      case LayerKind::kDense:
      case LayerKind::kConv2d:
      case LayerKind::kRelu:
      case LayerKind::kFlatten:
      case LayerKind::kMaxPool2d:
      case LayerKind::kAvgPool2d:
        break;
      case LayerKind::kBatchNorm:
        throw std::invalid_argument(
            "quantize: fold BatchNorm first (fold_batchnorm)");
      case LayerKind::kSoftmax:
        throw std::invalid_argument(
            "quantize: quantized models end at logits; drop Softmax");
      case LayerKind::kSigmoid:
      case LayerKind::kTanh:
        throw std::invalid_argument(
            "quantize: saturating activations are not int8-supported; use "
            "ReLU in deployed models");
    }
  }
}

}  // namespace

std::vector<float> calibrate_ranges(const Model& model,
                                    const Dataset& calibration,
                                    KernelMode kernels) {
  if (calibration.samples.empty())
    throw std::invalid_argument("calibrate_ranges: empty calibration set");
  StaticEngine engine(model,
                      {.check_numeric_faults = false, .kernels = kernels});
  std::vector<float> amax(model.layer_count() + 1, 0.0f);
  std::vector<float> logits(model.output_shape().size());
  for (const Sample& s : calibration.samples)
    if (!ok(engine.run_observed(s.input.view(), logits, amax)))
      throw std::invalid_argument(
          "calibrate_ranges: a sample does not fit the model input");
  return amax;
}

const char* to_string(WeightGranularity g) noexcept {
  return g == WeightGranularity::kPerTensor ? "per-tensor" : "per-channel";
}

void quantize_span(const float* in, std::size_t n, float scale,
                   std::int8_t* out) noexcept {
  typedef float v4sf __attribute__((vector_size(16)));
  typedef std::int32_t v4si __attribute__((vector_size(16)));
  typedef std::int8_t v4qi __attribute__((vector_size(4)));
  const v4sf vscale = {scale, scale, scale, scale}, zero = {};
  const v4sf half = zero + 0.5f, hi = zero + 128.0f, lo = zero - 128.0f;
  const v4sf pos = zero + 127.0f, neg = zero - 127.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4sf v;
    __builtin_memcpy(&v, in + i, sizeof v);
    const v4sf q = v / vscale;
    const v4sf r = q >= zero ? q + half : q - half;
    // The clips happen in float, so only values inside the int8 range
    // reach the truncating conversion.
    const v4sf c = r < hi ? (r > lo ? r : neg) : pos;
    const v4qi b =
        __builtin_convertvector(__builtin_convertvector(c, v4si), v4qi);
    __builtin_memcpy(out + i, &b, sizeof b);
  }
  for (; i < n; ++i) out[i] = quantize_value(in[i], scale);
}

std::int32_t quantize_bias_i32(float bias, float w_scale, float in_scale,
                               bool* saturated) noexcept {
  if (saturated != nullptr) *saturated = false;
  // Widen the scale product through double: w_scale * in_scale can
  // underflow float for small per-channel scales, which would turn the
  // quotient into Inf and the int conversion below into UB.
  const double scale =
      static_cast<double>(w_scale) * static_cast<double>(in_scale);
  if (!(scale > 0.0) || !std::isfinite(bias)) {
    if (saturated != nullptr) *saturated = true;
    return 0;
  }
  const double q = static_cast<double>(bias) / scale;
  const double r = q >= 0.0 ? q + 0.5 : q - 0.5;  // round half away
  // Clamp bounds expressed exactly in double (int32 limits are exact).
  constexpr double kLo = -2147483648.0;
  constexpr double kHi = 2147483647.0;
  if (r > kHi) {
    if (saturated != nullptr) *saturated = true;
    return std::numeric_limits<std::int32_t>::max();
  }
  if (r < kLo) {
    if (saturated != nullptr) *saturated = true;
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(r);
}

Model fold_batchnorm(const Model& model) {
  std::vector<std::unique_ptr<Layer>> layers;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& l = model.layer(i);
    if (l.kind() != LayerKind::kBatchNorm) {
      layers.push_back(l.clone());  // sxlint: allow(hot-path-alloc) deploy-time fold
      continue;
    }
    const auto& bn = static_cast<const BatchNorm&>(l);
    if (layers.empty())
      throw std::invalid_argument("fold_batchnorm: BatchNorm with no predecessor");
    Layer& prev = *layers.back();
    const std::size_t c = bn.channels();
    const auto gamma = bn.params().first(c);
    const auto beta = bn.params().subspan(c);
    const auto mean = bn.running_mean();
    const auto var = bn.running_var();
    std::vector<float> a(c), b(c);
    for (std::size_t ch = 0; ch < c; ++ch) {
      a[ch] = gamma[ch] / std::sqrt(var[ch] + bn.epsilon());
      b[ch] = beta[ch] - mean[ch] * a[ch];
    }
    if (auto* conv = dynamic_cast<Conv2d*>(&prev)) {
      if (conv->out_channels() != c)
        throw std::invalid_argument("fold_batchnorm: channel mismatch");
      auto params = conv->params();
      const std::size_t per_oc =
          conv->in_channels() * conv->kernel() * conv->kernel();
      float* w = params.data();
      float* bias = params.data() + c * per_oc;
      for (std::size_t oc = 0; oc < c; ++oc) {
        for (std::size_t j = 0; j < per_oc; ++j) w[oc * per_oc + j] *= a[oc];
        bias[oc] = a[oc] * bias[oc] + b[oc];
      }
    } else if (auto* dense = dynamic_cast<Dense*>(&prev)) {
      if (c != 1)
        throw std::invalid_argument(
            "fold_batchnorm: vector BatchNorm must have 1 channel");
      auto w = dense->weights();
      auto bias = dense->bias();
      for (auto& v : w) v *= a[0];
      for (auto& v : bias) v = a[0] * v + b[0];
    } else {
      throw std::invalid_argument(
          "fold_batchnorm: predecessor is not Conv2d or Dense");
    }
  }
  return Model(model.input_shape(), std::move(layers));
}

QuantizedModel QuantizedModel::quantize(const Model& model,
                                        const Dataset& calibration,
                                        QuantConfig cfg) {
  require_int8_layers(model);
  return QuantizedModel::quantize(
      model, calibrate_ranges(model, calibration, KernelMode::kAuto), cfg);
}

QuantizedModel QuantizedModel::quantize(const Model& model,
                                        std::span<const float> ranges,
                                        QuantConfig cfg) {
  require_int8_layers(model);
  if (ranges.size() != model.layer_count() + 1)
    throw std::invalid_argument(
        "quantize: ranges must hold layer_count() + 1 entries");

  QuantizedModel qm;
  qm.cfg_ = cfg;
  qm.input_shape_ = model.input_shape();
  qm.input_scale_ = scale_for(ranges[0]);

  float prev_scale = qm.input_scale_;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& l = model.layer(i);
    QLayer q;
    q.kind = l.kind();
    switch (l.kind()) {
      case LayerKind::kDense: {
        const auto& d = static_cast<const Dense&>(l);
        q.in_dim = d.in_dim();
        q.out_dim = d.out_dim();
        const auto w = d.weights();
        q.weights.resize(w.size());  // sxlint: allow(hot-path-alloc) quantize-time
        q.bias.assign(  // sxlint: allow(hot-path-alloc) quantize-time
            d.bias().begin(), d.bias().end());
        if (cfg.granularity == WeightGranularity::kPerChannel) {
          q.w_scales.resize(q.out_dim);  // sxlint: allow(hot-path-alloc) quantize-time
          for (std::size_t r = 0; r < q.out_dim; ++r) {
            const auto row = w.subspan(r * q.in_dim, q.in_dim);
            q.w_scales[r] = scale_for(tensor::fold_abs_max(0.0f, row));
            quantize_block(row, q.w_scales[r],
                           std::span<std::int8_t>(q.weights)
                               .subspan(r * q.in_dim, q.in_dim));
          }
        } else {
          q.w_scales = {scale_for(tensor::fold_abs_max(0.0f, w))};
          quantize_block(w, q.w_scales[0], q.weights);
        }
        q.out_scale = scale_for(ranges[i + 1]);
        break;
      }
      case LayerKind::kConv2d: {
        const auto& c = static_cast<const Conv2d&>(l);
        q.in_c = c.in_channels();
        q.out_c = c.out_channels();
        q.k = c.kernel();
        q.stride = c.stride();
        q.pad = c.padding();
        const auto w = c.weights();
        const std::size_t per_oc = q.in_c * q.k * q.k;
        q.weights.resize(w.size());  // sxlint: allow(hot-path-alloc) quantize-time
        q.bias.assign(  // sxlint: allow(hot-path-alloc) quantize-time
            c.bias().begin(), c.bias().end());
        if (cfg.granularity == WeightGranularity::kPerChannel) {
          q.w_scales.resize(q.out_c);  // sxlint: allow(hot-path-alloc) quantize-time
          for (std::size_t oc = 0; oc < q.out_c; ++oc) {
            const auto blk = w.subspan(oc * per_oc, per_oc);
            q.w_scales[oc] = scale_for(tensor::fold_abs_max(0.0f, blk));
            quantize_block(blk, q.w_scales[oc],
                           std::span<std::int8_t>(q.weights)
                               .subspan(oc * per_oc, per_oc));
          }
        } else {
          q.w_scales = {scale_for(tensor::fold_abs_max(0.0f, w))};
          quantize_block(w, q.w_scales[0], q.weights);
        }
        q.out_scale = scale_for(ranges[i + 1]);
        break;
      }
      case LayerKind::kRelu:
      case LayerKind::kFlatten:
        q.out_scale = prev_scale;
        break;
      case LayerKind::kMaxPool2d:
        q.window = static_cast<const MaxPool2d&>(l).window();
        q.out_scale = prev_scale;
        break;
      case LayerKind::kAvgPool2d:
        q.window = static_cast<const AvgPool2d&>(l).window();
        q.out_scale = prev_scale;
        break;
      case LayerKind::kBatchNorm:
      case LayerKind::kSoftmax:
      case LayerKind::kSigmoid:
      case LayerKind::kTanh:
        break;  // refused by require_int8_layers above
    }
    // Bias representability audit (deployment evidence): an integer-only
    // requantizer would need bias at the accumulator scale w_scale *
    // in_scale; count the channels where that int32 quantization clamps.
    // The runtime epilogue below keeps bias in float, so this never
    // corrupts a value here — it flags what a fixed-point port would lose.
    if (q.kind == LayerKind::kDense || q.kind == LayerKind::kConv2d) {
      for (std::size_t ch = 0; ch < q.bias.size(); ++ch) {
        bool clipped = false;
        const float ws = q.w_scales.size() > 1 ? q.w_scales[ch] : q.w_scales[0];
        (void)quantize_bias_i32(q.bias[ch], ws, prev_scale, &clipped);
        if (clipped) ++qm.bias_saturations_;
      }
    }
    prev_scale = q.out_scale;
    qm.layers_.push_back(std::move(q));  // sxlint: allow(hot-path-alloc) quantize-time
    qm.shapes_.push_back(  // sxlint: allow(hot-path-alloc) quantize-time
        model.activation_shape(i));
  }

  // Ping-pong buffers and counters are the whole runtime footprint,
  // owned here once; QuantizedModel::run never allocates after this.
  qm.ping_.assign(  // sxlint: allow(hot-path-alloc) quantize-time
      model.max_activation_size(), 0);
  qm.pong_.assign(  // sxlint: allow(hot-path-alloc) quantize-time
      model.max_activation_size(), 0);
  qm.sat_counts_.assign(  // sxlint: allow(hot-path-alloc) quantize-time
      qm.layers_.size(), 0);
  return qm;
}

QuantizedModel::QLayerView QuantizedModel::layer_view(std::size_t i) const {
  const QLayer& l = layers_.at(i);
  QLayerView v;
  v.kind = l.kind;
  v.weights = l.weights;
  v.w_scales = l.w_scales;
  v.bias = l.bias;
  v.in_c = l.in_c;
  v.out_c = l.out_c;
  v.k = l.k;
  v.stride = l.stride;
  v.pad = l.pad;
  v.in_dim = l.in_dim;
  v.out_dim = l.out_dim;
  v.window = l.window;
  v.out_scale = l.out_scale;
  return v;
}

Status QuantizedModel::apply_layer(std::size_t i,
                                   std::span<const std::int8_t> in,
                                   std::span<std::int8_t> out,
                                   std::uint64_t* sat) const noexcept {
  if (i >= layers_.size()) return Status::kInvalidArgument;
  const Shape& in_shape = i == 0 ? input_shape_ : shapes_[i - 1];
  const float in_scale = i == 0 ? input_scale_ : layers_[i - 1].out_scale;
  if (in.size() != in_shape.size() || out.size() != shapes_[i].size())
    return Status::kShapeMismatch;
  return run_layer(layers_[i], in_shape, in, in_scale, shapes_[i], out, sat);
}

Status QuantizedModel::run_layer(const QLayer& l, const Shape& in_shape,
                                 std::span<const std::int8_t> in,
                                 float in_scale, const Shape& out_shape,
                                 std::span<std::int8_t> out,
                                 std::uint64_t* sat) const noexcept {
  switch (l.kind) {
    case LayerKind::kDense: {
      if (in_shape.size() != l.in_dim || out_shape.size() != l.out_dim)
        return Status::kShapeMismatch;
      for (std::size_t r = 0; r < l.out_dim; ++r) {
        std::int32_t acc = 0;
        const std::int8_t* wr = l.weights.data() + r * l.in_dim;
        for (std::size_t c = 0; c < l.in_dim; ++c)
          acc += static_cast<std::int32_t>(wr[c]) *
                 static_cast<std::int32_t>(in[c]);
        const float ws = l.w_scales.size() > 1 ? l.w_scales[r] : l.w_scales[0];
        const float v = static_cast<float>(acc) * ws * in_scale + l.bias[r];
        out[r] = tensor::qkernels::quantize_sat(v, l.out_scale, sat);
      }
      return Status::kOk;
    }
    case LayerKind::kConv2d: {
      if (in_shape.rank() != 3 || out_shape.rank() != 3 ||
          in_shape[0] != l.in_c || out_shape[0] != l.out_c)
        return Status::kShapeMismatch;
      const std::size_t h = in_shape[1], w = in_shape[2];
      const std::size_t oh = out_shape[1], ow = out_shape[2];
      const std::size_t per_oc = l.in_c * l.k * l.k;
      for (std::size_t oc = 0; oc < l.out_c; ++oc) {
        const float ws =
            l.w_scales.size() > 1 ? l.w_scales[oc] : l.w_scales[0];
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            std::int32_t acc = 0;
            for (std::size_t ic = 0; ic < l.in_c; ++ic) {
              const std::int8_t* wk =
                  l.weights.data() + oc * per_oc + ic * l.k * l.k;
              for (std::size_t ky = 0; ky < l.k; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * l.stride + ky) -
                    static_cast<std::ptrdiff_t>(l.pad);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kx = 0; kx < l.k; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * l.stride + kx) -
                      static_cast<std::ptrdiff_t>(l.pad);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                  acc += static_cast<std::int32_t>(wk[ky * l.k + kx]) *
                         static_cast<std::int32_t>(
                             in[(ic * h + static_cast<std::size_t>(iy)) * w +
                                static_cast<std::size_t>(ix)]);
                }
              }
            }
            const float v =
                static_cast<float>(acc) * ws * in_scale + l.bias[oc];
            out[(oc * oh + oy) * ow + ox] =
                tensor::qkernels::quantize_sat(v, l.out_scale, sat);
          }
        }
      }
      return Status::kOk;
    }
    case LayerKind::kRelu:
      for (std::size_t i = 0; i < in_shape.size(); ++i)
        out[i] = in[i] > 0 ? in[i] : static_cast<std::int8_t>(0);
      return Status::kOk;
    case LayerKind::kFlatten:
      for (std::size_t i = 0; i < in_shape.size(); ++i) out[i] = in[i];
      return Status::kOk;
    case LayerKind::kMaxPool2d: {
      // Rank check: Shape::operator[] is total (out-of-range reads 1), so
      // without this a rank-1 input would silently pool garbage instead of
      // failing — the noexcept contract demands a Status, not UB.
      if (in_shape.rank() != 3 || out_shape.rank() != 3 || l.window == 0)
        return Status::kShapeMismatch;
      const std::size_t c = in_shape[0], oh = out_shape[1], ow = out_shape[2];
      const std::size_t h = in_shape[1], wd = in_shape[2];
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            std::int8_t m = -128;
            for (std::size_t dy = 0; dy < l.window; ++dy)
              for (std::size_t dx = 0; dx < l.window; ++dx) {
                const std::int8_t v =
                    in[(ch * h + oy * l.window + dy) * wd + ox * l.window + dx];
                m = v > m ? v : m;
              }
            out[(ch * oh + oy) * ow + ox] = m;
          }
      return Status::kOk;
    }
    case LayerKind::kAvgPool2d: {
      // Same rank/window guard as MaxPool2d; window == 0 would also divide
      // by zero below.
      if (in_shape.rank() != 3 || out_shape.rank() != 3 || l.window == 0)
        return Status::kShapeMismatch;
      const std::size_t c = in_shape[0], oh = out_shape[1], ow = out_shape[2];
      const std::size_t h = in_shape[1], wd = in_shape[2];
      const auto div = static_cast<std::int32_t>(l.window * l.window);
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            std::int32_t acc = 0;
            for (std::size_t dy = 0; dy < l.window; ++dy)
              for (std::size_t dx = 0; dx < l.window; ++dx)
                acc += in[(ch * h + oy * l.window + dy) * wd + ox * l.window +
                          dx];
            // Round-to-nearest integer average.
            const std::int32_t avg =
                acc >= 0 ? (acc + div / 2) / div : (acc - div / 2) / div;
            out[(ch * oh + oy) * ow + ox] = static_cast<std::int8_t>(avg);
          }
      return Status::kOk;
    }
    default:
      return Status::kInvalidArgument;
  }
}

Status QuantizedModel::run(tensor::ConstTensorView input,
                           std::span<float> output) noexcept {
  // A default-constructed (never-quantized) model has no layers:
  // shapes_.back() below would be UB, not a throw — guard it into a
  // Status like every other operational failure of this noexcept path.
  if (layers_.empty()) return Status::kNotReady;
  if (input.shape != input_shape_ || !input.valid())
    return Status::kShapeMismatch;
  if (output.size() != shapes_.back().size()) return Status::kShapeMismatch;

  // Quantize the input.
  for (std::size_t i = 0; i < input.data.size(); ++i)
    ping_[i] = quantize_value(input.data[i], input_scale_);

  float in_scale = input_scale_;
  Shape in_shape = input_shape_;
  bool use_ping = true;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& src = use_ping ? ping_ : pong_;
    auto& dst = use_ping ? pong_ : ping_;
    const Status st = run_layer(
        layers_[i], in_shape,
        std::span<const std::int8_t>(src.data(), in_shape.size()), in_scale,
        shapes_[i], std::span<std::int8_t>(dst.data(), shapes_[i].size()),
        &sat_counts_[i]);
    if (!ok(st)) return st;
    in_scale = layers_[i].out_scale;
    in_shape = shapes_[i];
    use_ping = !use_ping;
  }

  const auto& final_buf = use_ping ? ping_ : pong_;
  for (std::size_t i = 0; i < output.size(); ++i)
    output[i] = static_cast<float>(final_buf[i]) * in_scale;
  return Status::kOk;
}

std::size_t QuantizedModel::weight_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& l : layers_)
    n += l.weights.size() * sizeof(std::int8_t) +
         l.w_scales.size() * sizeof(float) + l.bias.size() * sizeof(float);
  return n;
}

double QuantizedModel::evaluate_accuracy(const Dataset& ds) {
  if (ds.samples.empty()) return 0.0;
  std::vector<float> out(output_shape().size());
  std::size_t correct = 0;
  for (const auto& s : ds.samples) {
    if (!ok(run(s.input.view(), out))) continue;
    std::size_t best = 0;
    for (std::size_t i = 1; i < out.size(); ++i)
      if (out[i] > out[best]) best = i;
    if (best == s.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.samples.size());
}

}  // namespace sx::dl
