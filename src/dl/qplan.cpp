#include "dl/qplan.hpp"

#include <cstdlib>
#include <sstream>

#include "dl/lower.hpp"

namespace sx::dl {

namespace k = tensor::kernels;
namespace qk = tensor::qkernels;

namespace {

/// Static geometry of quantized conv layer i (input shape = activation
/// before it). Identical to the float plan's conv_geom: both element
/// types run the same direct conv driver.
k::Conv2dGeom qconv_geom(const QuantizedModel& m, std::size_t i,
                         const QuantizedModel::QLayerView& v) {
  const Shape& in = i == 0 ? m.input_shape() : m.activation_shape(i - 1);
  k::Conv2dGeom g;
  g.in_c = v.in_c;
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.out_c = v.out_c;
  g.k = v.k;
  g.stride = v.stride;
  g.pad = v.pad;
  return g;
}

}  // namespace

QuantKernelPlan::QuantKernelPlan(const QuantizedModel& model)
    // The int8 path only ever fuses ReLU: quantize() admits no other
    // activation, and int8 ReLU after the requantize clamp is exact.
    : PlanEvidence(ElemType::kInt8, lower(model),
                   ir::PassOptions{.fuse_sigmoid_tanh = false}),
      model_(&model) {

  // Pass 1 over the surviving ops: size the deploy-time Dense panels.
  for (const ir::Op& op : program_.ops) {
    if (!op.live || op.kind != ir::OpKind::kDense) continue;
    const QuantizedModel::QLayerView v = model.layer_view(op.layer);
    panel_bytes_ += qk::qwide_dense_panel_bytes(v.out_dim, v.in_dim);
  }

  // Configuration-time storage, allocated exactly once per deployment;
  // the hot path only ever reads it.
  const std::size_t live = program_.live_op_count();
  if (live != 0)
    steps_ = std::make_unique<QuantKernelStep[]>(live);  // sxlint: allow(hot-path-alloc) deploy-time plan storage
  if (panel_bytes_ != 0)
    panels_ = tensor::make_aligned_storage<std::int8_t>(panel_bytes_);

  // Pass 2: one executable step per surviving op, carrying its liveness
  // arena assignment and fused-ReLU requantize epilogue. The input scale
  // is keyed to the op's own model layer — dce'd flatten layers preserve
  // bytes AND scale, so this matches what the reference path feeds it.
  std::size_t pb = 0;
  std::size_t prev_last = 0;
  for (const ir::Op& op : program_.ops) {
    if (!op.live) continue;
    QuantKernelStep& s = steps_[step_count_++];
    const std::size_t i = op.layer;
    s.first_layer = i;
    s.last_layer = program_.last_layer(op);
    s.tap_first = step_count_ == 1 ? 0 : prev_last + 1;
    prev_last = s.last_layer;
    s.in_elems = program_.values[op.input].elems;
    s.out_elems = program_.values[op.output].elems;
    const ir::ArenaAssignment& slot = layout_.per_op[op.id];
    s.in_offset = slot.in_offset;
    s.out_offset = slot.out_offset;
    const bool relu_fused = op.fused_layer != ir::kNone;
    if (relu_fused) ++fused_;
    const QuantizedModel::QLayerView v = model.layer_view(i);
    const float in_scale =
        i == 0 ? model.input_scale() : model.activation_scale(i - 1);
    // No-overflow evidence for the step's reduction length; past the
    // bound only the scalar arm's serial chain is planned.
    const auto plan_arm = [&](std::size_t k_len) {
      s.mac_bound = qk::qwide_mac_bound(k_len);
      if (qk::qwide_bound_ok(k_len)) return isa_sel_.int8;
      ++bound_scalar_;
      return qk::QArm::kScalar;
    };

    if (op.kind == ir::OpKind::kDense) {
      s.kind = QuantKernelStep::Kind::kDense;
      s.rows = v.out_dim;
      s.cols = v.in_dim;
      s.weights = v.weights.data();
      s.rq = qk::Requant{.w_scales = v.w_scales.data(),
                         .per_channel = v.w_scales.size() > 1,
                         .bias = v.bias.data(),
                         .in_scale = in_scale,
                         .out_scale = v.out_scale,
                         .relu = relu_fused};
      std::int8_t* panel = panels_.get() + pb;
      qk::pack_qwide_dense_panel(s.weights, s.rows, s.cols, panel);
      s.panel = panel;
      pb += qk::qwide_dense_panel_bytes(s.rows, s.cols);
      // Branch-free hot path: the kernel entry point is decided here.
      s.dense_fn = qk::wide_qdense_kernel(plan_arm(s.cols));
      ++planned_dense_;
    } else if (op.kind == ir::OpKind::kConv2d) {
      s.kind = QuantKernelStep::Kind::kConv2d;
      s.geom = qconv_geom(model, i, v);
      s.weights = v.weights.data();
      s.rq = qk::Requant{.w_scales = v.w_scales.data(),
                         .per_channel = v.w_scales.size() > 1,
                         .bias = v.bias.data(),
                         .in_scale = in_scale,
                         .out_scale = v.out_scale,
                         .relu = relu_fused};
      s.conv_fn = qk::wide_qconv_kernel(plan_arm(s.geom.patch()));
      ++planned_conv_;
    } else if (op.kind == ir::OpKind::kMaxPool2d) {
      const Shape& in = i == 0 ? model.input_shape()
                               : model.activation_shape(i - 1);
      s.kind = QuantKernelStep::Kind::kMaxPool;
      s.pool_c = in.dim(0);
      s.pool_h = in.dim(1);
      s.pool_w = in.dim(2);
      s.window = v.window;
      ++planned_pools_;
    } else {
      s.kind = QuantKernelStep::Kind::kReference;
      ++reference_;
    }
  }
}

void QuantKernelPlan::repack() noexcept {
  for (std::size_t i = 0; i < step_count_; ++i) {
    const QuantKernelStep& s = steps_[i];
    if (s.kind == QuantKernelStep::Kind::kDense)
      qk::pack_qwide_dense_panel(s.weights, s.rows, s.cols,
                                 const_cast<std::int8_t*>(s.panel));
  }
}

std::string QuantKernelPlan::summary() const {
  std::ostringstream os;
  os << "mode=" << kernel_mode_name(KernelMode::kWide)
     << " steps=" << step_count_ << "/" << model_->layer_count()
     << " layers (dense=" << planned_dense_ << " conv=" << planned_conv_
     << " pool=" << planned_pools_ << " fused-relu=" << fused_
     << " removed=" << removed_ << " reference=" << reference_
     << "), arena=" << layout_.total_elems << "/" << layout_.naive_elems
     << " bytes, panels=" << panel_bytes_
     << " bytes, isa=" << k::wide_isa_name(isa_sel_.isa)
     << " int8=" << qk::qarm_name(isa_sel_.int8);
  if (bound_scalar_ != 0) os << " bound-scalar=" << bound_scalar_;
  if (isa_sel_.refused) os << " (override refused)";
  return os.str();
}

namespace {

std::unique_ptr<QuantKernelPlan> make_owned_qplan(const QuantizedModel& model,
                                                  KernelMode resolved) {
  if (resolved == KernelMode::kReference) return nullptr;
  return std::make_unique<QuantKernelPlan>(model);  // sxlint: allow(hot-path-alloc) deploy-time plan construction
}

/// Largest activation in bytes (int8: one byte per element), input
/// included — both ping-pong buffers must fit any of them.
std::size_t max_activation_bytes(const QuantizedModel& m) {
  std::size_t mx = m.input_shape().size();
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    const std::size_t s = m.activation_shape(i).size();
    mx = mx > s ? mx : s;
  }
  return mx;
}

/// Planned mode: the liveness-colored base block (the quantized input
/// lives inside it). Reference mode: the classic two-buffer ping-pong
/// worst case.
std::size_t planned_capacity(const QuantizedModel& m,
                             const QuantKernelPlan* plan) {
  if (plan != nullptr) return plan->arena_bytes();
  return 2 * max_activation_bytes(m);
}

}  // namespace

QuantEngine::QuantEngine(const QuantizedModel& model, QuantEngineConfig cfg)
    : Engine(ElemType::kInt8),
      model_(&model),
      cfg_(cfg),
      plan_(make_owned_qplan(model, resolve_kernel_mode(cfg.kernels))),
      arena_(planned_capacity(model, plan_.get())) {
  // Configuration time: cache every static size and scale so the noexcept
  // hot path never touches a throwing accessor, then carve the byte arena.
  layer_count_ = model_->layer_count();
  in_size_ = model_->input_shape().size();
  in_scale_ = model_->input_scale();
  if (layer_count_ != 0) {
    out_size_ = model_->output_shape().size();
    final_scale_ = model_->activation_scale(layer_count_ - 1);
  }
  act_sizes_ = std::make_unique<std::size_t[]>(layer_count_);  // sxlint: allow(hot-path-alloc) configuration-time size cache
  in_scales_ = std::make_unique<float[]>(layer_count_);  // sxlint: allow(hot-path-alloc) configuration-time tap scales
  sat_counts_ = std::make_unique<std::uint64_t[]>(layer_count_);  // sxlint: allow(hot-path-alloc) configuration-time counters (value-initialized to zero)
  for (std::size_t i = 0; i < layer_count_; ++i) {
    act_sizes_[i] = model_->activation_shape(i).size();
    in_scales_[i] = i == 0 ? in_scale_ : model_->activation_scale(i - 1);
  }

  if (plan_ != nullptr) {
    base_ = arena_.alloc(plan_->arena_bytes());
    input_offset_ = plan_->input_offset();
    output_offset_ = plan_->output_offset();
  } else {
    const std::size_t mx = max_activation_bytes(*model_);
    ping_ = arena_.alloc(mx);
    pong_ = arena_.alloc(mx);
  }
}

namespace {

/// A tapped int8 activation, dequantized exactly like the logits.
void dequantize_tap(const std::int8_t* q, float scale,
                    std::span<float> tap) noexcept {
  for (std::size_t j = 0; j < tap.size(); ++j)
    tap[j] = static_cast<float>(q[j]) * scale;
}

}  // namespace

Status QuantEngine::run(tensor::ConstTensorView input,
                        std::span<float> output) noexcept {
  return run_impl(input, output, kNoTap, {});
}

bool QuantEngine::can_tap(std::size_t tap_layer) const noexcept {
  if (tap_layer >= layer_count_) return false;
  if (plan_ == nullptr) return true;  // reference keeps every activation
  for (const QuantKernelStep& s : plan_->steps())
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer) return true;
  return false;
}

Status QuantEngine::run_tapped(tensor::ConstTensorView input,
                               std::span<float> output, std::size_t tap_layer,
                               std::span<float> tap) noexcept {
  if (!can_tap(tap_layer)) return Status::kShapeMismatch;
  if (tap.size() != tap_width(*model_, tap_layer))
    return Status::kShapeMismatch;
  return run_impl(input, output, tap_layer, tap);
}

Status QuantEngine::run_impl(tensor::ConstTensorView input,
                             std::span<float> output, std::size_t tap_layer,
                             std::span<float> tap) noexcept {
  if (layer_count_ == 0) return Status::kNotReady;
  if (input.shape != model_->input_shape() || !input.valid())
    return Status::kShapeMismatch;
  if (output.size() != out_size_) return Status::kShapeMismatch;

  // Quantize the input exactly as the reference run() does (clips at the
  // input are uncounted there too, so the counters stay comparable). The
  // planned destination is the input's own liveness-pass arena slot.
  if (plan_ != nullptr) {
    if (base_.empty()) return Status::kArenaExhausted;
    quantize_span(input.data.data(), in_size_, in_scale_,
                  base_.data() + input_offset_);
    return run_planned(output, tap_layer, tap);
  }
  if (ping_.empty() || pong_.empty()) return Status::kArenaExhausted;
  for (std::size_t i = 0; i < in_size_; ++i)
    ping_[i] = quantize_value(input.data[i], in_scale_);
  return run_reference(output, tap_layer, tap);
}

Status QuantEngine::run_reference(std::span<float> output,
                                  std::size_t tap_layer,
                                  std::span<float> tap) noexcept {
  // Ping-pong between the two arena buffers, one reference layer at a
  // time — byte-for-byte the loop inside QuantizedModel::run.
  const std::int8_t* cur = ping_.data();
  bool dst_ping = false;  // the input occupies ping_; first output -> pong_
  for (std::size_t i = 0; i < layer_count_; ++i) {
    // `cur` at the top of iteration i is the activation feeding layer i.
    if (i == tap_layer) dequantize_tap(cur, in_scales_[i], tap);
    std::int8_t* dst = dst_ping ? ping_.data() : pong_.data();
    const std::size_t in_sz = i == 0 ? in_size_ : act_sizes_[i - 1];
    const Status st = model_->apply_layer(
        i, {cur, in_sz}, {dst, act_sizes_[i]}, &sat_counts_[i]);
    if (!ok(st)) return st;
    cur = dst;
    dst_ping = !dst_ping;
  }
  for (std::size_t i = 0; i < out_size_; ++i)
    output[i] = static_cast<float>(cur[i]) * final_scale_;
  ++runs_;
  return Status::kOk;
}

Status QuantEngine::run_planned(std::span<float> output,
                                std::size_t tap_layer,
                                std::span<float> tap) noexcept {
  // One step per surviving IR op, each reading/writing its liveness-pass
  // byte-arena offsets (dce'd flatten layers have no step — same bytes,
  // one less pass). Fused-ReLU clips land on the producing layer's
  // counter, exactly where the reference also counts them.
  std::int8_t* const base = base_.data();
  for (const QuantKernelStep& s : plan_->steps()) {
    const std::int8_t* in = base + s.in_offset;
    // `in` carries the bytes (and scale) of the activation feeding every
    // layer in [tap_first, first_layer].
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer)
      dequantize_tap(in, in_scales_[tap_layer], tap);
    std::int8_t* dst = base + s.out_offset;
    std::uint64_t* sat = &sat_counts_[s.first_layer];
    switch (s.kind) {
      case QuantKernelStep::Kind::kDense:
        // Entry point resolved once at plan construction (probed ISA) —
        // a branch-free indirect call on the hot path.
        s.dense_fn(s.panel, s.rows, s.cols, in, s.rq, dst, sat);
        break;
      case QuantKernelStep::Kind::kConv2d:
        s.conv_fn(s.weights, s.geom, in, s.rq, dst, sat);
        break;
      case QuantKernelStep::Kind::kMaxPool:
        k::maxpool2d(in, s.pool_c, s.pool_h, s.pool_w, s.window, dst);
        break;
      case QuantKernelStep::Kind::kReference: {
        const Status st = model_->apply_layer(
            s.first_layer, {in, s.in_elems}, {dst, s.out_elems}, sat);
        if (!ok(st)) return st;
        break;
      }
    }
  }
  const std::int8_t* out_src = base + output_offset_;
  for (std::size_t i = 0; i < out_size_; ++i)
    output[i] = static_cast<float>(out_src[i]) * final_scale_;
  ++runs_;
  return Status::kOk;
}

}  // namespace sx::dl
