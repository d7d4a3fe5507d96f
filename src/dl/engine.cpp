#include "dl/engine.hpp"

#include <cmath>

namespace sx::dl {

namespace {

namespace k = tensor::kernels;

/// Builds the engine-private plan, or null when the resolved mode is
/// kReference (configuration time; reads SX_KERNEL_REFERENCE via
/// resolve_kernel_mode).
std::unique_ptr<KernelPlan> make_owned_plan(const Model& model,
                                            const StaticEngineConfig& cfg) {
  const KernelMode mode = resolve_kernel_mode(cfg.kernels);
  if (mode == KernelMode::kReference) return nullptr;
  return std::make_unique<KernelPlan>(model, cfg.pin_tap_layer);  // sxlint: allow(hot-path-alloc) deploy-time engine-private plan
}

/// Planned mode: the liveness-colored base block. Reference mode: the
/// classic two-buffer ping-pong worst case.
std::size_t planned_capacity(const Model& model, const KernelPlan* plan) {
  if (plan != nullptr) return plan->arena_elems();
  return 2 * model.max_activation_size();
}

}  // namespace

StaticEngine::StaticEngine(const Model& model, StaticEngineConfig cfg)
    : Engine(ElemType::kFloat32),
      model_(&model),
      cfg_(cfg),
      plan_(make_owned_plan(model, cfg)),
      arena_(planned_capacity(model, plan_.get())) {
  if (plan_ != nullptr) {
    base_ = arena_.alloc(plan_->arena_elems());
  } else {
    const std::size_t buf = model.max_activation_size();
    ping_ = arena_.alloc(buf);
    pong_ = arena_.alloc(buf);
  }
}

Status StaticEngine::run(tensor::ConstTensorView input,
                         std::span<float> output) noexcept {
  return run_impl(input, output, kNoTap, {});
}

bool StaticEngine::can_tap(std::size_t tap_layer) const noexcept {
  if (tap_layer >= model_->layer_count()) return false;
  if (plan_ == nullptr) return true;  // reference materializes every layer
  for (const KernelStep& s : plan_->steps())
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer) return true;
  // Trailing bit identities alias the final output buffer.
  return tap_layer >= plan_->final_tap_first();
}

Status StaticEngine::run_tapped(tensor::ConstTensorView input,
                                std::span<float> output,
                                std::size_t tap_layer,
                                std::span<float> tap) noexcept {
  if (!can_tap(tap_layer)) return Status::kShapeMismatch;
  if (tap.size() != tap_width(*model_, tap_layer))
    return Status::kShapeMismatch;
  return run_impl(input, output, tap_layer, tap);
}

Status StaticEngine::run_impl(tensor::ConstTensorView input,
                              std::span<float> output, std::size_t tap_layer,
                              std::span<float> tap) noexcept {
  if (input.shape != model_->input_shape() || !input.valid())
    return Status::kShapeMismatch;
  if (output.size() != model_->output_shape().size())
    return Status::kShapeMismatch;
  if (plan_ == nullptr && (ping_.empty() || pong_.empty()))
    return Status::kArenaExhausted;

  if (cfg_.check_numeric_faults && tensor::has_non_finite(input)) {
    ++faults_;
    return Status::kNumericFault;
  }

  return plan_ != nullptr ? run_planned(input, output, tap_layer, tap)
                          : run_reference(input, output, tap_layer, tap);
}

Status StaticEngine::run_reference(tensor::ConstTensorView input,
                                   std::span<float> output,
                                   std::size_t tap_layer,
                                   std::span<float> tap) noexcept {
  // Ping-pong between two arena buffers; each is big enough for any layer.
  tensor::ConstTensorView cur = input;
  bool use_ping = true;
  for (std::size_t i = 0; i < model_->layer_count(); ++i) {
    // `cur` at the top of iteration i is forward_trace()'s activations[i].
    if (i == tap_layer)
      for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = cur.data[j];
    const Shape& out_shape = model_->activation_shape(i);
    std::span<float> dst = use_ping ? ping_ : pong_;
    tensor::TensorView out{dst.first(out_shape.size()), out_shape};
    const Status st = model_->layer(i).forward(cur, out);
    if (!ok(st)) return st;
    if (cfg_.check_numeric_faults && tensor::has_non_finite(out)) {
      ++faults_;
      return Status::kNumericFault;
    }
    cur = out;
    use_ping = !use_ping;
  }

  for (std::size_t i = 0; i < output.size(); ++i) output[i] = cur.data[i];
  ++runs_;
  return Status::kOk;
}

Status StaticEngine::run_planned(tensor::ConstTensorView input,
                                 std::span<float> output,
                                 std::size_t tap_layer,
                                 std::span<float> tap) noexcept {
  // One step per surviving IR op, each reading/writing its liveness-pass
  // arena offsets (dce'd bit identities have no step; the ranges
  // [tap_first, first_layer] keep their taps serviceable).
  //
  // Fault semantics match the reference engine exactly: a fused kernel
  // screens every pre-activation value with the has_non_finite predicate
  // (the reference path would have caught a non-finite value in the dense/
  // conv output before applying the activation), and the step's final
  // output is scanned afterwards just as every reference layer output is.
  // Eliminated identity layers need no scan of their own — their bits were
  // already screened as the producing step's output (or the engine input).
  float* const base = base_.data();
  for (const KernelStep& s : plan_->steps()) {
    const float* in = s.in_offset == ir::kNone
                          ? input.data.data()
                          : base + s.in_offset;
    // `in` carries exactly the bits of forward_trace()'s activations[t]
    // for every t in [tap_first, first_layer].
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer)
      for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = in[j];
    float* out = base + s.out_offset;
    const bool fused = s.epilogue != k::Epilogue::kNone;
    const bool pre_check = cfg_.check_numeric_faults && fused;
    bool pre_ok = true;
    switch (s.kind) {
      case KernelStep::Kind::kDense:
        // Entry point resolved once at plan construction (probed ISA) —
        // a branch-free indirect call on the hot path.
        pre_ok = s.dense_fn(s.panel, s.bias, s.rows, s.cols, in, out,
                            s.epilogue, pre_check);
        break;
      case KernelStep::Kind::kConv2d:
        pre_ok = s.conv_fn(s.weights, s.bias, s.conv, in, out, s.epilogue,
                           pre_check);
        break;
      case KernelStep::Kind::kMaxPool:
        k::maxpool2d(in, s.in_shape.dim(0), s.in_shape.dim(1),
                     s.in_shape.dim(2), s.window, out);
        break;
      case KernelStep::Kind::kReference: {
        const tensor::ConstTensorView vin{
            std::span<const float>(in, s.in_elems), s.in_shape};
        tensor::TensorView vout{std::span<float>(out, s.out_elems),
                                s.out_shape};
        const Status st = s.ref_layer->forward(vin, vout);
        if (!ok(st)) return st;
        break;
      }
    }
    if (cfg_.check_numeric_faults) {
      // Fused steps were screened on the pre-activation values and the
      // epilogues map finite inputs to finite outputs (relu/tanh are
      // bounded by their input; sigmoid's exp may overflow to +Inf but
      // 1/(1+Inf) is 0), so their post-scan is provably redundant.
      const tensor::ConstTensorView vout{
          std::span<const float>(out, s.out_elems), s.out_shape};
      const bool fault = pre_check ? !pre_ok : tensor::has_non_finite(vout);
      if (fault) {
        ++faults_;
        return Status::kNumericFault;
      }
    }
  }

  const float* out_src = plan_->output_offset() == ir::kNone
                             ? input.data.data()
                             : base + plan_->output_offset();
  // Trailing dce'd identities alias the final output bitwise.
  if (tap_layer != kNoTap && tap_layer >= plan_->final_tap_first())
    for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = out_src[j];
  for (std::size_t i = 0; i < output.size(); ++i) output[i] = out_src[i];
  ++runs_;
  return Status::kOk;
}

std::vector<float> DynamicEngine::run(const tensor::Tensor& input) const {
  // Intentionally allocation-heavy: one fresh tensor per layer, mirroring a
  // general-purpose framework's per-op buffer behaviour.
  const tensor::Tensor out = model_->forward(input);
  return std::vector<float>(out.data().begin(), out.data().end());
}

void softmax_into(std::span<const float> logits,
                  std::span<float> out) noexcept {
  float m = -std::numeric_limits<float>::infinity();
  for (float v : logits) m = v > m ? v : m;
  float z = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - m);
    z += out[i];
  }
  for (auto& v : out) v /= z;
}

std::vector<float> softmax_copy(std::span<const float> logits) {
  std::vector<float> out(logits.size());
  softmax_into(logits, out);
  return out;
}

}  // namespace sx::dl
