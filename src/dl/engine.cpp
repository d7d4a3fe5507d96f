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

/// The reference loops as steps: layer i forwards verbatim from the
/// buffer layer i - 1 wrote (the caller's input for layer 0) into the
/// other half of a 2 x max_activation_size arena.
std::unique_ptr<KernelStep[]> reference_steps(const Model& model) {
  const std::size_t n = model.layer_count();
  const std::size_t half = model.max_activation_size();
  auto steps = std::make_unique<KernelStep[]>(n);  // sxlint: allow(hot-path-alloc) deploy-time reference steps
  for (std::size_t i = 0; i < n; ++i) {
    KernelStep& s = steps[i];
    s.first_layer = s.last_layer = s.tap_first = i;
    s.in_shape = i == 0 ? model.input_shape() : model.activation_shape(i - 1);
    s.out_shape = model.activation_shape(i);
    s.in_elems = s.in_shape.size();
    s.out_elems = s.out_shape.size();
    s.in_offset = i == 0 ? ir::kNone : steps[i - 1].out_offset;
    s.out_offset = i % 2 == 0 ? 0 : half;
    s.ref_layer = &model.layer(i);
  }
  return steps;
}

/// v[i] = apply_epilogue(v[i], ep) for i < n. ReLU, the activation int8
/// models keep, runs on vectors with the same select.
void apply_epilogue_in_place(float* v, std::size_t n,
                             k::Epilogue ep) noexcept {
  std::size_t i = 0;
  if (ep == k::Epilogue::kRelu) {
    typedef float v4sf __attribute__((vector_size(16)));
    const v4sf zero = {};
    for (; i + 4 <= n; i += 4) {
      v4sf x;
      __builtin_memcpy(&x, v + i, sizeof x);
      x = x > zero ? x : zero;
      __builtin_memcpy(v + i, &x, sizeof x);
    }
  }
  for (; i < n; ++i) v[i] = k::apply_epilogue(v[i], ep);
}

/// run() and run_tapped(): the walk compiles to no observing code.
struct NoObserver {
  static constexpr bool kObserves = false;
};

/// run_observed(): max |v| per activation, forward_trace indexing.
struct RangeObserver {
  static constexpr bool kObserves = true;
  std::span<float> amax;

  void activation(std::size_t index, const float* v, std::size_t n) noexcept {
    amax[index] = tensor::fold_abs_max(amax[index], {v, n});
  }
  // amax[index - 1] already holds this pass, so the copy is cumulative.
  void identity(std::size_t index) noexcept {
    amax[index] = amax[index - 1];
  }
};

}  // namespace

StaticEngine::StaticEngine(const Model& model, StaticEngineConfig cfg)
    : Engine(ElemType::kFloat32),
      model_(&model),
      cfg_(cfg),
      plan_(make_owned_plan(model, cfg)),
      arena_(planned_capacity(model, plan_.get())) {
  base_ = arena_.alloc(arena_.capacity());
  if (plan_ != nullptr) {
    steps_ = plan_->steps();
    output_offset_ = plan_->output_offset();
    final_tap_first_ = plan_->final_tap_first();
  } else {
    ref_steps_ = reference_steps(model);
    steps_ = {ref_steps_.get(), model.layer_count()};
    if (!steps_.empty()) output_offset_ = steps_.back().out_offset;
    final_tap_first_ = model.layer_count();
  }
}

Status StaticEngine::run(tensor::ConstTensorView input,
                         std::span<float> output) noexcept {
  NoObserver obs;
  return walk(input, output, kNoTap, {}, obs);
}

bool StaticEngine::can_tap(std::size_t tap_layer) const noexcept {
  if (tap_layer >= model_->layer_count()) return false;
  for (const KernelStep& s : steps_)
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer) return true;
  // Trailing bit identities alias the final output buffer.
  return tap_layer >= final_tap_first_;
}

Status StaticEngine::run_tapped(tensor::ConstTensorView input,
                                std::span<float> output,
                                std::size_t tap_layer,
                                std::span<float> tap) noexcept {
  if (!can_tap(tap_layer)) return Status::kShapeMismatch;
  if (tap.size() != tap_width(*model_, tap_layer))
    return Status::kShapeMismatch;
  NoObserver obs;
  return walk(input, output, tap_layer, tap, obs);
}

Status StaticEngine::run_observed(tensor::ConstTensorView input,
                                  std::span<float> output,
                                  std::span<float> amax) noexcept {
  if (amax.size() != model_->layer_count() + 1) return Status::kShapeMismatch;
  RangeObserver obs{amax};
  return walk(input, output, kNoTap, {}, obs);
}

template <class Obs>
Status StaticEngine::walk(tensor::ConstTensorView input,
                          std::span<float> output, std::size_t tap_layer,
                          std::span<float> tap, Obs& obs) noexcept {
  if (input.shape != model_->input_shape() || !input.valid())
    return Status::kShapeMismatch;
  if (output.size() != model_->output_shape().size())
    return Status::kShapeMismatch;

  if (cfg_.check_numeric_faults && tensor::has_non_finite(input)) {
    ++faults_;
    return Status::kNumericFault;
  }
  if constexpr (Obs::kObserves)
    obs.activation(0, input.data.data(), input.data.size());

  // One step per surviving IR op (one per layer under the reference
  // loops), each reading/writing its arena offsets (dce'd bit identities
  // have no step; the ranges [tap_first, first_layer] keep their taps
  // serviceable).
  //
  // Fault semantics match the reference engine exactly: a fused kernel
  // screens every pre-activation value with the has_non_finite predicate
  // (the reference path would have caught a non-finite value in the dense/
  // conv output before applying the activation), and the step's final
  // output is scanned afterwards just as every reference layer output is.
  // Eliminated identity layers need no scan of their own — their bits were
  // already screened as the producing step's output (or the engine input).
  float* const base = base_.data();
  for (const KernelStep& s : steps_) {
    const float* in = s.in_offset == ir::kNone
                          ? input.data.data()
                          : base + s.in_offset;
    // `in` carries exactly the bits of forward_trace()'s activations[t]
    // for every t in [tap_first, first_layer].
    if (tap_layer >= s.tap_first && tap_layer <= s.first_layer)
      for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = in[j];
    if constexpr (Obs::kObserves)
      for (std::size_t l = s.tap_first; l < s.first_layer; ++l)
        obs.identity(l + 1);
    float* out = base + s.out_offset;
    const bool fused = s.epilogue != k::Epilogue::kNone;
    const bool pre_check = cfg_.check_numeric_faults && fused;
    // An observer sees the pre-activation, so its kernel runs without the
    // epilogue, which is applied below.
    const k::Epilogue epilogue =
        Obs::kObserves ? k::Epilogue::kNone : s.epilogue;
    bool pre_ok = true;
    switch (s.kind) {
      case KernelStep::Kind::kDense:
        // Entry point resolved once at plan construction (probed ISA) —
        // a branch-free indirect call on the hot path.
        pre_ok = s.dense_fn(s.panel, s.bias, s.rows, s.cols, in, out,
                            epilogue, pre_check);
        break;
      case KernelStep::Kind::kConv2d:
        pre_ok = s.conv_fn(s.weights, s.bias, s.conv, in, out, epilogue,
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
    if constexpr (Obs::kObserves) {
      if (fused) {
        obs.activation(s.first_layer + 1, out, s.out_elems);
        apply_epilogue_in_place(out, s.out_elems, s.epilogue);
      }
      obs.activation(s.last_layer + 1, out, s.out_elems);
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

  const float* out_src =
      output_offset_ == ir::kNone ? input.data.data() : base + output_offset_;
  // Trailing dce'd identities alias the final output bitwise.
  if (tap_layer != kNoTap && tap_layer >= final_tap_first_)
    for (std::size_t j = 0; j < tap.size(); ++j) tap[j] = out_src[j];
  if constexpr (Obs::kObserves)
    for (std::size_t l = final_tap_first_; l < model_->layer_count(); ++l)
      obs.identity(l + 1);
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
