// Inference engines.
//
// StaticEngine is the FUSA-compliant runtime: all buffers come from a static
// arena sized at configuration time, run() is noexcept and performs zero heap
// allocations, and optional per-layer numeric-fault checks detect NaN/Inf
// propagation (pillar 3).
//
// In planned modes the arena is a single base block sized by the IR
// liveness pass (ArenaLayout::total_elems — non-interfering tensor
// lifetimes share offsets), not the 2x-max-activation ping-pong worst
// case; every KernelStep carries its offsets. Reference mode, the
// bitwise-identical unoptimized twin, walks one kReference step per layer
// through the classic ping-pong pair. One step walk runs both modes, with
// or without an observer (run_observed, the calibration pass).
//
// StaticEngine and the int8 QuantEngine (dl/qplan.hpp) implement one
// interface, Engine: run, the tapped run a supervisor reads its features
// from, repack, counters, arena marks and the plan's evidence view. Safety
// channels hold engines through it, so the element type is decided once,
// where the engine is built. Every engine owns its plan.
//
// DynamicEngine is the deliberately non-compliant baseline standing in for a
// general-purpose DL framework: per-inference heap allocation and no fault
// containment. Experiment E1 contrasts the two.
#pragma once

#include <span>
#include <vector>

#include "dl/model.hpp"
#include "dl/plan.hpp"
#include "tensor/arena.hpp"

namespace sx::dl {

struct StaticEngineConfig {
  /// Check every intermediate activation for NaN/Inf and fail fast.
  bool check_numeric_faults = true;
  /// Hot-path kernel selection (see dl/plan.hpp). kAuto resolves at
  /// construction time: the reference loops when SX_KERNEL_REFERENCE is
  /// set, else the wide kernels on the probed arm (SX_KERNEL_ISA
  /// honored).
  KernelMode kernels = KernelMode::kAuto;
  /// Keep the activation feeding this layer materialized in the plan
  /// (fusion across it is blocked) so run_tapped can capture it. Ignored
  /// in reference mode and by the shared-plan constructor (the plan's own
  /// pin governs there).
  std::size_t pin_tap_layer = kNoPinnedTap;
};

/// Element count of the activation feeding layer `layer` of `model` (a
/// Model or a QuantizedModel): the width of a tap there. Configuration
/// time; throws past the last layer.
template <class M>
std::size_t tap_width(const M& model, std::size_t layer) {
  return layer == 0 ? model.input_shape().size()
                    : model.activation_shape(layer - 1).size();
}

/// The supervisor's feature layer of `model` (a Model or a QuantizedModel,
/// in its own layer indexing): the index of the last Dense layer, whose
/// input activation is the penultimate feature vector a runtime supervisor
/// reads; layer_count() when there is no Dense layer. Replicas pin it so
/// their engines can tap it.
template <class M>
std::size_t feature_layer(const M& model) {
  for (std::size_t i = model.layer_count(); i-- > 0;) {
    LayerKind kind;
    if constexpr (requires { model.layer_view(i); })
      kind = model.layer_view(i).kind;
    else
      kind = model.layer(i).kind();
    if (kind == LayerKind::kDense) return i;
  }
  return model.layer_count();
}

/// tap_width at feature_layer: the width of the supervisor's features (0
/// when the model has no Dense layer).
template <class M>
std::size_t feature_width(const M& model) {
  const std::size_t layer = feature_layer(model);
  return layer < model.layer_count() ? tap_width(model, layer) : 0;
}

/// The planned-engine interface both element types implement. run() is
/// noexcept and allocation-free in every implementation.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs inference. `input` must match the model input shape; `output`
  /// must have exactly the model's output size (float logits, dequantized
  /// for int8).
  virtual Status run(tensor::ConstTensorView input,
                     std::span<float> output) noexcept = 0;
  /// run() that also copies the activation feeding layer `tap_layer` into
  /// `tap` (dequantized for int8), from the same forward pass, at zero
  /// allocations. `tap` must hold exactly that activation's element count
  /// (tap_width) and `tap_layer` must satisfy can_tap(); kShapeMismatch
  /// otherwise. Lets a runtime supervisor read the features of the run
  /// that decided instead of running the model a second time.
  virtual Status run_tapped(tensor::ConstTensorView input,
                            std::span<float> output, std::size_t tap_layer,
                            std::span<float> tap) noexcept = 0;
  /// True if run_tapped can capture the activation feeding `tap_layer`.
  virtual bool can_tap(std::size_t tap_layer) const noexcept = 0;
  /// Re-snapshots the weight panels of the engine's plan from the live
  /// weights, after an in-place write (fault injection, scrubbing). No-op
  /// under reference loops, which read the weights live.
  virtual void repack() noexcept = 0;

  ElemType elem() const noexcept { return elem_; }
  /// The deploy-time plan driving this engine (nullptr under the
  /// reference loops).
  virtual const PlanEvidence* plan() const noexcept = 0;

  /// Number of successful inferences.
  virtual std::uint64_t run_count() const noexcept = 0;
  /// Runs rejected for a non-finite value (always 0 for int8, whose
  /// arithmetic cannot produce one).
  virtual std::uint64_t numeric_fault_count() const noexcept = 0;
  /// Cumulative requantization clips per layer (empty for float).
  virtual std::span<const std::uint64_t> saturation_counts()
      const noexcept = 0;
  std::uint64_t saturation_total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t c : saturation_counts()) n += c;
    return n;
  }

  /// Worst-case arena demand actually observed (certification evidence)
  /// and the arena's capacity; floats for float engines, bytes for int8.
  virtual std::size_t arena_high_water_mark() const noexcept = 0;
  virtual std::size_t arena_capacity() const noexcept = 0;

 protected:
  explicit Engine(ElemType elem) noexcept : elem_(elem) {}

 private:
  ElemType elem_;
};

/// Allocation-free, deterministic inference over a fixed model.
class StaticEngine final : public Engine {
 public:
  /// Plans buffers (and, unless the resolved kernel mode is kReference,
  /// a private KernelPlan) for `model`. The model must outlive the engine.
  explicit StaticEngine(const Model& model, StaticEngineConfig cfg = {});

  StaticEngine(const StaticEngine&) = delete;
  StaticEngine& operator=(const StaticEngine&) = delete;

  Status run(tensor::ConstTensorView input,
             std::span<float> output) noexcept override;

  /// The tap is bitwise Model::forward_trace(input)[tap_layer].
  Status run_tapped(tensor::ConstTensorView input, std::span<float> output,
                    std::size_t tap_layer,
                    std::span<float> tap) noexcept override;

  /// run() that also folds the largest |v| of every activation of the
  /// pass into `amax`, indexed like Model::forward_trace: amax[0] is the
  /// input, amax[i + 1] the output of layer i (kShapeMismatch unless
  /// amax holds layer_count() + 1 entries). A fused step runs its kernel
  /// without the epilogue, folds the pre-activation, then applies the
  /// epilogue in place; a layer the plan eliminated takes its producer's
  /// value. Every value folded is bitwise the reference walk's, and the
  /// maximum does not depend on order, so amax is bitwise what
  /// forward_trace would give on every arm. A run that faults has folded
  /// every step up to the faulting one. Calibration
  /// (dl::calibrate_ranges) runs this; the served path runs run().
  Status run_observed(tensor::ConstTensorView input, std::span<float> output,
                      std::span<float> amax) noexcept;

  /// Reference engines materialize every activation. A planned engine
  /// materializes step boundaries: taps inside a step's [tap_first,
  /// first_layer] range read its input (the layers between were dce'd bit
  /// identities), but the input of an activation fused into the preceding
  /// kernel's epilogue is gone — pin it via cfg.pin_tap_layer to keep it.
  bool can_tap(std::size_t tap_layer) const noexcept override;

  const Shape& input_shape() const noexcept { return model_->input_shape(); }
  const Shape& output_shape() const noexcept { return model_->output_shape(); }

  std::size_t arena_high_water_mark() const noexcept override {
    return arena_.high_water_mark();
  }
  std::size_t arena_capacity() const noexcept override {
    return arena_.capacity();
  }

  std::uint64_t run_count() const noexcept override { return runs_; }
  std::uint64_t numeric_fault_count() const noexcept override {
    return faults_;
  }
  std::span<const std::uint64_t> saturation_counts()
      const noexcept override {
    return {};
  }

  /// The kernel plan in effect (nullptr when running reference loops).
  const KernelPlan* plan() const noexcept override { return plan_.get(); }
  /// Under kWide (the usual kAuto resolution) Dense weights were copied
  /// into panels at plan time, so an in-place Dense mutation is invisible
  /// to the hot path until this runs (Conv2d weights are read live).
  void repack() noexcept override {
    if (plan_) plan_->repack();
  }
  /// Resolved mode: kWide when a plan drives the engine, else kReference.
  KernelMode kernel_mode() const noexcept {
    return plan_ ? KernelMode::kWide : KernelMode::kReference;
  }

 private:
  /// Sentinel tap_layer meaning "no tap" on the shared run paths.
  static constexpr std::size_t kNoTap = ~std::size_t{0};

  /// The one step walk behind every run. `Obs` is chosen at the call
  /// site: run() and run_tapped() pass an observer whose kObserves is
  /// false, and the walk compiles to no observing code at all; an
  /// observer with kObserves true gets activation(index, values, n) for
  /// every activation the pass materializes (forward_trace indexing, a
  /// fused step's pre-activation included) and identity(index) for one
  /// the plan eliminated (bitwise activation index - 1).
  template <class Obs>
  Status walk(tensor::ConstTensorView input, std::span<float> output,
              std::size_t tap_layer, std::span<float> tap, Obs& obs) noexcept;

  const Model* model_;
  StaticEngineConfig cfg_;
  std::unique_ptr<KernelPlan> plan_;  ///< null under reference loops
  /// Reference mode: one kReference step per layer, ping-ponging between
  /// the two halves of the arena (null in planned mode).
  std::unique_ptr<KernelStep[]> ref_steps_;
  std::span<const KernelStep> steps_;  ///< the plan's, or ref_steps_
  std::size_t output_offset_ = ir::kNone;  ///< arena offset of the output
  /// Taps at layers [final_tap_first_, layer_count) read the output.
  std::size_t final_tap_first_ = 0;
  tensor::Arena arena_;
  // The one block is carved out of the arena once, here at configuration
  // time; run() touches the arena only through this span (zero hot-path
  // bookkeeping, high-water mark == demand by construction). Planned mode
  // sizes it by the liveness-colored layout; reference mode holds the
  // classic ping-pong pair.
  std::span<float> base_{};
  std::uint64_t runs_ = 0;
  std::uint64_t faults_ = 0;
};

/// Baseline engine with per-call allocation (framework stand-in).
class DynamicEngine {
 public:
  explicit DynamicEngine(const Model& model) : model_(&model) {}

  /// Allocates intermediate tensors on every call.
  std::vector<float> run(const tensor::Tensor& input) const;

  const Shape& output_shape() const noexcept { return model_->output_shape(); }

 private:
  const Model* model_;
};

/// Softmax applied to raw logits, written into `out` (same size as
/// `logits`; the caller owns the buffer, so no allocation happens here).
void softmax_into(std::span<const float> logits, std::span<float> out) noexcept;

/// Softmax applied to raw logits; offline helper shared by callers that
/// want probabilities out of a logits-producing model.
std::vector<float> softmax_copy(std::span<const float> logits);

}  // namespace sx::dl
