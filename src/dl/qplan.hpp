// Deploy-time kernel plans for the int8 quantized path (pillar 3).
//
// QuantKernelPlan is the quantized sibling of dl::KernelPlan and shares
// its IR-backed construction: the QuantizedModel is lowered to the program
// IR (src/ir, elem_bytes = 1, input staged in-arena) and run through the
// same deterministic pass pipeline — dead-layer elimination, fusion
// legality (relu only: quantize() admits no other activation and int8
// ReLU after the requantize clamp is exact), and buffer-lifetime analysis
// coloring the int8 activation lifetimes into shared byte-arena slots.
// The executable steps are then built from the surviving ops:
//
//   - Dense layers run the wide int8 matvec kernels from
//     tensor/qkernels.hpp over cache-line-aligned row-blocked panels owned
//     by the plan;
//   - Conv2d layers run the direct int8 kernel off their input slot —
//     the driver the float plan's convs run, with int8 lanes — over the
//     live weights: no gather, tables, panel or scratch;
//   - a Dense/Conv2d whose output's single live consumer is the int8 ReLU
//     absorbs it: the requantize epilogue applies `q > 0 ? q : 0` on the
//     just-quantized value, exactly what the separate reference layer
//     computes;
//   - MaxPool2d runs the planned vector pool shared with the float plan
//     (int8 max is exact);
//   - Flatten (a verbatim byte copy in the reference) is eliminated by
//     dce; AvgPool2d becomes a kReference step executed through
//     QuantizedModel::apply_layer.
//
// All planned kernels compute exact int32 sums (any grouping of the
// products equals the reference chain while k_len * 255 * 128 < 2^31) and
// finish with a requantization value-identical to the reference, so a
// planned QuantEngine is bitwise identical to QuantizedModel::run —
// including the per-layer saturation counters (dl_quant_kernels_test
// proves both differentially). Each Dense/Conv2d step records that
// no-overflow bound for its reduction length; a step whose bound reaches
// 2^31 is planned on the scalar arm, which keeps the reference's serial
// chain, and verify::check_ir re-derives the bound independently.
//
// Staleness contract: a plan snapshots every Dense weight matrix into
// zero-padded 4-k quad panels (every row, plus each lane's 128 * sum(w)
// correction); Conv2d weights are read live, so a conv weight fault
// reaches the next run by itself. It also resolves, once, which arm of
// the wide int8 kernels runs (platform::CpuProbe + SX_KERNEL_ISA — see
// dl/plan.hpp; the selection affects timing only, never output). Callers
// that mutate Dense weights afterwards must call repack(), which re-packs
// the panels and recomputes the corrections. KernelMode and the
// SX_KERNEL_REFERENCE escape hatch are shared with the float plan
// (dl/plan.hpp).
//
// One plan is immutable after construction (repack() aside) and has one
// owner, the engine it drives, whose arena slots and saturation counters
// are its own.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dl/engine.hpp"
#include "dl/plan.hpp"
#include "dl/quant.hpp"
#include "tensor/arena.hpp"
#include "tensor/qkernels.hpp"

namespace sx::dl {

/// One executable step of a quantized plan: one surviving IR op — a
/// layer, or a Dense/Conv2d fused with its following int8 ReLU. Pointer
/// members alias the QuantizedModel's live parameter storage (or the
/// plan's own Dense panels) and stay valid for the model's lifetime.
/// Offsets are byte indices into the engine's arena base block.
struct QuantKernelStep {
  enum class Kind : std::uint8_t { kReference, kDense, kConv2d, kMaxPool };

  Kind kind = Kind::kReference;
  std::size_t first_layer = 0;  ///< model layer index this step starts at
  std::size_t last_layer = 0;   ///< fused ReLU layer, or first_layer
  /// Taps at layers [tap_first, first_layer] all read this step's input
  /// (the layers between were dce'd byte identities).
  std::size_t tap_first = 0;

  // Byte-arena addressing (liveness-pass assignment).
  std::size_t in_offset = ir::kNone;
  std::size_t out_offset = ir::kNone;
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;

  // kDense / kConv2d
  std::size_t rows = 0, cols = 0;       ///< Dense dims
  const std::int8_t* weights = nullptr; ///< live weights (conv reads
                                        ///< them, Dense repacks from them)
  const std::int8_t* panel = nullptr;   ///< Dense wide quad panel
  tensor::qkernels::Requant rq{};       ///< fused requantize(+ReLU) params

  /// No-overflow evidence: k_len * 255 * 128 for this step's reduction
  /// length (cols, or in_c * k * k). Below 2^31 every arm's regrouped
  /// int32 sums are exact; otherwise the step runs the scalar arm.
  std::uint64_t mac_bound = 0;

  /// Kernel entry points resolved once at plan construction (probed arm,
  /// or scalar past the bound) — the engine hot path is a branch-free
  /// indirect call.
  tensor::qkernels::QDenseKernelFn dense_fn = nullptr;
  tensor::qkernels::QConvKernelFn conv_fn = nullptr;

  // kConv2d
  tensor::kernels::Conv2dGeom geom{};  ///< static geometry

  // kMaxPool: input channels x height x width and the window
  std::size_t pool_c = 0, pool_h = 0, pool_w = 0, window = 0;
};

/// Deploy-time execution plan for one quantized model. Immutable after
/// construction except repack(); shareable read-only across workers.
class QuantKernelPlan final : public PlanEvidence {
 public:
  /// The model must outlive the plan. The CPU probe and the SX_KERNEL_ISA
  /// override are consulted here, exactly once.
  explicit QuantKernelPlan(const QuantizedModel& model);

  std::span<const QuantKernelStep> steps() const noexcept {
    return {steps_.get(), step_count_};
  }

  /// Engine byte-arena demand (liveness-pass total, excluding slack).
  std::size_t arena_bytes() const noexcept { return layout_.total_elems; }
  /// Byte offset of the in-arena quantized input slot.
  std::size_t input_offset() const noexcept { return layout_.input_offset; }
  /// Byte offset of the program output.
  std::size_t output_offset() const noexcept { return output_offset_; }

  /// Deploy-time footprint of the Dense panels (bytes).
  std::size_t panel_bytes() const noexcept { return panel_bytes_; }

  std::size_t planned_dense() const noexcept { return planned_dense_; }
  std::size_t planned_conv() const noexcept { return planned_conv_; }
  std::size_t planned_pools() const noexcept { return planned_pools_; }
  std::size_t fused_relus() const noexcept { return fused_; }
  std::size_t reference_steps() const noexcept { return reference_; }
  /// Dense/Conv2d steps planned on the scalar arm because their
  /// reduction length fails the no-overflow bound.
  std::size_t bound_scalar_steps() const noexcept { return bound_scalar_; }

  /// Re-snapshots the quantized Dense weights into the panels and
  /// recomputes the per-lane corrections.
  void repack() noexcept;

  std::string summary() const override;

 private:
  const QuantizedModel* model_;
  std::unique_ptr<QuantKernelStep[]> steps_;
  std::size_t step_count_ = 0;
  tensor::AlignedStorage<std::int8_t> panels_;  ///< cache-line-aligned base
  std::size_t panel_bytes_ = 0;
  std::size_t planned_dense_ = 0;
  std::size_t planned_conv_ = 0;
  std::size_t planned_pools_ = 0;
  std::size_t fused_ = 0;
  std::size_t reference_ = 0;
  std::size_t bound_scalar_ = 0;
};

struct QuantEngineConfig {
  /// Hot-path kernel selection; kAuto resolves like the float engine's
  /// (see resolve_kernel_mode in dl/plan.hpp).
  KernelMode kernels = KernelMode::kAuto;
};

/// Planned int8 inference engine: the quantized sibling of StaticEngine.
/// In planned modes the byte arena is the single liveness-colored base
/// block (the quantized input occupies its own slot inside it); reference
/// mode keeps the classic ping-pong pair as the unoptimized twin. run()
/// is noexcept and performs zero heap allocations. Outputs are bitwise
/// identical to QuantizedModel::run for every kernel mode.
class QuantEngine final : public Engine {
 public:
  /// Builds the engine's own plan (or none when the resolved mode is
  /// kReference). The model must outlive the engine.
  explicit QuantEngine(const QuantizedModel& model,
                       QuantEngineConfig cfg = {});

  QuantEngine(const QuantEngine&) = delete;
  QuantEngine& operator=(const QuantEngine&) = delete;

  /// Int8 inference; output is dequantized float logits.
  Status run(tensor::ConstTensorView input,
             std::span<float> output) noexcept override;
  /// The tap is the int8 activation feeding `tap_layer`, dequantized with
  /// its calibrated scale — on the planned and the reference path alike,
  /// so both give the same bits as a dequantized QuantizedModel::apply_layer
  /// walk.
  Status run_tapped(tensor::ConstTensorView input, std::span<float> output,
                    std::size_t tap_layer,
                    std::span<float> tap) noexcept override;
  /// Reference engines keep every activation; a planned engine keeps step
  /// inputs (a fused ReLU's input is gone). The last Dense layer's input,
  /// the supervisor's feature layer, is always a step input.
  bool can_tap(std::size_t tap_layer) const noexcept override;

  std::uint64_t run_count() const noexcept override { return runs_; }
  std::uint64_t numeric_fault_count() const noexcept override { return 0; }

  /// Cumulative requantization clips per layer across every run() —
  /// bitwise identical to the reference model's counters on the same
  /// inputs (fused-ReLU clips are attributed to the producing layer, where
  /// the reference also counts them; the ReLU layer itself never clips).
  std::span<const std::uint64_t> saturation_counts()
      const noexcept override {
    return {sat_counts_.get(), layer_count_};
  }

  /// The plan driving this engine (nullptr in reference mode).
  const QuantKernelPlan* plan() const noexcept override {
    return plan_.get();
  }

  /// Re-snapshots the plan's Dense panels and per-lane corrections after a
  /// mutation of the quantized weights.
  void repack() noexcept override {
    if (plan_ != nullptr) plan_->repack();
  }

  std::size_t arena_capacity() const noexcept override {
    return arena_.capacity();
  }
  std::size_t arena_high_water_mark() const noexcept override {
    return arena_.high_water_mark();
  }

 private:
  /// Sentinel tap_layer meaning "no tap" on the shared run paths.
  static constexpr std::size_t kNoTap = ~std::size_t{0};

  Status run_impl(tensor::ConstTensorView input, std::span<float> output,
                  std::size_t tap_layer, std::span<float> tap) noexcept;
  Status run_planned(std::span<float> output, std::size_t tap_layer,
                     std::span<float> tap) noexcept;
  Status run_reference(std::span<float> output, std::size_t tap_layer,
                       std::span<float> tap) noexcept;

  const QuantizedModel* model_;
  QuantEngineConfig cfg_;
  std::unique_ptr<QuantKernelPlan> plan_;  ///< null under reference loops
  tensor::ByteArena arena_;
  std::span<std::int8_t> base_;  ///< planned mode: layout base block
  std::span<std::int8_t> ping_;  ///< reference mode only
  std::span<std::int8_t> pong_;  ///< reference mode only
  // Static sizes cached at construction so the noexcept hot path never
  // touches a throwing accessor.
  std::size_t layer_count_ = 0;
  std::size_t in_size_ = 0;
  std::size_t out_size_ = 0;
  std::size_t input_offset_ = 0;   ///< planned: in-arena input slot
  std::size_t output_offset_ = 0;  ///< planned: program output slot
  float in_scale_ = 1.0f;
  float final_scale_ = 1.0f;
  std::unique_ptr<std::size_t[]> act_sizes_;  ///< size after each layer
  std::unique_ptr<float[]> in_scales_;  ///< scale of each layer's input
  std::unique_ptr<std::uint64_t[]> sat_counts_;
  std::uint64_t runs_ = 0;
};

}  // namespace sx::dl
