// Deploy-time kernel plans (pillar 3: FUSA-compliant DL libraries).
//
// A KernelPlan is built exactly once per deployed model, at configuration
// time. Since PR 7 it is IR-backed: the model is lowered to a whole-model
// program IR (src/ir) and run through the deterministic pass pipeline —
// dead-layer elimination, fusion legality from single-use dataflow facts,
// and buffer-lifetime (liveness) analysis that colors non-interfering
// tensor lifetimes into shared arena slots — before the executable steps
// are built from the surviving ops:
//
//   - Dense layers run the wide matvec kernels from tensor/kernels.hpp
//     over cache-line-aligned row-blocked panels owned by the plan (a
//     deploy-time snapshot — see the staleness contract below);
//   - Conv2d layers run the direct pixel-vectorized kernel, which reads
//     the model's live weights and needs no gather, table, panel or
//     scratch slot;
//   - MaxPool2d layers run the planned vector pool (max is exact);
//   - a Dense/Conv2d whose output has exactly one live consumer, an
//     activation, absorbs it as a fused kernel epilogue (the fusion pass
//     decides this from dataflow facts, honoring a pinned tap layer);
//   - Flatten layers and idempotent relu-after-relu chains are bit
//     identities and are eliminated outright by the dce pass;
//   - every other layer becomes a kReference step and executes its
//     unmodified Layer::forward.
//
// Every step carries its arena addresses (element offsets into one shared
// base block sized by ArenaLayout::total_elems), so engine demand shrinks
// from the ping-pong worst case toward the max live set. The per-pass
// audit evidence (ir::PassEvidence) is retained for the AuditLog, and
// verify/range re-derives the whole optimized structure independently from
// the model — the SIL3/4 gate refuses a plan whose IR does not match.
//
// All planned kernels preserve the reference per-output accumulation
// order, so a planned engine is bitwise identical to a reference engine
// (tensor_kernels_test proves this differentially; tensor_golden_test's
// pinned vectors stay valid).
//
// Staleness contract: a plan snapshots every Dense weight matrix into
// kWideRowBlock-row panels for unit-stride access. Conv2d weights are read
// live, so a conv weight mutation reaches the next run without a repack.
// Callers that mutate Dense weights afterwards — e.g. the SEU campaigns in
// safety/campaign.cpp injecting into a model behind a long-lived engine —
// must call repack(); the safety channels do so in
// safety::Replica::refresh(). The kReference loops read every parameter
// live and need no repack.
//
// The plan also selects, once, at construction, which lane family of the
// wide kernels runs (platform::CpuProbe + SX_KERNEL_ISA override: scalar,
// avx2 or avx512); the decision is exposed via isa_selection() for the
// audit trail, and every step's kernel entry point is resolved to a
// function pointer here so the engine hot path stays branch-free. All
// arms compute one canonical accumulation tree, so the selection affects
// timing only — outputs stay bitwise identical across machines.
//
// One plan is immutable after construction (repack() aside) and has one
// owner, the engine it drives; every activation slot lives in that
// engine's arena.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dl/model.hpp"
#include "ir/passes.hpp"
#include "ir/program.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"

namespace sx::dl {

/// Hot-path kernel selection, resolved once at engine construction.
enum class KernelMode : std::uint8_t {
  kAuto,       ///< kWide, or kReference when SX_KERNEL_REFERENCE forces
               ///< the reference loops (see resolve_kernel_mode)
  kReference,  ///< original per-layer reference loops, no plan
  kWide,       ///< the planned wide-panel kernels (8/16-lane float,
               ///< 16/32-byte int8) with audited CPU-probe arm selection;
               ///< bitwise identical to kReference on every arm
};

/// Every concrete (non-kAuto) kernel mode, kReference first. The single
/// source of truth for exhaustive mode enumeration — the scenario identity
/// matrix and differential tests derive their execution axes from this so
/// a mode can never silently miss them.
std::span<const KernelMode> all_kernel_modes() noexcept;

/// "No pinned tap": the fusion pass may fuse every legal activation.
inline constexpr std::size_t kNoPinnedTap = ~std::size_t{0};

/// Pure resolution core — a function of the requested mode and whether
/// the SX_KERNEL_REFERENCE escape hatch is set. An explicit mode is
/// returned unchanged; kAuto resolves to kReference when the escape hatch
/// is set and to kWide otherwise. The lane family (scalar, avx2, avx512)
/// is the plan's own audited choice, not a mode.
KernelMode resolve_kernel_mode(KernelMode requested,
                               bool reference_forced) noexcept;

/// Deploy-time entry point: SX_KERNEL_REFERENCE (set, non-empty, not "0").
/// Reads the environment; call at configuration time only, never on the
/// hot path.
KernelMode resolve_kernel_mode(KernelMode requested) noexcept;

const char* kernel_mode_name(KernelMode mode) noexcept;

/// Element type a plan and its engine compute in.
enum class ElemType : std::uint8_t { kFloat32, kInt8 };

/// "float" or "int8": the plan name the audit chain and reports use.
const char* elem_name(ElemType elem) noexcept;

/// The evidence every deploy-time plan carries, whatever its element
/// type: the optimized program IR, its liveness-colored arena layout, the
/// per-pass audit facts and the CPU-probe arm decision. KernelPlan and
/// QuantKernelPlan derive from it, so the audit chain and the report read
/// one view and never branch on the element type's plan class.
class PlanEvidence {
 public:
  virtual ~PlanEvidence() = default;
  PlanEvidence(const PlanEvidence&) = delete;
  PlanEvidence& operator=(const PlanEvidence&) = delete;

  ElemType elem() const noexcept { return elem_; }
  /// The optimized program IR and its liveness-colored arena layout —
  /// the structures verify/range re-checks against the model. Layout
  /// units are floats for a float plan, bytes for an int8 plan.
  const ir::Program& program() const noexcept { return program_; }
  const ir::ArenaLayout& layout() const noexcept { return layout_; }
  /// Structured audit evidence emitted by each static-analysis pass.
  std::span<const ir::PassEvidence> pass_evidence() const noexcept {
    return {passes_.data(), passes_.size()};
  }
  /// Layers eliminated by the dce pass (bit identities).
  std::size_t removed_layers() const noexcept { return removed_; }

  /// The deploy-time CPU probe and ISA decision. Recorded by the pipeline
  /// audit log and the SX_KERNEL_BACKEND report block.
  const platform::CpuProbe& cpu_probe() const noexcept { return probe_; }
  const platform::WideIsaSelection& isa_selection() const noexcept {
    return isa_sel_;
  }

  /// One-line evidence summary for core/report.
  virtual std::string summary() const = 0;

 protected:
  /// Probes the CPU once (SX_KERNEL_ISA honored) and runs the pass
  /// pipeline — dce, fusion legality, liveness coloring — over the
  /// lowered `program`.
  PlanEvidence(ElemType elem, ir::Program program,
               const ir::PassOptions& opts);

  const ElemType elem_;
  platform::CpuProbe probe_{};
  platform::WideIsaSelection isa_sel_{};
  ir::Program program_;
  ir::ArenaLayout layout_;
  std::vector<ir::PassEvidence> passes_;
  std::size_t output_offset_ = ir::kNone;
  std::size_t removed_ = 0;
};

/// One executable step of a plan: one surviving IR op — a layer, or a
/// layer fused with its following activation. Pointer members alias the
/// model's live parameter storage (or the plan's own Dense panels) and
/// stay valid for the model's lifetime. Offsets are element indices into
/// the engine's single arena base block (ir::kNone = no slot; an in_offset
/// of ir::kNone means the caller's input buffer).
struct KernelStep {
  enum class Kind : std::uint8_t { kReference, kDense, kConv2d, kMaxPool };

  Kind kind = Kind::kReference;
  std::size_t first_layer = 0;  ///< model layer index this step starts at
  std::size_t last_layer = 0;   ///< fused activation layer, or first_layer
  /// Taps at layers [tap_first, first_layer] all read this step's input
  /// buffer bitwise (the layers strictly between were eliminated as bit
  /// identities by the dce pass).
  std::size_t tap_first = 0;
  tensor::kernels::Epilogue epilogue = tensor::kernels::Epilogue::kNone;

  // Arena addressing (liveness-pass assignment).
  std::size_t in_offset = ir::kNone;
  std::size_t out_offset = ir::kNone;
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;
  Shape in_shape{};   ///< static views for reference and pool steps
  Shape out_shape{};

  // kReference
  const Layer* ref_layer = nullptr;  ///< the layer to forward verbatim

  // kDense / kConv2d
  std::size_t rows = 0, cols = 0;  ///< Dense dims
  const float* weights = nullptr;  ///< live natural-layout weights
  const float* panel = nullptr;    ///< Dense wide panel
  const float* bias = nullptr;

  /// Kernel entry points resolved once at plan construction (probed ISA),
  /// so the engine hot path is a branch-free indirect call.
  tensor::kernels::DenseKernelFn dense_fn = nullptr;
  tensor::kernels::ConvKernelFn conv_fn = nullptr;

  // kConv2d
  tensor::kernels::Conv2dGeom conv{};  ///< static geometry

  // kMaxPool
  std::size_t window = 0;
};

/// Deploy-time execution plan for one model. Immutable after construction
/// except repack(); shareable read-only across workers.
class KernelPlan final : public PlanEvidence {
 public:
  /// The model must outlive the plan. `pin_tap_layer` keeps the
  /// activation feeding that layer materialized (fusion across it is
  /// blocked) so a supervisor can tap it. The CPU probe and the
  /// SX_KERNEL_ISA override are consulted here, exactly once.
  explicit KernelPlan(const Model& model,
                      std::size_t pin_tap_layer = kNoPinnedTap);

  std::span<const KernelStep> steps() const noexcept {
    return {steps_.get(), step_count_};
  }

  /// Engine arena demand in floats (liveness-pass total, excluding slack).
  std::size_t arena_elems() const noexcept { return layout_.total_elems; }
  /// Arena offset of the program output (ir::kNone when the program has
  /// no live ops and the output aliases the caller's input).
  std::size_t output_offset() const noexcept { return output_offset_; }
  /// Taps at layers [final_tap_first(), layer_count) read the final
  /// output buffer (every trailing layer was a bit identity).
  std::size_t final_tap_first() const noexcept { return final_tap_first_; }
  /// The tap layer pinned against fusion at construction (kNoPinnedTap
  /// when none).
  std::size_t pin_tap_layer() const noexcept { return pin_tap_layer_; }

  /// Deploy-time storage footprint of the Dense panels (floats).
  std::size_t panel_floats() const noexcept { return panel_floats_; }

  std::size_t planned_dense() const noexcept { return planned_dense_; }
  std::size_t planned_conv() const noexcept { return planned_conv_; }
  std::size_t planned_pools() const noexcept { return planned_pools_; }
  std::size_t fused_activations() const noexcept { return fused_; }
  std::size_t reference_steps() const noexcept { return reference_; }

  /// Re-snapshots Dense weights into the panels. For callers that mutate
  /// weights in place after deployment (conv reads its weights live).
  void repack() noexcept;

  std::string summary() const override;

 private:
  const Model* model_;
  std::size_t pin_tap_layer_ = kNoPinnedTap;
  std::unique_ptr<KernelStep[]> steps_;
  std::size_t step_count_ = 0;
  tensor::AlignedStorage<float> panels_;  ///< cache-line-aligned base
  std::size_t final_tap_first_ = 0;
  std::size_t panel_floats_ = 0;
  std::size_t planned_dense_ = 0;
  std::size_t planned_conv_ = 0;
  std::size_t planned_pools_ = 0;
  std::size_t fused_ = 0;
  std::size_t reference_ = 0;
};

}  // namespace sx::dl
