// Static verification of DL models by abstract interpretation.
//
// Certification practice (pillars 1 and 3) wants *pre-execution* evidence
// about the network itself, not only runtime monitors: before a model is
// allowed to run, we prove from its parameters and the qualified input
// domain (the ODD) that
//   - every layer's output interval is finite (no Inf reachable),
//   - no NaN is reachable (parameters finite, BatchNorm divisors positive),
//   - each deployed engine's arena matches the demand re-derived from
//     layer shapes alone (an independent check of the memory bound) and
//     its plan's passes re-derive from the layers (check_ir), and
//   - int8 quantization scales leave headroom against the statically
//     bounded activation magnitudes (saturation margin evidence).
// The result is a machine-readable VerificationEvidence that the
// CertifiablePipeline consumes as a pre-flight gate at high criticality and
// that core/report renders into the certification report. The engine
// checks read the engines the deployment runs; nothing here builds one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dl/engine.hpp"
#include "dl/model.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "trace/odd.hpp"
#include "verify/interval.hpp"

namespace sx::verify {

/// Summary of the element-wise interval after one layer.
struct LayerRangeSummary {
  std::size_t index = 0;
  dl::LayerKind kind{};
  float min_lo = 0.0f;     ///< smallest lower bound over elements
  float max_hi = 0.0f;     ///< largest upper bound over elements
  float max_width = 0.0f;  ///< widest element interval
  bool finite = true;      ///< all bounds finite (no NaN/Inf)
};

/// Independent re-verification of an IR-backed kernel plan's static-
/// analysis passes. The checker re-derives, from the model layers alone
/// (never from src/ir), which layers a sound dce pass may eliminate,
/// which fusions the single-use dataflow facts admit, and the first-fit
/// liveness arena total — then compares the plan's optimized program and
/// layout against the re-derivation, including a pairwise interference
/// check over the plan's actual offset assignments. Any mismatch means
/// the transformation pipeline produced (or mis-reported) an unsound
/// result and the SIL3/4 pre-flight gate must refuse the deployment.
struct IrCheck {
  bool checked = false;            ///< a plan was present and examined
  bool structure_sound = false;    ///< well-formed IR matching the model
  bool elimination_sound = false;  ///< surviving ops == re-derived set
  bool fusion_sound = false;       ///< fusion decisions == re-derived set
  bool layout_sound = false;       ///< arena total + no interference
  /// int8 plans: every Dense/Conv2d step's recorded no-overflow bound
  /// equals k_len * 255 * 128 re-derived from the model layer, and a step
  /// at or past 2^31 runs the scalar kernel (vacuous for float plans).
  bool bound_sound = true;
  std::size_t rederived_elems = 0; ///< first-fit total, model-derived
  std::size_t planned_elems = 0;   ///< plan's claimed ArenaLayout total
  std::size_t layers_removed = 0;  ///< re-derived dce eliminations
  std::size_t layers_fused = 0;    ///< re-derived legal fusions

  /// Unchecked plans (reference mode) pass vacuously; checked plans must
  /// be sound on every axis.
  bool passed() const noexcept {
    return !checked || (structure_sound && elimination_sound &&
                        fusion_sound && layout_sound && bound_sound);
  }
};

/// One deployed engine's pre-flight evidence. Each check reads that
/// engine's own state: its arena capacity against the demand re-derived
/// from the model's shapes with the engine's own pin (floats for a float
/// engine, bytes for int8), and check_ir on the plan the engine runs (the
/// int8 no-overflow bound included). Under the reference loops there is
/// no plan and the demand is the ping-pong pair's.
struct EngineCheck {
  std::size_t channel = 0;  ///< deployment channel the engine serves
  std::size_t replica = 0;  ///< its replica index within that channel
  dl::ElemType elem = dl::ElemType::kFloat32;
  std::size_t required = 0;  ///< arena demand re-derived from shapes
  std::size_t planned = 0;   ///< the engine's arena_capacity()
  IrCheck ir;                ///< checked iff the engine carries a plan

  bool arena_consistent() const noexcept { return planned == required; }
  bool passed() const noexcept { return arena_consistent() && ir.passed(); }
};

/// Saturation margin of one quantized layer against the static bound.
struct QuantSaturationCheck {
  std::size_t layer = 0;
  dl::LayerKind kind{};
  float static_absmax = 0.0f;      ///< |activation| bound from the analysis
  float representable_absmax = 0.0f;  ///< scale * 127 (int8 full range)
  bool saturation_possible = false;   ///< static bound exceeds representable
};

struct StaticVerdict {
  bool output_bounded = false;    ///< every layer interval finite
  bool nan_free = false;          ///< no NaN reachable from ODD inputs
  /// At least one engine was checked, and every checked engine's arena
  /// matches its shape-derived demand.
  bool arena_consistent = false;
  /// At least one engine was checked, and every checked engine's plan
  /// re-verified (vacuously for engines on the reference loops).
  bool ir_sound = false;

  bool passed() const noexcept {
    return output_bounded && nan_free && arena_consistent && ir_sound;
  }
};

/// Machine-readable result of the whole static verification pass.
struct VerificationEvidence {
  StaticVerdict verdict;
  std::vector<LayerRangeSummary> layers;
  std::vector<EngineCheck> engines;  ///< one per checked engine
  std::vector<QuantSaturationCheck> quant;  ///< empty unless requested
  float output_lo = 0.0f;  ///< envelope of the final output interval
  float output_hi = 0.0f;

  /// Records the checks of the engines that run the verified model and
  /// re-derives arena_consistent and ir_sound from them; an empty list
  /// establishes neither.
  void set_engines(std::vector<EngineCheck> checks);
  /// One-line verdict for audit payloads.
  std::string verdict_line() const;
  /// Full per-layer table for the certification report.
  std::string to_text() const;
};

/// The ODD value envelope as an element-wise input interval.
IntervalTensor odd_input_interval(const tensor::Shape& input_shape,
                                  const trace::OddSpec& odd);

/// Layer-by-layer range analysis: result[0] is the input interval,
/// result[i + 1] the sound interval after layer i. Throws
/// std::invalid_argument on an input shape mismatch.
std::vector<IntervalTensor> analyze_ranges(const dl::Model& model,
                                           const IntervalTensor& input);

/// Independent re-verification of an IR-backed float kernel plan: the
/// checker re-derives elimination/fusion/liveness from the model layers
/// and compares every structural fact and arena offset of `plan`.
IrCheck check_ir(const dl::Model& model, const dl::KernelPlan& plan);
/// Same re-verification for the int8 plan (relu-only fusion, in-arena
/// input slot, byte arena), plus the no-overflow bound of every Dense and
/// Conv2d step (IrCheck::bound_sound).
IrCheck check_ir(const dl::QuantizedModel& quantized,
                 const dl::QuantKernelPlan& plan);

/// Checks one deployed engine against the model it runs (see
/// EngineCheck). `engine` must run `model` (a float engine for a Model, an
/// int8 one for a QuantizedModel; std::invalid_argument otherwise). It
/// builds nothing.
EngineCheck check_engine(const dl::Model& model, const dl::Engine& engine);
EngineCheck check_engine(const dl::QuantizedModel& quantized,
                         const dl::Engine& engine);

/// The full pass: the range analysis of `model` over the ODD box, plus
/// the checks of the engines that run it (set_engines). The verdict
/// passes only if at least one engine was checked and every check passed.
VerificationEvidence verify_model(const dl::Model& model,
                                  const trace::OddSpec& odd,
                                  std::vector<EngineCheck> engines);

/// Saturation margins of a quantized deployment: `model` must be the float
/// model the QuantizedModel was produced from (BatchNorm already folded, so
/// layer indices align; throws std::invalid_argument otherwise).
std::vector<QuantSaturationCheck> check_quant_saturation(
    const dl::Model& model, const dl::QuantizedModel& quantized,
    const trace::OddSpec& odd);

/// Cross-check of the static saturation-margin verdicts against measured
/// per-layer requantization-clip counters (QuantizedModel /
/// QuantEngine::saturation_counts()). Soundness direction: a layer the
/// analysis calls statically safe (saturation_possible == false) must
/// never have clipped at runtime — a violation means the static bound or
/// the scale bookkeeping is wrong. The converse (a flagged layer that
/// never clipped) is expected conservatism, not an error.
struct SaturationCrossCheck {
  std::size_t layers_checked = 0;
  std::size_t statically_safe = 0;    ///< layers with no saturation possible
  std::size_t flagged = 0;            ///< layers the analysis flagged
  std::uint64_t measured_total = 0;   ///< sum of the measured counters
  std::size_t violations = 0;  ///< statically safe layers that clipped
  bool consistent = false;     ///< violations == 0
};

/// `checks` from check_quant_saturation, `measured` indexed by the same
/// layer order; throws std::invalid_argument on a length mismatch.
SaturationCrossCheck cross_check_saturation(
    const std::vector<QuantSaturationCheck>& checks,
    std::span<const std::uint64_t> measured);

}  // namespace sx::verify
