// CertifiablePipeline: the SAFEXPLAIN runtime stack.
//
// Composes, according to a criticality-derived specification:
//   ODD guard -> safety-pattern inference channel -> trust supervisor ->
//   fallback -> watchdog (timing budget) -> audit log,
// with per-decision evidence (confidence, supervisor score, explanation on
// demand) and deployment-time provenance verification.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "core/criticality.hpp"
#include "dl/batch.hpp"
#include "dl/dataset.hpp"
#include "explain/explainer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "safety/channel.hpp"
#include "safety/watchdog.hpp"
#include "supervise/drift.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/tap_scorer.hpp"
#include "trace/audit.hpp"
#include "trace/odd.hpp"
#include "trace/provenance.hpp"
#include "trace/safety_case.hpp"
#include "verify/range.hpp"

namespace sx::core {

/// Deployment backend for the inference channel (pillar 3).
///
/// kFloat32 serves the planned float StaticEngine stack. kInt8 folds
/// BatchNorm, quantizes the model against the calibration set and serves
/// traffic, infer() and infer_batch() alike, through int8 safety::Replicas
/// (the single/monitored safety::EngineChannel, wrapped in the safety bag
/// when the spec demands one). The int8 backend currently deploys up to the
/// "monitored" rung, so kInt8 is admissible up to SIL2; DMR and above
/// reject it at deploy time (their int8 replicas need their own fault
/// campaigns first). SIL4's diverse-TMR carries an int8 voter under
/// either backend; the deployment quantizes once for both. The supervisor is fitted on, and scores, the features
/// the deployed element type taps: dequantized int8 features under kInt8.
enum class BackendKind : std::uint8_t { kFloat32, kInt8 };

const char* to_string(BackendKind b) noexcept;

struct PipelineConfig {
  Criticality criticality = Criticality::kQM;
  /// Inference backend (see BackendKind). The deployment's one
  /// quantization (the kInt8 replicas, diverse TMR's int8 voter) scales
  /// weights per output channel.
  BackendKind backend = BackendKind::kFloat32;
  /// Hot-path kernel selection, the pipeline's one kernel knob: forwarded
  /// to every replica of every channel (float or int8, every pattern) and
  /// the supervisor's calibration engine; the static-verification gate
  /// checks those replicas' engines as built. Both modes are bitwise
  /// identical by construction — the scenario sweeper crosses this axis
  /// to *prove* it per deployment. kAuto resolves to
  /// kWide, or to kReference under SX_KERNEL_REFERENCE (see
  /// dl::resolve_kernel_mode).
  dl::KernelMode kernel_mode = dl::KernelMode::kAuto;
  /// When unset, the spec recommended for `criticality` is used.
  std::optional<PipelineSpec> spec;
  /// Conservative class: the safety bag substitutes logits one-hot on it,
  /// and every rejected decision reports it.
  std::size_t fallback_class = 0;
  /// Timing budget in logical time units (used when the spec demands one).
  std::uint64_t timing_budget = 0;
  /// Supervisor acceptance rate on in-distribution data.
  double supervisor_tpr = 0.95;
  /// Partitions of the deterministic batch path. The pipeline deploys
  /// max(1, batch_workers) channels, one per partition; channel 0 is the
  /// caller's and also serves infer(). 0 and 1 both mean the caller runs
  /// every item and no thread starts.
  std::size_t batch_workers = 0;
  /// Telemetry: when enabled, an obs::Registry (counters + per-stage
  /// latency histograms) and an obs::FlightRecorder (stage-trail ring) are
  /// allocated at deploy time and populated on every decision. All metric
  /// values are deterministic across batch_workers settings; histogram
  /// contents additionally require a deterministic telemetry_config.clock.
  bool enable_telemetry = true;
  obs::RegistryConfig telemetry_config;
  std::size_t flight_recorder_capacity = 256;
};

/// Per-inference outcome with its evidence trail.
struct Decision {
  Status status = Status::kOk;
  std::size_t predicted_class = 0;
  float confidence = 0.0f;     ///< max softmax probability
  bool degraded = false;       ///< fallback output used
  double supervisor_score = 0.0;
  std::uint64_t audit_sequence = 0;  ///< audit-log entry for this decision
};

class CertifiablePipeline {
 public:
  /// Builds and *fits* the full stack from a trained model and calibration
  /// data. Throws if the resulting spec is not admissible at the requested
  /// criticality.
  CertifiablePipeline(const dl::Model& model, const dl::Dataset& calibration,
                      PipelineConfig cfg);

  /// Runs one decision. `logical_time` drives the watchdog/audit clock;
  /// `elapsed` is the execution time of this inference in the same logical
  /// units: the watchdog is armed at logical_time and kicked at
  /// logical_time + elapsed (ignored when no timing budget is configured).
  Decision infer(const tensor::Tensor& input, std::uint64_t logical_time = 0,
                 std::uint64_t elapsed = 0);

  /// Runs one decision per input through the deterministic batch pool.
  /// An input of the wrong shape fail-stops its own decision with
  /// kShapeMismatch, as in infer(); the rest of the batch decides. ODD
  /// verdicts are taken serially up front; item i then runs on channel
  /// i % max(1, batch_workers) — the deployed safety pattern, bag included — with
  /// a static partition, so decisions, counters and the audit trail are
  /// identical for every worker count. An ODD-rejected item never reaches
  /// a channel, as in infer(). Every item then passes the same stage
  /// sequence as infer(), serially in batch-index order: refusal, ODD
  /// reject, watchdog (armed at logical_time and kicked at logical_time +
  /// elapsed for every item, as in infer(); no measured time feeds it),
  /// fail-stop, supervisor score (the bag's, or a solve on the features
  /// the item's own channel run tapped), drift tracking and audit entry.
  /// The inputs are read in place; they must stay valid for the call.
  std::vector<Decision> infer_batch(
      std::span<const tensor::ConstTensorView> inputs,
      std::uint64_t logical_time = 0, std::uint64_t elapsed = 0);
  /// infer_batch() over owned tensors.
  std::vector<Decision> infer_batch(
      const std::vector<tensor::Tensor>& inputs,
      std::uint64_t logical_time = 0, std::uint64_t elapsed = 0);

  /// On-demand explanation for the latest decision's input.
  tensor::Tensor explain(const tensor::Tensor& input,
                         std::size_t target_class);

  const PipelineSpec& spec() const noexcept { return spec_; }
  Criticality criticality() const noexcept { return cfg_.criticality; }
  const trace::AuditLog& audit() const noexcept { return audit_; }
  const trace::ModelCard& model_card() const noexcept { return card_; }

  /// One-line resolved-backend record, fixed at deploy time: the requested
  /// kernel mode, the mode actually deployed (derived from the channel's
  /// replica-0 plan, so after the SX_KERNEL_REFERENCE escape hatch), and —
  /// when that plan is kWide — the CPU-probe / SX_KERNEL_ISA selection
  /// audit. Also appended to the audit log as the "kernel-backend" entry
  /// and published in the certification report's SX_KERNEL_BACKEND block,
  /// so evidence is never misattributed to a mode that did not run.
  const std::string& kernel_backend() const noexcept {
    return kernel_backend_;
  }

  /// Deployment-time integrity gate: does the deployed model still match
  /// the card's provenance hash?
  Status verify_integrity() const;

  /// Builds the GSN safety case for this deployment; complete() holds iff
  /// every goal is backed by evidence produced by this pipeline.
  trace::SafetyCase build_safety_case() const;

  std::uint64_t decisions() const noexcept { return decisions_; }
  std::uint64_t rejections() const noexcept { return rejections_; }
  std::uint64_t fallbacks() const noexcept { return fallbacks_; }

  /// Stream-level drift alarm (only meaningful when the spec includes a
  /// supervisor — the detector runs on its score stream).
  bool drift_alarmed() const noexcept {
    return drift_ && drift_->alarmed();
  }

  /// Batch pool, max(1, batch_workers) partitions — exposes the
  /// per-worker observability counters for certification evidence.
  const dl::BatchRunner* batch_runner() const noexcept {
    return batch_.get();
  }

  /// Telemetry registry (null when cfg.enable_telemetry is false). The
  /// non-const overload exists so callers can drain_samples() the stage
  /// histograms into timing::analyze().
  const obs::Registry* telemetry() const noexcept { return obs_.get(); }
  obs::Registry* telemetry() noexcept { return obs_.get(); }

  /// Flight recorder (null when cfg.enable_telemetry is false).
  const obs::FlightRecorder* flight_recorder() const noexcept {
    return fdr_.get();
  }

  /// Evidence of the pre-flight static verification pass (null when the
  /// spec does not demand one, i.e. below SIL3): the float model's range
  /// analysis and one engine check per replica of every deployed channel.
  const verify::VerificationEvidence* static_verification() const noexcept {
    return verify_.get();
  }

  /// True when the pre-flight gate refused the model: the pipeline is
  /// deployed in refuse-only mode and every infer() degrades to fallback
  /// without running the DL component.
  bool verification_refused() const noexcept { return verify_refused_; }

  BackendKind backend() const noexcept { return cfg_.backend; }

  /// The deployed quantized model (null unless backend() == kInt8, and
  /// null when the static gate refused the model before quantization).
  const dl::QuantizedModel* quantized_model() const noexcept {
    return cfg_.backend == BackendKind::kInt8 ? quant_.get() : nullptr;
  }
  /// The fitted trust supervisor and its CUSUM drift detector (null
  /// unless the spec includes a supervisor and the model deployed).
  const supervise::MahalanobisSupervisor* supervisor() const noexcept {
    return supervisor_.get();
  }
  const supervise::CusumDetector* drift_detector() const noexcept {
    return drift_.get();
  }
  /// The deployed inference channel that infer() runs, channel 0 — safety
  /// bag included when the spec demands one; null in refuse-only mode. It
  /// also runs partition 0 of every infer_batch(). Exposed so
  /// fault-injection campaigns (safety::run_campaign, the scenario
  /// sweeper) exercise the *deployed* channel instead of rebuilding a
  /// structural twin.
  safety::InferenceChannel* channel() noexcept {
    return channels_.empty() ? nullptr : channels_.front().get();
  }
  const safety::InferenceChannel* channel() const noexcept {
    return channels_.empty() ? nullptr : channels_.front().get();
  }
  /// Requantization clips observed so far, summed over every channel's
  /// replica 0 (0 for the float backend). Deterministic: depends only on
  /// the served inputs.
  std::uint64_t quant_saturation_total() const noexcept;

  /// Cross-checks the static saturation-margin verdicts (computed at
  /// deploy time into static_verification()->quant) against the measured
  /// runtime clip counters, summed over the int8 channels. Throws
  /// std::logic_error unless the pipeline deployed with kInt8 and static
  /// verification.
  verify::SaturationCrossCheck quant_saturation_cross_check() const;

 private:
  /// Counts `id` (no-op when telemetry is off).
  void obs_count(obs::CounterId id) noexcept {
    if (obs_) obs_->add(id);
  }
  /// Records a stage span for the current decision ordinal.
  void obs_span(obs::Stage stage, Status st, bool degraded, std::uint64_t t0,
                std::uint64_t t1) noexcept {
    if (fdr_)
      fdr_->record(obs::StageSpan{decisions_, stage, st, degraded, t0, t1});
  }
  /// Closes a decision: whole-decision histogram + summary span.
  void obs_finish_decision(const Decision& d, std::uint64_t t0) noexcept;

  /// ODD verdict of one input with its span (kOk when there is no guard).
  struct OddVerdict {
    Status status = Status::kOk;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
  };
  /// What infer() and infer_batch() differ in for one decision, handed to
  /// the shared stage sequence as data.
  struct ItemContext {
    tensor::ConstTensorView input;
    std::uint64_t logical_time = 0;
    std::uint64_t t_decision = 0;   ///< telemetry clock at decision start
    OddVerdict odd;
    std::uint64_t elapsed = 0;      ///< execution time fed to the watchdog
    const char* component = nullptr;  ///< audit actor of the engine
    std::optional<std::size_t> batch_index;  ///< prefixes audit payloads
  };
  /// Outcome of the inference stage as the entry point measured it.
  struct InferenceOutcome {
    Status status = Status::kOk;
    std::uint64_t t0 = 0;  ///< inference span (telemetry clock)
    std::uint64_t t1 = 0;
    std::span<const float> logits;
    bool degraded = false;  ///< logits are the fallback (or status failed)
    /// The supervisor's features from the same engine run (empty when
    /// nothing was tapped).
    std::span<const float> features;
    std::optional<double> score;  ///< the safety bag's, when it took one
  };

  OddVerdict guard(tensor::ConstTensorView input) noexcept;
  /// Channel `k` on one input, stamped with `clock` (0s without one): the
  /// inference stage of infer() and of each infer_batch() item. Features
  /// land in `tap`; logits and features in the outcome alias its spans.
  InferenceOutcome run_channel(std::size_t k, tensor::ConstTensorView input,
                               std::span<float> logits, std::span<float> tap,
                               obs::ClockFn clock) noexcept;
  /// Views of `inputs` in views_ (grow-only).
  std::span<const tensor::ConstTensorView> views_of(
      const std::vector<tensor::Tensor>& inputs);
  /// First half of the per-decision sequence: refusal, ODD reject and
  /// watchdog. Returns false when `d` is already decided (degraded).
  bool admit(Decision& d, const ItemContext& c);
  /// Second half, after inference: fail-stop, fallback, supervisor score
  /// and drift tracking, softmax decision and its audit entry.
  void decide(Decision& d, const ItemContext& c, const InferenceOutcome& r);
  /// Degrades `d` to the fallback class with status `st` and one audit
  /// entry; `detail` defaults to "status=<st>".
  void reject(Decision& d, const ItemContext& c, Status st, const char* actor,
              const char* action, std::string_view detail = {});

  PipelineConfig cfg_;
  PipelineSpec spec_;
  std::unique_ptr<dl::Model> model_;  // deployed copy
  // The deployment's one quantization (kInt8, or diverse TMR's voter):
  // every int8 replica copies it. Null otherwise.
  std::unique_ptr<dl::QuantizedModel> quant_;
  // Telemetry must outlive (and be registered before) every component that
  // binds counters into it — the batch pool and the channels in particular.
  std::unique_ptr<obs::Registry> obs_;
  std::unique_ptr<obs::FlightRecorder> fdr_;
  std::unique_ptr<dl::BatchRunner> batch_;
  std::unique_ptr<supervise::MahalanobisSupervisor> supervisor_;
  // One scorer per channel, declared before channels_, whose safety bags
  // point at them: a scorer's solve scratch is not shareable across pool
  // workers. Scorer 0 also scores the taps of bag-less channels, serially.
  std::vector<std::unique_ptr<supervise::TapScorer>> scorers_;
  // One channel per pool worker; channel 0 serves infer() too.
  std::vector<std::unique_ptr<safety::InferenceChannel>> channels_;
  std::vector<safety::SafetyBagChannel*> bags_;  // views; null without a bag
  std::unique_ptr<supervise::CusumDetector> drift_;
  std::unique_ptr<trace::OddGuard> odd_;
  std::unique_ptr<explain::Explainer> explainer_;
  std::unique_ptr<verify::VerificationEvidence> verify_;
  bool verify_refused_ = false;
  safety::Watchdog watchdog_;
  trace::AuditLog audit_;
  std::string kernel_backend_;
  trace::ModelCard card_;
  std::vector<float> out_buf_;
  std::vector<float> feat_;  // infer()'s feature tap (empty: no supervisor)
  std::vector<float> probs_;  // softmax of the decided logits
  std::vector<float> fallback_;
  // infer_batch() per-item results, grow-only: sized by the largest batch
  // served. Item i's slots are written only by the worker that runs it.
  std::vector<float> batch_logits_;
  std::vector<float> batch_taps_;
  std::vector<OddVerdict> odd_verdicts_;
  std::vector<InferenceOutcome> outcomes_;
  std::vector<tensor::ConstTensorView> views_;  // see views_of()
  std::uint64_t decisions_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t fallbacks_ = 0;

  obs::CounterId c_decisions_{};
  obs::CounterId c_odd_rej_{};
  obs::CounterId c_sup_rej_{};
  obs::CounterId c_fallback_{};
  obs::CounterId c_wd_overruns_{};
  obs::CounterId c_fault_det_{};
  obs::CounterId c_verify_refusals_{};
  obs::CounterId c_drift_alarms_{};
  obs::GaugeId g_budget_{};
  obs::GaugeId g_sup_threshold_{};
  obs::GaugeId g_drift_cusum_{};
  obs::HistogramId h_odd_{};
  obs::HistogramId h_infer_{};
  obs::HistogramId h_sup_{};
  obs::HistogramId h_decision_{};
  // kInt8 backend telemetry.
  obs::GaugeId g_quant_bytes_{};
  obs::HistogramId h_qinfer_{};
};

}  // namespace sx::core
