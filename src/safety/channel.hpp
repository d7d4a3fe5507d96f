// The SAFEXPLAIN safety-pattern ladder (pillar 2).
//
// Each pattern wraps DL inference in an increasingly sophisticated
// fault-detection/-tolerance architecture:
//
//   single        bare StaticEngine (QM / baseline)
//   monitored     + envelope monitor (fail-stop on implausible outputs)
//   dmr           duplication with comparison (fail-stop on divergence)
//   tmr           triplication with median vote (fault masking)
//   diverse-tmr   diverse triplication: float / int8 / float replicas with
//                 argmax majority vote (common-cause defence)
//   safety-bag    any channel + trust supervisor + rule-based fallback
//                 (fail-operational: degrades instead of stopping). The
//                 bag computes the decision's one trust score itself,
//                 through the pipeline's supervise::TapScorer over the
//                 clean deployed model; the pipeline's supervisor stage
//                 reuses it instead of scoring a second time.
//
// Channels own *copies* of the deployed model so that fault injection into
// one replica models an SEU in that replica's weight memory.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dl/engine.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "obs/registry.hpp"
#include "safety/fault.hpp"
#include "safety/monitor.hpp"
#include "supervise/tap_scorer.hpp"

namespace sx::safety {

class InferenceChannel {
 public:
  virtual ~InferenceChannel() = default;

  virtual std::string_view pattern_name() const noexcept = 0;

  /// Runs one inference; `out` must hold output_size() floats.
  virtual Status infer(tensor::ConstTensorView in,
                       std::span<float> out) noexcept = 0;

  virtual std::size_t output_size() const noexcept = 0;

  /// Number of model replicas (fault-injection targets).
  virtual std::size_t replica_count() const noexcept { return 1; }
  /// Model replica `i`. Planned engines (kWide — what kAuto resolves to)
  /// snapshot its weights into panels at deploy time, so they cannot see
  /// an in-place write to replica(i) until refresh_replica(i) runs.
  virtual dl::Model& replica(std::size_t i) = 0;

  /// Re-snapshots the weight panels of the engine(s) reading replica `i`
  /// from its live parameters. Call it after writing replica(i) in place;
  /// inject_fault/undo_fault call it themselves. No-op by default, for
  /// channels whose inference reads the weights live.
  virtual void refresh_replica(std::size_t i) { (void)i; }

  /// Injects one fault into replica `i`'s *deployed* parameter memory and
  /// returns the record for undo_fault(). The default targets the float
  /// parameters of replica(i); a channel whose inference reads a different
  /// representation (e.g. QuantChannel's int8 weight store) overrides both
  /// hooks so campaigns mutate memory the inference path actually reads —
  /// faults into an unread twin would measure nothing.
  virtual FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                                   FaultType type) {
    FaultRecord rec = injector.inject(replica(i), type);
    refresh_replica(i);
    return rec;
  }
  /// Removes the fault recorded by inject_fault().
  virtual void undo_fault(std::size_t i, const FaultRecord& rec) {
    FaultInjector::restore(replica(i), rec);
    refresh_replica(i);
  }

  /// True if the previous infer() produced a fallback (degraded) output.
  virtual bool last_degraded() const noexcept { return false; }

  /// The deploy-time float kernel plan of replica 0's engine, when the
  /// channel runs planned kernels (nullptr in reference mode or when the
  /// channel deploys no float StaticEngine of its own, e.g. QuantChannel).
  /// Lets the pipeline attach the plan's IR pass evidence to the audit
  /// chain without knowing the concrete pattern.
  virtual const dl::KernelPlan* float_kernel_plan() const noexcept {
    return nullptr;
  }

  /// Registers and binds this pattern's telemetry counters (configuration
  /// time; no-op by default). Wrapper channels forward to their inner
  /// channel. The registry must outlive the channel.
  virtual void bind_telemetry(obs::Registry& registry) { (void)registry; }
};

/// Bare engine, no protection.
class SingleChannel final : public InferenceChannel {
 public:
  explicit SingleChannel(const dl::Model& model,
                         dl::StaticEngineConfig cfg = {.check_numeric_faults =
                                                           false});

  std::string_view pattern_name() const noexcept override { return "single"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return model_->output_shape().size();
  }
  dl::Model& replica(std::size_t) override { return *model_; }

  void refresh_replica(std::size_t) override { engine_->repack(); }

  const dl::KernelPlan* float_kernel_plan() const noexcept override {
    return engine_->kernel_plan();
  }

 private:
  std::unique_ptr<dl::Model> model_;
  std::unique_ptr<dl::StaticEngine> engine_;
};

/// Engine + envelope monitor (fail-stop).
class MonitoredChannel final : public InferenceChannel {
 public:
  MonitoredChannel(const dl::Model& model, MonitorConfig cfg,
                   dl::StaticEngineConfig engine_cfg = {
                       .check_numeric_faults = true});

  std::string_view pattern_name() const noexcept override {
    return "monitored";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return model_->output_shape().size();
  }
  dl::Model& replica(std::size_t) override { return *model_; }

  void refresh_replica(std::size_t) override { engine_->repack(); }

  const SafetyMonitor& monitor() const noexcept { return monitor_; }

  const dl::KernelPlan* float_kernel_plan() const noexcept override {
    return engine_->kernel_plan();
  }

  void bind_telemetry(obs::Registry& registry) override {
    monitor_.bind_telemetry(&registry,
                            registry.counter("sx_monitor_rejections_total"));
  }

 private:
  std::unique_ptr<dl::Model> model_;
  std::unique_ptr<dl::StaticEngine> engine_;
  SafetyMonitor monitor_;
};

/// Dual modular redundancy: two replicas, compare, fail-stop on divergence.
class DmrChannel final : public InferenceChannel {
 public:
  DmrChannel(const dl::Model& model, float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "dmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return models_[0]->output_shape().size();
  }
  std::size_t replica_count() const noexcept override { return 2; }
  dl::Model& replica(std::size_t i) override { return *models_.at(i); }

  void refresh_replica(std::size_t i) override { engines_.at(i)->repack(); }

  std::uint64_t divergences() const noexcept { return divergences_; }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    divergences_id_ = registry.counter("sx_dmr_divergences_total");
  }

 private:
  std::vector<std::unique_ptr<dl::Model>> models_;
  std::vector<std::unique_ptr<dl::StaticEngine>> engines_;
  std::vector<float> scratch_;
  float tolerance_;
  std::uint64_t divergences_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId divergences_id_{};
};

/// Triple modular redundancy with element-wise median vote (fault masking).
class TmrChannel final : public InferenceChannel {
 public:
  TmrChannel(const dl::Model& model, float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "tmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return models_[0]->output_shape().size();
  }
  std::size_t replica_count() const noexcept override { return 3; }
  dl::Model& replica(std::size_t i) override { return *models_.at(i); }

  void refresh_replica(std::size_t i) override { engines_.at(i)->repack(); }

  /// Votes in which at least one replica disagreed (masked faults).
  std::uint64_t masked_votes() const noexcept { return masked_; }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    masked_id_ = registry.counter("sx_tmr_masked_votes_total");
  }

 private:
  std::vector<std::unique_ptr<dl::Model>> models_;
  std::vector<std::unique_ptr<dl::StaticEngine>> engines_;
  std::vector<float> scratch_;  // 3 * output buffers
  float tolerance_;
  std::uint64_t masked_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId masked_id_{};
};

/// Diverse redundancy: float replica, int8-quantized replica and a second
/// float replica vote on the *argmax*; ties broken toward replica 0. Output
/// logits come from the first float replica agreeing with the majority.
class DiverseTmrChannel final : public InferenceChannel {
 public:
  DiverseTmrChannel(const dl::Model& model, const dl::Dataset& calibration);

  std::string_view pattern_name() const noexcept override {
    return "diverse-tmr";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return models_[0]->output_shape().size();
  }
  /// Replicas 0 and 1 are the float models; the quantized replica is not
  /// exposed for parameter-level injection.
  std::size_t replica_count() const noexcept override { return 2; }
  dl::Model& replica(std::size_t i) override { return *models_.at(i); }

  void refresh_replica(std::size_t i) override { engines_.at(i)->repack(); }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    masked_id_ = registry.counter("sx_diverse_masked_votes_total");
  }

 private:
  std::vector<std::unique_ptr<dl::Model>> models_;  // two float replicas
  std::vector<std::unique_ptr<dl::StaticEngine>> engines_;
  std::unique_ptr<dl::QuantizedModel> qmodel_;
  std::vector<float> scratch_;
  std::uint64_t masked_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId masked_id_{};
};

/// Planned int8 inference as a safety channel: the quantized deployment
/// backend of the pipeline (BackendKind::kInt8). Wraps a private
/// dl::QuantEngine over an owned copy of the quantized model. Fault
/// injection targets the deployed int8 weight store (inject_fault
/// override), not the float twin — the engine never reads the twin, so
/// faults there would be invisible and a campaign would report vacuous
/// 100% masking. The float twin is retained as replica(0) only for
/// structural introspection (layer geometry, replica_count bookkeeping).
class QuantChannel final : public InferenceChannel {
 public:
  /// `model` is the (folded) float twin the quantization was produced
  /// from; `quantized` is the deployed int8 model. The channel owns
  /// copies of both. A non-null `monitor` adds the envelope monitor of the
  /// "monitored" pattern around the int8 engine (fail-stop on implausible
  /// inputs/outputs) — the int8 ladder rung required above QM.
  QuantChannel(const dl::Model& model, const dl::QuantizedModel& quantized,
               dl::QuantEngineConfig cfg = {},
               const MonitorConfig* monitor = nullptr);

  std::string_view pattern_name() const noexcept override {
    return monitor_ ? "int8-monitored" : "int8-single";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return qmodel_->output_shape().size();
  }
  /// The float twin (introspection only — NOT the fault-injection target;
  /// see inject_fault).
  dl::Model& replica(std::size_t) override { return *model_; }

  /// Re-snapshots the int8 engine's panels from the deployed int8 store
  /// (the float twin is never read).
  void refresh_replica(std::size_t) override { engine_->repack(); }
  /// Injects into the deployed int8 weights and re-snapshots the plan's
  /// panels, so the planned engine computes with the faulted bits.
  FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                           FaultType type) override;
  void undo_fault(std::size_t i, const FaultRecord& rec) override;

  const dl::QuantizedModel& quantized() const noexcept { return *qmodel_; }
  const dl::QuantEngine& engine() const noexcept { return *engine_; }
  /// The deploy-time plan driving the engine (nullptr in reference mode).
  const dl::QuantKernelPlan* kernel_plan() const noexcept {
    return engine_->plan();
  }
  /// Cumulative requantization clips across every infer().
  std::uint64_t saturation_total() const noexcept {
    return engine_->saturation_total();
  }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    sat_id_ = registry.counter("sx_quant_saturations_total");
    if (monitor_)
      monitor_->bind_telemetry(
          &registry, registry.counter("sx_monitor_rejections_total"));
  }

 private:
  std::unique_ptr<dl::Model> model_;  // float twin, fault-injection target
  std::unique_ptr<dl::QuantizedModel> qmodel_;
  std::unique_ptr<dl::QuantEngine> engine_;
  std::unique_ptr<SafetyMonitor> monitor_;  // null for the bare rung
  obs::Registry* obs_ = nullptr;
  obs::CounterId sat_id_{};
  std::uint64_t reported_sats_ = 0;  // saturations already pushed to obs
};

/// Fail-operational safety bag: primary channel + (optional) trust
/// scorer + deterministic fallback output (e.g. "assume obstacle").
class SafetyBagChannel final : public InferenceChannel {
 public:
  /// `fallback_logits` is the conservative output substituted when the
  /// primary fails or the scorer rejects. `scorer` may be null (then only
  /// channel-status failures trigger the fallback); it must outlive the
  /// bag.
  SafetyBagChannel(std::unique_ptr<InferenceChannel> primary,
                   supervise::TapScorer* scorer,
                   std::vector<float> fallback_logits);

  std::string_view pattern_name() const noexcept override {
    return "safety-bag";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return primary_->output_size();
  }
  std::size_t replica_count() const noexcept override {
    return primary_->replica_count();
  }
  dl::Model& replica(std::size_t i) override { return primary_->replica(i); }
  void refresh_replica(std::size_t i) override {
    primary_->refresh_replica(i);
  }
  /// Forwarded so a wrapped channel's own injection surface (e.g. a
  /// QuantChannel primary's int8 weights) stays effective under the bag.
  FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                           FaultType type) override {
    return primary_->inject_fault(injector, i, type);
  }
  void undo_fault(std::size_t i, const FaultRecord& rec) override {
    primary_->undo_fault(i, rec);
  }
  bool last_degraded() const noexcept override { return degraded_; }
  const dl::KernelPlan* float_kernel_plan() const noexcept override {
    return primary_->float_kernel_plan();
  }

  /// The trust score the previous infer() took: only when the primary
  /// succeeded, a scorer is attached and its tap succeeded.
  std::optional<double> last_score() const noexcept { return score_; }

  std::uint64_t fallback_activations() const noexcept { return fallbacks_; }

  void bind_telemetry(obs::Registry& registry) override {
    primary_->bind_telemetry(registry);
  }

 private:
  std::unique_ptr<InferenceChannel> primary_;
  supervise::TapScorer* scorer_;
  std::vector<float> fallback_;
  std::optional<double> score_;
  bool degraded_ = false;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace sx::safety
