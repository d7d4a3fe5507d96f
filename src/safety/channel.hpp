// The SAFEXPLAIN safety-pattern ladder (pillar 2).
//
// Each pattern wraps DL inference in an increasingly sophisticated
// fault-detection/-tolerance architecture:
//
//   single        one replica, no protection (QM / baseline)
//   monitored     + envelope monitor (fail-stop on implausible outputs);
//                 single and monitored are one EngineChannel, whose
//                 replica is float or int8 (the int8 rungs are named
//                 int8-single / int8-monitored)
//   dmr           duplication with comparison (fail-stop on divergence)
//   tmr           triplication with median vote (fault masking)
//   diverse-tmr   diverse triplication: float / float / int8 replicas
//                 with argmax majority vote (common-cause defence)
//   safety-bag    any channel + trust supervisor + rule-based fallback
//                 (fail-operational: degrades instead of stopping). The
//                 bag computes the decision's one trust score itself,
//                 through the pipeline's supervise::TapScorer over the
//                 clean deployed model; the pipeline's supervisor stage
//                 reuses it instead of scoring a second time.
//
// Every channel holds its replicas as Replica values: an owned float or
// int8 model plus the planned engine that reads it, built at the
// deployment's kernel mode. Fault injection into one replica models an SEU
// in that replica's weight memory and lands in the weights its engine
// actually reads (the int8 store for an int8 replica).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dl/engine.hpp"
#include "dl/quant.hpp"
#include "obs/registry.hpp"
#include "safety/fault.hpp"
#include "safety/monitor.hpp"
#include "supervise/tap_scorer.hpp"

namespace sx::safety {

/// One redundant copy of the DL component: an owned float or int8 model
/// plus the engine that runs it. Planned engines (kWide — what kAuto
/// resolves to) snapshot the weights into panels at deploy time, so code
/// that writes model() in place must call refresh(); inject_fault and
/// undo_fault do so themselves.
class Replica {
 public:
  /// A float replica: owns `model` and a StaticEngine over it.
  explicit Replica(dl::Model model, dl::StaticEngineConfig cfg = {});
  /// An int8 replica: owns `model` and a QuantEngine over it.
  explicit Replica(dl::QuantizedModel model,
                   dl::KernelMode kernels = dl::KernelMode::kAuto);

  Status run(tensor::ConstTensorView in, std::span<float> out) noexcept {
    return engine_->run(in, out);
  }
  const dl::Engine& engine() const noexcept { return *engine_; }
  dl::ElemType elem() const noexcept { return engine_->elem(); }
  std::size_t output_size() const noexcept { return output_size_; }

  /// The owned float model (std::logic_error on an int8 replica).
  dl::Model& model();

  /// Re-snapshots the engine's panels from the live weights.
  void refresh() noexcept { engine_->repack(); }
  /// Injects one fault into the weights the engine reads and returns the
  /// record for undo_fault().
  FaultRecord inject_fault(FaultInjector& injector, FaultType type);
  /// Removes the fault recorded by inject_fault(), bitwise.
  void undo_fault(const FaultRecord& rec);

 private:
  std::unique_ptr<dl::Model> model_;            // float replicas
  std::unique_ptr<dl::QuantizedModel> qmodel_;  // int8 replicas
  std::unique_ptr<dl::Engine> engine_;
  std::size_t output_size_ = 0;
};

class InferenceChannel {
 public:
  virtual ~InferenceChannel() = default;

  virtual std::string_view pattern_name() const noexcept = 0;

  /// Runs one inference; `out` must hold output_size() floats.
  virtual Status infer(tensor::ConstTensorView in,
                       std::span<float> out) noexcept = 0;

  virtual std::size_t output_size() const noexcept = 0;

  /// The model replicas this channel runs (the fault-injection targets),
  /// replica 0 first.
  virtual std::span<Replica> replicas() noexcept = 0;
  std::span<const Replica> replicas() const noexcept {
    return const_cast<InferenceChannel*>(this)->replicas();
  }
  std::size_t replica_count() const noexcept { return replicas().size(); }
  /// Replica `i` (std::out_of_range past replica_count()).
  Replica& replica(std::size_t i);

  /// Injects one fault into replica `i`'s *deployed* weights — the store
  /// its engine reads, so a campaign never faults an unread twin — and
  /// returns the record for undo_fault().
  FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                           FaultType type) {
    return replica(i).inject_fault(injector, type);
  }
  /// Removes the fault recorded by inject_fault().
  void undo_fault(std::size_t i, const FaultRecord& rec) {
    replica(i).undo_fault(rec);
  }

  /// Replica 0's deploy-time plan, float or int8: the deployment's plan
  /// evidence (nullptr under the reference loops). Lets the pipeline
  /// attach the plan's IR pass evidence to the audit chain without
  /// knowing the concrete pattern.
  const dl::PlanEvidence* plan() const noexcept {
    const auto r = replicas();
    return r.empty() ? nullptr : r.front().engine().plan();
  }

  /// True if the previous infer() produced a fallback (degraded) output.
  virtual bool last_degraded() const noexcept { return false; }

  /// Registers and binds this pattern's telemetry counters (configuration
  /// time; no-op by default). Wrapper channels forward to their inner
  /// channel. The registry must outlive the channel.
  virtual void bind_telemetry(obs::Registry& registry) { (void)registry; }
};

/// A pattern event counter (divergences, masked votes), mirrored into a
/// telemetry counter once bound.
class EventCounter {
 public:
  void bind(obs::Registry& registry, std::string_view name) {
    obs_ = &registry;
    id_ = registry.counter(name);
  }
  void hit() noexcept {
    ++n_;
    if (obs_ != nullptr) obs_->add(id_);
  }
  std::uint64_t value() const noexcept { return n_; }

 private:
  std::uint64_t n_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId id_{};
};

/// One replica, optionally behind the envelope monitor: the single and
/// monitored rungs for either element type. An int8 channel mirrors its
/// engine's requantization clips into sx_quant_saturations_total.
class EngineChannel final : public InferenceChannel {
 public:
  /// A set `monitor` adds the monitored rung's envelope checks (fail-stop
  /// on implausible inputs/outputs).
  explicit EngineChannel(Replica replica,
                         std::optional<MonitorConfig> monitor = std::nullopt);

  std::string_view pattern_name() const noexcept override;
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replica_.output_size();
  }
  std::span<Replica> replicas() noexcept override { return {&replica_, 1}; }

  void bind_telemetry(obs::Registry& registry) override;

 private:
  Replica replica_;
  std::optional<SafetyMonitor> monitor_;  // empty on the single rung
  obs::Registry* obs_ = nullptr;          // bound for int8 replicas only
  obs::CounterId sat_id_{};
  std::uint64_t reported_sats_ = 0;  // saturations already pushed to obs
};

/// Dual modular redundancy: two replicas, compare, fail-stop on divergence.
class DmrChannel final : public InferenceChannel {
 public:
  explicit DmrChannel(const dl::Model& model,
                      dl::KernelMode kernels = dl::KernelMode::kAuto,
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "dmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].output_size();
  }
  std::span<Replica> replicas() noexcept override { return replicas_; }

  std::uint64_t divergences() const noexcept { return divergences_.value(); }

  void bind_telemetry(obs::Registry& registry) override {
    divergences_.bind(registry, "sx_dmr_divergences_total");
  }

 private:
  std::vector<Replica> replicas_;
  std::vector<float> scratch_;
  float tolerance_;
  EventCounter divergences_;
};

/// Triple modular redundancy with element-wise median vote (fault masking).
class TmrChannel final : public InferenceChannel {
 public:
  explicit TmrChannel(const dl::Model& model,
                      dl::KernelMode kernels = dl::KernelMode::kAuto,
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "tmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].output_size();
  }
  std::span<Replica> replicas() noexcept override { return replicas_; }

  /// Votes in which at least one replica disagreed (masked faults).
  std::uint64_t masked_votes() const noexcept { return masked_.value(); }

  void bind_telemetry(obs::Registry& registry) override {
    masked_.bind(registry, "sx_tmr_masked_votes_total");
  }

 private:
  std::vector<Replica> replicas_;
  std::vector<float> scratch_;  // 3 * output buffers
  float tolerance_;
  EventCounter masked_;
};

/// Diverse redundancy: two float replicas and an int8-quantized replica
/// (replica 2, quantized against `calibration`) vote on the *argmax*; ties
/// broken toward replica 0. Output logits come from the first float
/// replica agreeing with the majority. All three are injectable.
class DiverseTmrChannel final : public InferenceChannel {
 public:
  DiverseTmrChannel(const dl::Model& model, const dl::Dataset& calibration,
                    dl::KernelMode kernels = dl::KernelMode::kAuto);

  std::string_view pattern_name() const noexcept override {
    return "diverse-tmr";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].output_size();
  }
  std::span<Replica> replicas() noexcept override { return replicas_; }

  /// Votes in which at least one replica disagreed (masked faults).
  std::uint64_t masked_votes() const noexcept { return masked_.value(); }

  void bind_telemetry(obs::Registry& registry) override {
    masked_.bind(registry, "sx_diverse_masked_votes_total");
  }

 private:
  std::vector<Replica> replicas_;  // float, float, int8
  std::vector<float> scratch_;
  EventCounter masked_;
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
  /// The primary's replicas, so injection reaches what it runs.
  std::span<Replica> replicas() noexcept override {
    return primary_->replicas();
  }
  bool last_degraded() const noexcept override { return degraded_; }

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
