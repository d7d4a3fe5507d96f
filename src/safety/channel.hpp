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
//                 bag computes the decision's one trust score itself: the
//                 pipeline's supervise::TapScorer solves on the features
//                 its primary tapped from the replica whose logits it
//                 emitted; the pipeline's supervisor stage reuses that
//                 score instead of scoring a second time.
//
// Every channel holds its replicas as Replica values: an owned float or
// int8 model plus the planned engine that reads it, built at the
// deployment's kernel mode with the supervisor's feature layer pinned.
// infer() can tap that layer in the same forward pass that computes the
// logits, so a supervised decision runs the model once per replica. The
// tap comes from the replica the channel emits, so a fault in that
// replica reaches the supervisor too. Fault injection into one replica
// models an SEU in that replica's weight memory and lands in the weights
// its engine actually reads (the int8 store for an int8 replica).
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

/// The engine a Replica runs over `model`, built at the deployment's
/// kernel mode with the feature layer (dl::feature_layer) pinned so it can
/// tap the supervisor's features. A deployment fits its supervisor through
/// the same builder, so the fit reads the features its channel taps.
/// `model` must outlive the engine.
std::unique_ptr<dl::Engine> make_replica_engine(
    const dl::Model& model, dl::StaticEngineConfig cfg = {});
std::unique_ptr<dl::Engine> make_replica_engine(
    const dl::QuantizedModel& model,
    dl::KernelMode kernels = dl::KernelMode::kAuto);

/// One redundant copy of the DL component: an owned float or int8 model
/// plus the engine that runs it, its plan pinned at the model's feature
/// layer (dl::feature_layer). Planned engines (kWide — what kAuto
/// resolves to) snapshot the weights into panels at deploy time, so code
/// that writes model() in place must call refresh(); inject_fault and
/// undo_fault do so themselves.
class Replica {
 public:
  /// A float replica: owns `model` and a StaticEngine over it
  /// (`cfg.pin_tap_layer` is set to the feature layer).
  explicit Replica(dl::Model model, dl::StaticEngineConfig cfg = {});
  /// An int8 replica: owns `model` and a QuantEngine over it.
  explicit Replica(dl::QuantizedModel model,
                   dl::KernelMode kernels = dl::KernelMode::kAuto);

  /// Runs the engine; a non-empty `tap` (tap_size() floats) also receives
  /// the feature layer's activation from the same run, dequantized for
  /// int8.
  Status run(tensor::ConstTensorView in, std::span<float> out,
             std::span<float> tap = {}) noexcept {
    return tap.empty() ? engine_->run(in, out)
                       : engine_->run_tapped(in, out, tap_layer_, tap);
  }
  const dl::Engine& engine() const noexcept { return *engine_; }
  dl::ElemType elem() const noexcept { return engine_->elem(); }
  std::size_t output_size() const noexcept { return output_size_; }
  /// The pinned feature layer and its width (0 without a Dense layer).
  std::size_t tap_layer() const noexcept { return tap_layer_; }
  std::size_t tap_size() const noexcept { return tap_size_; }

  /// The owned float model (std::logic_error on an int8 replica).
  dl::Model& model();
  /// The owned int8 model (std::logic_error on a float replica).
  const dl::QuantizedModel& quantized_model() const;

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
  std::size_t tap_layer_ = 0;
  std::size_t tap_size_ = 0;
  std::unique_ptr<dl::Engine> engine_;
  std::size_t output_size_ = 0;
};

/// Diverse-TMR's vote on its voters' argmaxes (the two float replicas',
/// then the int8 replica's; kNoVote for a voter whose engine failed): the
/// float replica, 0 or 1, whose logits carry the majority decision —
/// replica 0 when it is in the majority — or kNoVote when no two voters
/// agree. The majority never rests on the int8 replica alone: with at
/// most one voter failed, any agreeing pair holds a float replica.
inline constexpr std::size_t kNoVote = ~std::size_t{0};
std::size_t diverse_vote(std::size_t a0, std::size_t a1,
                         std::size_t aq) noexcept;

class InferenceChannel {
 public:
  virtual ~InferenceChannel() = default;

  virtual std::string_view pattern_name() const noexcept = 0;

  /// Runs one inference; `out` must hold output_size() floats. A
  /// non-empty `tap` (tap_size() floats) also receives the supervisor's
  /// features, taken in the same forward pass from the replica whose
  /// logits the channel emits; it is valid when the status is kOk (for
  /// the safety bag: when the output is not the fallback's).
  Status infer(tensor::ConstTensorView in, std::span<float> out,
               std::span<float> tap = {}) noexcept {
    return infer_impl(in, out, tap);
  }

  virtual std::size_t output_size() const noexcept = 0;
  /// Width of the feature tap: replica 0's (every float replica of a
  /// channel has the same one).
  std::size_t tap_size() const noexcept {
    return replicas().front().tap_size();
  }

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

 private:
  /// The pattern itself; `tap` is empty or tap_size() floats.
  virtual Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                            std::span<float> tap) noexcept = 0;
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
  std::size_t output_size() const noexcept override {
    return replica_.output_size();
  }
  std::span<Replica> replicas() noexcept override { return {&replica_, 1}; }

  void bind_telemetry(obs::Registry& registry) override;

 private:
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  Replica replica_;
  std::optional<SafetyMonitor> monitor_;  // empty on the single rung
  obs::Registry* obs_ = nullptr;          // bound for int8 replicas only
  obs::CounterId sat_id_{};
  std::uint64_t reported_sats_ = 0;  // saturations already pushed to obs
};

/// Dual modular redundancy: two replicas, compare, fail-stop on divergence.
/// The tap is replica 0's, valid once the comparison passes.
class DmrChannel final : public InferenceChannel {
 public:
  explicit DmrChannel(const dl::Model& model,
                      dl::KernelMode kernels = dl::KernelMode::kAuto,
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "dmr"; }
  std::size_t output_size() const noexcept override {
    return replicas_[0].output_size();
  }
  std::span<Replica> replicas() noexcept override { return replicas_; }

  std::uint64_t divergences() const noexcept { return divergences_.value(); }

  void bind_telemetry(obs::Registry& registry) override {
    divergences_.bind(registry, "sx_dmr_divergences_total");
  }

 private:
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  std::vector<Replica> replicas_;
  std::vector<float> scratch_;
  float tolerance_;
  EventCounter divergences_;
};

/// Triple modular redundancy with element-wise median vote (fault masking).
/// The tap is that of the first ok replica within tolerance of the voted
/// logits on every element. When none is (two replicas faulty, beyond the
/// single-fault hypothesis) it is the ok replica nearest the vote; the tap
/// never changes the vote or the status.
class TmrChannel final : public InferenceChannel {
 public:
  explicit TmrChannel(const dl::Model& model,
                      dl::KernelMode kernels = dl::KernelMode::kAuto,
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "tmr"; }
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
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  std::vector<Replica> replicas_;
  std::vector<float> scratch_;  // 3 * output buffers
  std::vector<float> taps_;     // replicas 1 and 2's feature taps
  float tolerance_;
  EventCounter masked_;
};

/// Diverse redundancy: two float replicas of `model` and an int8 replica
/// of `quantized` (replica 2, `model` quantized once by the deployment)
/// vote on the *argmax* (diverse_vote). Output logits and the tap come
/// from the first float replica agreeing with the majority. All three are
/// injectable.
class DiverseTmrChannel final : public InferenceChannel {
 public:
  DiverseTmrChannel(const dl::Model& model, const dl::QuantizedModel& quantized,
                    dl::KernelMode kernels = dl::KernelMode::kAuto);

  std::string_view pattern_name() const noexcept override {
    return "diverse-tmr";
  }
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
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  std::vector<Replica> replicas_;  // float, float, int8
  std::vector<float> scratch_;
  std::vector<float> tap1_;  // replica 1's feature tap
  EventCounter masked_;
};

/// Fail-operational safety bag: primary channel + (optional) trust
/// scorer + deterministic fallback output (e.g. "assume obstacle"). The
/// scorer solves on the features the primary tapped in its own run.
class SafetyBagChannel final : public InferenceChannel {
 public:
  /// `fallback_logits` is the conservative output substituted when the
  /// primary fails or the scorer rejects. `scorer` may be null (then only
  /// channel-status failures trigger the fallback); it must outlive the
  /// bag and read features of the primary's tap width.
  SafetyBagChannel(std::unique_ptr<InferenceChannel> primary,
                   supervise::TapScorer* scorer,
                   std::vector<float> fallback_logits);

  std::string_view pattern_name() const noexcept override {
    return "safety-bag";
  }
  std::size_t output_size() const noexcept override {
    return primary_->output_size();
  }
  /// The primary's replicas, so injection reaches what it runs.
  std::span<Replica> replicas() noexcept override {
    return primary_->replicas();
  }
  bool last_degraded() const noexcept override { return degraded_; }

  /// The trust score the previous infer() took: only when the primary
  /// succeeded (so it tapped its features) and a scorer is attached.
  std::optional<double> last_score() const noexcept { return score_; }

  std::uint64_t fallback_activations() const noexcept { return fallbacks_; }

  void bind_telemetry(obs::Registry& registry) override {
    primary_->bind_telemetry(registry);
  }

 private:
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  std::unique_ptr<InferenceChannel> primary_;
  supervise::TapScorer* scorer_;
  std::vector<float> fallback_;
  std::vector<float> feat_;  // the tap when the caller passes none
  std::optional<double> score_;
  bool degraded_ = false;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace sx::safety
