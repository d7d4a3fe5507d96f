#include "safety/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dl/qplan.hpp"

namespace sx::safety {
namespace {

std::size_t argmax_of(std::span<const float> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

float median3(float a, float b, float c) noexcept {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

std::vector<Replica> float_replicas(const dl::Model& model, std::size_t n,
                                    dl::KernelMode kernels) {
  std::vector<Replica> r;
  for (std::size_t i = 0; i < n; ++i)
    r.emplace_back(  // sxlint: allow(hot-path-alloc) deploy-time replica
        model, dl::StaticEngineConfig{.check_numeric_faults = true,
                                      .kernels = kernels});
  return r;
}

}  // namespace

// ------------------------------------------------------------------ Replica

Replica::Replica(dl::Model model, dl::StaticEngineConfig cfg)
    : model_(std::make_unique<dl::Model>(std::move(model))),  // sxlint: allow(hot-path-alloc) deploy-time replica copy
      engine_(std::make_unique<dl::StaticEngine>(*model_, cfg)),  // sxlint: allow(hot-path-alloc) deploy-time engine
      output_size_(model_->output_shape().size()) {}

Replica::Replica(dl::QuantizedModel model, dl::KernelMode kernels)
    : qmodel_(std::make_unique<dl::QuantizedModel>(std::move(model))),  // sxlint: allow(hot-path-alloc) deploy-time replica copy
      engine_(std::make_unique<dl::QuantEngine>(  // sxlint: allow(hot-path-alloc) deploy-time engine
          *qmodel_, dl::QuantEngineConfig{.kernels = kernels})),
      output_size_(qmodel_->output_shape().size()) {}

dl::Model& Replica::model() {
  if (!model_) throw std::logic_error("Replica::model: int8 replica");
  return *model_;
}

FaultRecord Replica::inject_fault(FaultInjector& injector, FaultType type) {
  const FaultRecord rec = model_ ? injector.inject(*model_, type)
                                 : injector.inject(*qmodel_, type);
  refresh();  // packed panels must snapshot the faulted bits
  return rec;
}

void Replica::undo_fault(const FaultRecord& rec) {
  if (model_)
    FaultInjector::restore(*model_, rec);
  else
    FaultInjector::restore(*qmodel_, rec);
  refresh();
}

// --------------------------------------------------------- InferenceChannel

Replica& InferenceChannel::replica(std::size_t i) {
  const std::span<Replica> r = replicas();
  if (i >= r.size())
    throw std::out_of_range("InferenceChannel::replica: index");
  return r[i];
}

// ------------------------------------------------------------ EngineChannel

EngineChannel::EngineChannel(Replica replica,
                             std::optional<MonitorConfig> monitor)
    : replica_(std::move(replica)) {
  if (monitor) monitor_.emplace(*monitor);  // sxlint: allow(hot-path-alloc) deploy-time monitor
}

std::string_view EngineChannel::pattern_name() const noexcept {
  if (replica_.elem() == dl::ElemType::kInt8)
    return monitor_ ? "int8-monitored" : "int8-single";
  return monitor_ ? "monitored" : "single";
}

Status EngineChannel::infer(tensor::ConstTensorView in,
                            std::span<float> out) noexcept {
  if (monitor_) {
    const Status pre = monitor_->check_input(in);
    if (!ok(pre)) return pre;
  }
  Status st = replica_.run(in, out);
  if (ok(st) && monitor_) st = monitor_->check_output(out);
  if (obs_ != nullptr) {
    // Push only the clips this inference added: the counter stays an
    // exact mirror of the engine's deterministic total.
    const std::uint64_t total = replica_.engine().saturation_total();
    if (total > reported_sats_) {
      obs_->add(sat_id_, total - reported_sats_);
      reported_sats_ = total;
    }
  }
  return st;
}

void EngineChannel::bind_telemetry(obs::Registry& registry) {
  if (replica_.elem() == dl::ElemType::kInt8) {
    obs_ = &registry;
    sat_id_ = registry.counter("sx_quant_saturations_total");
  }
  if (monitor_)
    monitor_->bind_telemetry(&registry,
                             registry.counter("sx_monitor_rejections_total"));
}

// --------------------------------------------------------------- DmrChannel

DmrChannel::DmrChannel(const dl::Model& model, dl::KernelMode kernels,
                       float tolerance)
    : replicas_(float_replicas(model, 2, kernels)), tolerance_(tolerance) {
  scratch_.resize(model.output_shape().size());  // sxlint: allow(hot-path-alloc) deploy-time vote buffer
}

Status DmrChannel::infer(tensor::ConstTensorView in,
                         std::span<float> out) noexcept {
  const Status a = replicas_[0].run(in, out);
  if (!ok(a)) return a;
  const Status b = replicas_[1].run(in, scratch_);
  if (!ok(b)) return b;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float d = std::fabs(out[i] - scratch_[i]);
    if (!(d <= tolerance_)) {  // catches NaN too
      divergences_.hit();
      return Status::kRedundancyFault;
    }
  }
  return Status::kOk;
}

// --------------------------------------------------------------- TmrChannel

TmrChannel::TmrChannel(const dl::Model& model, dl::KernelMode kernels,
                       float tolerance)
    : replicas_(float_replicas(model, 3, kernels)), tolerance_(tolerance) {
  scratch_.resize(3 * model.output_shape().size());  // sxlint: allow(hot-path-alloc) deploy-time vote buffers
}

Status TmrChannel::infer(tensor::ConstTensorView in,
                         std::span<float> out) noexcept {
  const std::size_t n = out.size();
  std::span<float> r0{scratch_.data(), n};
  std::span<float> r1{scratch_.data() + n, n};
  std::span<float> r2{scratch_.data() + 2 * n, n};
  // A replica whose engine fails (NaN etc.) is treated as an outvoted
  // minority: substitute the median of the other two by duplicating one of
  // them. Two failures are unrecoverable.
  const Status s0 = replicas_[0].run(in, r0);
  const Status s1 = replicas_[1].run(in, r1);
  const Status s2 = replicas_[2].run(in, r2);
  const int failures = (!ok(s0)) + (!ok(s1)) + (!ok(s2));
  if (failures >= 2) return Status::kRedundancyFault;
  if (failures == 1) {
    masked_.hit();
    std::span<float> alive1 = ok(s0) ? r0 : r1;
    std::span<float> alive2 = ok(s2) ? r2 : r1;
    // Cross-check the two survivors before trusting them.
    for (std::size_t i = 0; i < n; ++i) {
      if (!(std::fabs(alive1[i] - alive2[i]) <= tolerance_))
        return Status::kRedundancyFault;
      out[i] = alive1[i];
    }
    return Status::kOk;
  }
  bool disagreement = false;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = median3(r0[i], r1[i], r2[i]);
    if (std::fabs(r0[i] - r1[i]) > tolerance_ ||
        std::fabs(r1[i] - r2[i]) > tolerance_ ||
        std::fabs(r0[i] - r2[i]) > tolerance_)
      disagreement = true;
  }
  if (disagreement) masked_.hit();
  return Status::kOk;
}

// -------------------------------------------------------- DiverseTmrChannel

DiverseTmrChannel::DiverseTmrChannel(const dl::Model& model,
                                     const dl::Dataset& calibration,
                                     dl::KernelMode kernels)
    : replicas_(float_replicas(model, 2, kernels)) {
  // The planned int8 engine is bitwise identical to QuantizedModel::run,
  // so the vote is the reference one at a fraction of the cost.
  replicas_.emplace_back(  // sxlint: allow(hot-path-alloc) deploy-time int8 replica
      dl::QuantizedModel::quantize(model, calibration), kernels);
  scratch_.resize(2 * model.output_shape().size());  // sxlint: allow(hot-path-alloc) deploy-time vote buffers
}

Status DiverseTmrChannel::infer(tensor::ConstTensorView in,
                                std::span<float> out) noexcept {
  const std::size_t n = out.size();
  std::span<float> q{scratch_.data(), n};
  std::span<float> f1{scratch_.data() + n, n};
  const Status s0 = replicas_[0].run(in, out);
  const Status s1 = replicas_[1].run(in, f1);
  const Status sq = replicas_[2].run(in, q);
  const int failures = (!ok(s0)) + (!ok(s1)) + (!ok(sq));
  if (failures >= 2) return Status::kRedundancyFault;

  // Majority vote on the decision (argmax), not raw values: the quantized
  // replica's logits differ numerically by design.
  const std::size_t a0 = ok(s0) ? argmax_of(out) : n;
  const std::size_t a1 = ok(s1) ? argmax_of(f1) : n;
  const std::size_t aq = ok(sq) ? argmax_of(q) : n;
  std::size_t majority = n;
  if (a0 == a1 || a0 == aq) majority = a0;
  else if (a1 == aq) majority = a1;
  if (majority == n) return Status::kRedundancyFault;
  if (a0 != a1 || a1 != aq) masked_.hit();

  // Emit logits from a float replica that voted with the majority.
  if (ok(s0) && a0 == majority) return Status::kOk;  // already in `out`
  if (ok(s1) && a1 == majority) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f1[i];
    return Status::kOk;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = q[i];
  return Status::kOk;
}

// --------------------------------------------------------- SafetyBagChannel

SafetyBagChannel::SafetyBagChannel(std::unique_ptr<InferenceChannel> primary,
                                   supervise::TapScorer* scorer,
                                   std::vector<float> fallback_logits)
    : primary_(std::move(primary)),
      scorer_(scorer),
      fallback_(std::move(fallback_logits)) {
  if (!primary_) throw std::invalid_argument("SafetyBagChannel: null primary");
  if (fallback_.size() != primary_->output_size())
    throw std::invalid_argument("SafetyBagChannel: fallback size mismatch");
}

Status SafetyBagChannel::infer(tensor::ConstTensorView in,
                               std::span<float> out) noexcept {
  score_.reset();
  bool use_fallback = !ok(primary_->infer(in, out));
  if (!use_fallback && scorer_ != nullptr) {
    double score = 0.0;
    if (ok(scorer_->score(in, score))) score_ = score;
    use_fallback = !score_ || !scorer_->accept(*score_);
  }
  degraded_ = use_fallback;
  if (use_fallback) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = fallback_[i];
    ++fallbacks_;
  }
  return Status::kOk;  // fail-operational: always produces a safe output
}

}  // namespace sx::safety
