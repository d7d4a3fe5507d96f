#include "safety/channel.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

// ------------------------------------------------------------ SingleChannel

SingleChannel::SingleChannel(const dl::Model& model,
                             dl::StaticEngineConfig cfg)
    : model_(std::make_unique<dl::Model>(model)),
      engine_(std::make_unique<dl::StaticEngine>(*model_, cfg)) {}

Status SingleChannel::infer(tensor::ConstTensorView in,
                            std::span<float> out) noexcept {
  return engine_->run(in, out);
}

// --------------------------------------------------------- MonitoredChannel

MonitoredChannel::MonitoredChannel(const dl::Model& model, MonitorConfig cfg,
                                   dl::StaticEngineConfig engine_cfg)
    : model_(std::make_unique<dl::Model>(model)),
      engine_(std::make_unique<dl::StaticEngine>(*model_, engine_cfg)),
      monitor_(cfg) {}

Status MonitoredChannel::infer(tensor::ConstTensorView in,
                               std::span<float> out) noexcept {
  const Status pre = monitor_.check_input(in);
  if (!ok(pre)) return pre;
  const Status st = engine_->run(in, out);
  if (!ok(st)) return st;
  return monitor_.check_output(out);
}

// --------------------------------------------------------------- DmrChannel

DmrChannel::DmrChannel(const dl::Model& model, float tolerance)
    : tolerance_(tolerance) {
  for (int i = 0; i < 2; ++i) {
    models_.push_back(std::make_unique<dl::Model>(model));
    engines_.push_back(std::make_unique<dl::StaticEngine>(
        *models_.back(), dl::StaticEngineConfig{.check_numeric_faults = true}));
  }
  scratch_.resize(model.output_shape().size());
}

Status DmrChannel::infer(tensor::ConstTensorView in,
                         std::span<float> out) noexcept {
  const Status a = engines_[0]->run(in, out);
  if (!ok(a)) return a;
  const Status b = engines_[1]->run(in, scratch_);
  if (!ok(b)) return b;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float d = std::fabs(out[i] - scratch_[i]);
    if (!(d <= tolerance_)) {  // catches NaN too
      ++divergences_;
      if (obs_ != nullptr) obs_->add(divergences_id_);
      return Status::kRedundancyFault;
    }
  }
  return Status::kOk;
}

// --------------------------------------------------------------- TmrChannel

TmrChannel::TmrChannel(const dl::Model& model, float tolerance)
    : tolerance_(tolerance) {
  for (int i = 0; i < 3; ++i) {
    models_.push_back(std::make_unique<dl::Model>(model));
    engines_.push_back(std::make_unique<dl::StaticEngine>(
        *models_.back(), dl::StaticEngineConfig{.check_numeric_faults = true}));
  }
  scratch_.resize(3 * model.output_shape().size());
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
  const Status s0 = engines_[0]->run(in, r0);
  const Status s1 = engines_[1]->run(in, r1);
  const Status s2 = engines_[2]->run(in, r2);
  const int failures = (!ok(s0)) + (!ok(s1)) + (!ok(s2));
  if (failures >= 2) return Status::kRedundancyFault;
  if (failures == 1) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
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
  if (disagreement) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
  }
  return Status::kOk;
}

// -------------------------------------------------------- DiverseTmrChannel

DiverseTmrChannel::DiverseTmrChannel(const dl::Model& model,
                                     const dl::Dataset& calibration) {
  for (int i = 0; i < 2; ++i) {
    models_.push_back(std::make_unique<dl::Model>(model));
    engines_.push_back(std::make_unique<dl::StaticEngine>(
        *models_.back(), dl::StaticEngineConfig{.check_numeric_faults = true}));
  }
  qmodel_ = std::make_unique<dl::QuantizedModel>(
      dl::QuantizedModel::quantize(model, calibration));
  scratch_.resize(2 * model.output_shape().size());
}

Status DiverseTmrChannel::infer(tensor::ConstTensorView in,
                                std::span<float> out) noexcept {
  const std::size_t n = out.size();
  std::span<float> q{scratch_.data(), n};
  std::span<float> f1{scratch_.data() + n, n};
  const Status s0 = engines_[0]->run(in, out);
  const Status s1 = engines_[1]->run(in, f1);
  const Status sq = qmodel_->run(in, q);
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
  if (a0 != a1 || a1 != aq) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
  }

  // Emit logits from a float replica that voted with the majority.
  if (ok(s0) && a0 == majority) return Status::kOk;  // already in `out`
  if (ok(s1) && a1 == majority) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f1[i];
    return Status::kOk;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = q[i];
  return Status::kOk;
}

// ------------------------------------------------------------- QuantChannel

QuantChannel::QuantChannel(const dl::Model& model,
                           const dl::QuantizedModel& quantized,
                           dl::QuantEngineConfig cfg,
                           const MonitorConfig* monitor)
    : model_(std::make_unique<dl::Model>(model)),
      qmodel_(std::make_unique<dl::QuantizedModel>(quantized)),
      engine_(std::make_unique<dl::QuantEngine>(*qmodel_, cfg)) {
  if (monitor != nullptr) monitor_ = std::make_unique<SafetyMonitor>(*monitor);
}

FaultRecord QuantChannel::inject_fault(FaultInjector& injector, std::size_t i,
                                       FaultType type) {
  // An SEU in this channel hits the deployed int8 weight memory — the
  // float twin is never read by the engine, so injecting there would
  // leave every trial on the golden path.
  const FaultRecord rec = injector.inject(*qmodel_, type);
  refresh_replica(i);  // packed panels must snapshot the faulted bits
  return rec;
}

void QuantChannel::undo_fault(std::size_t i, const FaultRecord& rec) {
  FaultInjector::restore(*qmodel_, rec);
  refresh_replica(i);
}

Status QuantChannel::infer(tensor::ConstTensorView in,
                           std::span<float> out) noexcept {
  if (monitor_) {
    const Status pre = monitor_->check_input(in);
    if (!ok(pre)) return pre;
  }
  Status st = engine_->run(in, out);
  if (ok(st) && monitor_) st = monitor_->check_output(out);
  if (obs_ != nullptr) {
    // Push only the clips this inference added: the counter stays an
    // exact mirror of the engine's deterministic total.
    const std::uint64_t total = engine_->saturation_total();
    if (total > reported_sats_) {
      obs_->add(sat_id_, total - reported_sats_);
      reported_sats_ = total;
    }
  }
  return st;
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
