#include "safety/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The largest element-wise |a - b|; +infinity where a difference is NaN.
float max_deviation(std::span<const float> a,
                    std::span<const float> b) noexcept {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a[i] - b[i]);
    if (!(d <= m)) m = std::isnan(d) ? kInf : d;
  }
  return m;
}

bool within(std::span<const float> a, std::span<const float> b,
            float tolerance) noexcept {
  return max_deviation(a, b) <= tolerance;
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

std::unique_ptr<dl::Engine> make_replica_engine(const dl::Model& model,
                                                dl::StaticEngineConfig cfg) {
  cfg.pin_tap_layer = dl::feature_layer(model);
  return std::make_unique<dl::StaticEngine>(model, cfg);  // sxlint: allow(hot-path-alloc) deploy-time engine
}

std::unique_ptr<dl::Engine> make_replica_engine(
    const dl::QuantizedModel& model, dl::KernelMode kernels) {
  // Int8 plans keep the last Dense layer's input without a pin.
  return std::make_unique<dl::QuantEngine>(  // sxlint: allow(hot-path-alloc) deploy-time engine
      model, dl::QuantEngineConfig{.kernels = kernels});
}

Replica::Replica(dl::Model model, dl::StaticEngineConfig cfg)
    : model_(std::make_unique<dl::Model>(std::move(model))),  // sxlint: allow(hot-path-alloc) deploy-time replica copy
      tap_layer_(dl::feature_layer(*model_)),
      tap_size_(dl::feature_width(*model_)),
      engine_(make_replica_engine(*model_, cfg)),
      output_size_(model_->output_shape().size()) {}

Replica::Replica(dl::QuantizedModel model, dl::KernelMode kernels)
    : qmodel_(std::make_unique<dl::QuantizedModel>(std::move(model))),  // sxlint: allow(hot-path-alloc) deploy-time replica copy
      tap_layer_(dl::feature_layer(*qmodel_)),
      tap_size_(dl::feature_width(*qmodel_)),
      engine_(make_replica_engine(*qmodel_, kernels)),
      output_size_(qmodel_->output_shape().size()) {}

dl::Model& Replica::model() {
  if (!model_) throw std::logic_error("Replica::model: int8 replica");
  return *model_;
}

const dl::QuantizedModel& Replica::quantized_model() const {
  if (!qmodel_)
    throw std::logic_error("Replica::quantized_model: float replica");
  return *qmodel_;
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

Status EngineChannel::infer_impl(tensor::ConstTensorView in,
                                 std::span<float> out,
                                 std::span<float> tap) noexcept {
  if (monitor_) {
    const Status pre = monitor_->check_input(in);
    if (!ok(pre)) return pre;
  }
  Status st = replica_.run(in, out, tap);
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

Status DmrChannel::infer_impl(tensor::ConstTensorView in,
                              std::span<float> out,
                              std::span<float> tap) noexcept {
  const Status a = replicas_[0].run(in, out, tap);
  if (!ok(a)) return a;
  const Status b = replicas_[1].run(in, scratch_);
  if (!ok(b)) return b;
  if (!within(out, scratch_, tolerance_)) {
    divergences_.hit();
    return Status::kRedundancyFault;
  }
  return Status::kOk;
}

// --------------------------------------------------------------- TmrChannel

TmrChannel::TmrChannel(const dl::Model& model, dl::KernelMode kernels,
                       float tolerance)
    : replicas_(float_replicas(model, 3, kernels)), tolerance_(tolerance) {
  scratch_.resize(3 * model.output_shape().size());  // sxlint: allow(hot-path-alloc) deploy-time vote buffers
  taps_.resize(2 * tap_size());  // sxlint: allow(hot-path-alloc) deploy-time tap buffers
}

Status TmrChannel::infer_impl(tensor::ConstTensorView in,
                              std::span<float> out,
                              std::span<float> tap) noexcept {
  const std::size_t n = out.size();
  const std::size_t w = tap.size();
  if (w != 0 && w != tap_size()) return Status::kShapeMismatch;
  const std::span<float> r[3] = {{scratch_.data(), n},
                                 {scratch_.data() + n, n},
                                 {scratch_.data() + 2 * n, n}};
  // Replica 0 taps straight into the caller's span, the others aside.
  const std::span<float> t[3] = {
      tap, {taps_.data(), w}, {taps_.data() + w, w}};
  // A replica whose engine fails (NaN etc.) is treated as an outvoted
  // minority: substitute the median of the other two by duplicating one of
  // them. Two failures are unrecoverable.
  const Status s[3] = {replicas_[0].run(in, r[0], t[0]),
                       replicas_[1].run(in, r[1], t[1]),
                       replicas_[2].run(in, r[2], t[2])};
  const int failures = (!ok(s[0])) + (!ok(s[1])) + (!ok(s[2]));
  if (failures >= 2) return Status::kRedundancyFault;
  if (failures == 1) {
    masked_.hit();
    const std::span<float> alive1 = ok(s[0]) ? r[0] : r[1];
    const std::span<float> alive2 = ok(s[2]) ? r[2] : r[1];
    // Cross-check the two survivors before trusting them.
    if (!within(alive1, alive2, tolerance_)) return Status::kRedundancyFault;
    std::ranges::copy(alive1, out.begin());
  } else {
    bool disagreement = false;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = median3(r[0][i], r[1][i], r[2][i]);
      if (std::fabs(r[0][i] - r[1][i]) > tolerance_ ||
          std::fabs(r[1][i] - r[2][i]) > tolerance_ ||
          std::fabs(r[0][i] - r[2][i]) > tolerance_)
        disagreement = true;
    }
    if (disagreement) masked_.hit();
  }
  if (w == 0) return Status::kOk;
  // The tap: the first ok replica that reproduces the voted logits, else
  // the ok replica nearest them. It never changes the status.
  std::size_t src = ok(s[0]) ? 0 : 1;
  float nearest = kInf;
  for (std::size_t k = 0; k < 3; ++k) {
    if (!ok(s[k])) continue;
    const float d = max_deviation(r[k], out);
    if (d <= tolerance_) {
      src = k;
      break;
    }
    if (d < nearest) {
      nearest = d;
      src = k;
    }
  }
  if (src != 0) std::ranges::copy(t[src], tap.begin());
  return Status::kOk;
}

// -------------------------------------------------------- DiverseTmrChannel

std::size_t diverse_vote(std::size_t a0, std::size_t a1,
                         std::size_t aq) noexcept {
  if (a0 != kNoVote && (a0 == a1 || a0 == aq)) return 0;
  if (a1 != kNoVote && a1 == aq) return 1;
  return kNoVote;
}

DiverseTmrChannel::DiverseTmrChannel(const dl::Model& model,
                                     const dl::QuantizedModel& quantized,
                                     dl::KernelMode kernels)
    : replicas_(float_replicas(model, 2, kernels)) {
  // The planned int8 engine is bitwise identical to QuantizedModel::run,
  // so the vote is the reference one at a fraction of the cost.
  replicas_.emplace_back(quantized, kernels);  // sxlint: allow(hot-path-alloc) deploy-time int8 replica
  scratch_.resize(2 * model.output_shape().size());  // sxlint: allow(hot-path-alloc) deploy-time vote buffers
  tap1_.resize(tap_size());  // sxlint: allow(hot-path-alloc) deploy-time tap buffer
}

Status DiverseTmrChannel::infer_impl(tensor::ConstTensorView in,
                                     std::span<float> out,
                                     std::span<float> tap) noexcept {
  const std::size_t n = out.size();
  if (!tap.empty() && tap.size() != tap1_.size())
    return Status::kShapeMismatch;
  const std::span<float> q{scratch_.data(), n};
  const std::span<float> f1{scratch_.data() + n, n};
  const std::span<float> t1 =
      tap.empty() ? std::span<float>{} : std::span<float>(tap1_);
  const Status s0 = replicas_[0].run(in, out, tap);
  const Status s1 = replicas_[1].run(in, f1, t1);
  const Status sq = replicas_[2].run(in, q);

  // Majority vote on the decision (argmax), not raw values: the quantized
  // replica's logits differ numerically by design.
  const std::size_t a0 = ok(s0) ? argmax_of(out) : kNoVote;
  const std::size_t a1 = ok(s1) ? argmax_of(f1) : kNoVote;
  const std::size_t aq = ok(sq) ? argmax_of(q) : kNoVote;
  const std::size_t winner = diverse_vote(a0, a1, aq);
  if (winner == kNoVote) return Status::kRedundancyFault;
  if (a0 != a1 || a1 != aq) masked_.hit();
  if (winner == 1) {  // replica 0's logits and tap are already in place
    std::ranges::copy(f1, out.begin());
    std::ranges::copy(t1, tap.begin());
  }
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
  if (scorer_ != nullptr) {
    if (scorer_->feature_dim() != primary_->tap_size())
      throw std::invalid_argument("SafetyBagChannel: scorer feature width");
    feat_.resize(scorer_->feature_dim());  // sxlint: allow(hot-path-alloc) deploy-time tap buffer
  }
}

Status SafetyBagChannel::infer_impl(tensor::ConstTensorView in,
                                    std::span<float> out,
                                    std::span<float> tap) noexcept {
  score_.reset();
  // A scored bag always taps: into the caller's span, else its own.
  const std::span<float> feat =
      scorer_ == nullptr || !tap.empty() ? tap : std::span<float>(feat_);
  bool use_fallback = !ok(primary_->infer(in, out, feat));
  if (!use_fallback && scorer_ != nullptr) {
    score_ = scorer_->score(feat);
    use_fallback = !scorer_->accept(*score_);
  }
  degraded_ = use_fallback;
  if (use_fallback) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = fallback_[i];
    ++fallbacks_;
  }
  return Status::kOk;  // fail-operational: always produces a safe output
}

}  // namespace sx::safety
