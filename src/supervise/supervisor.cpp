#include "supervise/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sx::supervise {

void Supervisor::calibrate_threshold(std::vector<double> id_scores,
                                     double target_tpr) {
  if (id_scores.empty())
    throw std::invalid_argument("calibrate_threshold: no scores");
  if (target_tpr <= 0.0 || target_tpr > 1.0)
    throw std::invalid_argument("calibrate_threshold: bad TPR");
  std::sort(id_scores.begin(), id_scores.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(target_tpr * static_cast<double>(id_scores.size()),
                       static_cast<double>(id_scores.size() - 1)));
  threshold_ = id_scores[idx];
  has_threshold_ = true;
}

// ------------------------------------------------------------- max-softmax

double MaxSoftmaxSupervisor::score(const dl::Model& model,
                                   const tensor::Tensor& input) const {
  const tensor::Tensor logits = model.forward(input);
  const auto probs = dl::softmax_copy(logits.data());
  double m = 0.0;
  for (float p : probs) m = std::max(m, static_cast<double>(p));
  return 1.0 - m;
}

// ------------------------------------------------------------------ energy

EnergySupervisor::EnergySupervisor(double temperature)
    : temperature_(temperature) {
  if (temperature <= 0.0)
    throw std::invalid_argument("EnergySupervisor: temperature <= 0");
}

double EnergySupervisor::score(const dl::Model& model,
                               const tensor::Tensor& input) const {
  const tensor::Tensor logits = model.forward(input);
  double m = -std::numeric_limits<double>::infinity();
  for (float v : logits.data()) m = std::max(m, static_cast<double>(v));
  double z = 0.0;
  for (float v : logits.data())
    z += std::exp((static_cast<double>(v) - m) / temperature_);
  // Energy E(x) = -T log sum exp(logit/T); higher energy = more anomalous.
  return -temperature_ * (m / temperature_ + std::log(z));
}

// ------------------------------------------------------------- mahalanobis

void MahalanobisSupervisor::begin_fit(const dl::Model& model,
                                      const dl::Dataset& id_data) {
  if (id_data.samples.empty())
    throw std::invalid_argument("MahalanobisSupervisor::fit: empty data");
  // Feature layer: the input of the final Dense (forward_trace's
  // activations[i] is the input of layer i).
  feature_layer_ = dl::feature_layer(model);
  if (feature_layer_ == model.layer_count())
    throw std::invalid_argument(
        "MahalanobisSupervisor: model has no Dense layer");
  feature_dim_ = dl::tap_width(model, feature_layer_);
  const std::size_t n_classes = model.output_shape().size();
  for (const auto& s : id_data.samples)
    if (s.label >= n_classes)
      throw std::invalid_argument("MahalanobisSupervisor: label range");
}

void MahalanobisSupervisor::fit(const dl::Model& model,
                                const dl::Dataset& id_data) {
  begin_fit(model, id_data);
  std::vector<float> feats;
  feats.reserve(id_data.samples.size() * feature_dim_);
  for (const auto& s : id_data.samples) {
    const auto acts = model.forward_trace(s.input);
    const auto f = acts.at(feature_layer_).data();
    feats.insert(feats.end(), f.begin(), f.end());
  }
  fit_features(id_data, model.output_shape().size(), feats);
}

std::vector<double> MahalanobisSupervisor::fit_planned(
    const dl::Model& model, const dl::Dataset& id_data, dl::Engine& engine) {
  begin_fit(model, id_data);
  if (!engine.can_tap(feature_layer_))
    throw std::logic_error(
        "MahalanobisSupervisor: engine cannot tap the feature layer");
  const std::size_t n = id_data.samples.size();
  const std::size_t dim = feature_dim_;
  std::vector<float> feats(n * dim);
  std::vector<float> logits(model.output_shape().size());
  for (std::size_t i = 0; i < n; ++i) {
    const Status st =
        engine.run_tapped(id_data.samples[i].input.view(), logits,
                          feature_layer_,
                          std::span<float>(feats).subspan(i * dim, dim));
    if (!ok(st))
      throw std::invalid_argument(
          "MahalanobisSupervisor: calibration sample: " +
          std::string(to_string(st)));
  }
  fit_features(id_data, model.output_shape().size(), feats);

  std::vector<double> scores(n);
  std::vector<double> scratch(dim);
  for (std::size_t i = 0; i < n; ++i)
    scores[i] = score_into(std::span<const float>(feats).subspan(i * dim, dim),
                           scratch);
  return scores;
}

void MahalanobisSupervisor::fit_features(const dl::Dataset& id_data,
                                         std::size_t n_classes,
                                         std::span<const float> feats) {
  const std::size_t n = id_data.samples.size();
  const std::size_t dim = feature_dim_;
  const auto x = [&](std::size_t i, std::size_t d) {
    return static_cast<double>(feats[i * dim + d]);
  };
  // Accumulate class means.
  std::vector<std::size_t> counts(n_classes, 0);
  class_means_.assign(n_classes, std::vector<double>(dim, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = id_data.samples[i].label;
    ++counts[label];
    for (std::size_t d = 0; d < dim; ++d) class_means_[label][d] += x(i, d);
  }
  for (std::size_t c = 0; c < n_classes; ++c) {
    if (counts[c] == 0) continue;
    for (auto& v : class_means_[c]) v /= static_cast<double>(counts[c]);
  }
  // Tied covariance of residuals.
  cov_chol_ = util::SquareMatrix(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& mu = class_means_[id_data.samples[i].label];
    for (std::size_t r = 0; r < dim; ++r) {
      const double dr = x(i, r) - mu[r];
      for (std::size_t c = 0; c <= r; ++c) {
        const double dc = x(i, c) - mu[c];
        cov_chol_.at(r, c) += dr * dc;
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c <= r; ++c) {
      cov_chol_.at(r, c) *= inv_n;
      cov_chol_.at(c, r) = cov_chol_.at(r, c);
    }
  // Shrinkage jitter keeps the factorization PD even with few samples.
  if (!util::cholesky(cov_chol_, 1e-3))
    throw std::runtime_error("MahalanobisSupervisor: covariance not PD");
  fitted_ = true;
}

double MahalanobisSupervisor::score_from_features(
    std::span<const float> features) const {
  if (!fitted_)
    throw std::logic_error(
        "MahalanobisSupervisor::score_from_features before fit");
  if (features.size() != feature_dim_)
    throw std::invalid_argument(
        "MahalanobisSupervisor::score_from_features: feature width");
  std::vector<double> scratch(feature_dim_);
  return score_into(features, scratch);
}

double MahalanobisSupervisor::score_into(
    std::span<const float> features,
    std::span<double> scratch) const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& mu : class_means_) {
    for (std::size_t d = 0; d < feature_dim_; ++d)
      scratch[d] = static_cast<double>(features[d]) - mu[d];
    best = std::min(best, util::mahalanobis_sq(cov_chol_, scratch));
  }
  return best;
}

double MahalanobisSupervisor::score(const dl::Model& model,
                                    const tensor::Tensor& input) const {
  if (!fitted_)
    throw std::logic_error("MahalanobisSupervisor::score before fit");
  const auto acts = model.forward_trace(input);
  return score_from_features(acts.at(feature_layer_).data());
}

// ------------------------------------------------------------- autoencoder

AutoencoderSupervisor::AutoencoderSupervisor(std::size_t bottleneck,
                                             std::size_t epochs,
                                             double learning_rate,
                                             std::uint64_t seed)
    : bottleneck_(bottleneck), epochs_(epochs), lr_(learning_rate),
      seed_(seed) {
  if (bottleneck == 0 || epochs == 0)
    throw std::invalid_argument("AutoencoderSupervisor: zero config");
}

void AutoencoderSupervisor::fit(const dl::Model& /*model*/,
                                const dl::Dataset& id_data) {
  if (id_data.samples.empty())
    throw std::invalid_argument("AutoencoderSupervisor::fit: empty data");
  const std::size_t dim = id_data.input_shape.size();
  dl::ModelBuilder b{id_data.input_shape};
  if (id_data.input_shape.rank() > 1) b.flatten();
  b.dense(std::max<std::size_t>(bottleneck_ * 2, 8))
      .relu()
      .dense(bottleneck_)
      .relu()
      .dense(dim);
  ae_ = std::make_unique<dl::Model>(b.build(seed_));

  // Plain SGD on mean-squared reconstruction error.
  util::Xoshiro256 rng{seed_ ^ 0xa5a5a5a5ULL};
  for (std::size_t e = 0; e < epochs_; ++e) {
    for (const auto& s : id_data.samples) {
      const auto acts = ae_->forward_trace(s.input);
      const tensor::Tensor& recon = acts.back();
      tensor::Tensor grad{recon.shape()};
      const float inv = 2.0f / static_cast<float>(dim);
      for (std::size_t i = 0; i < dim; ++i)
        grad.at(i) = inv * (recon.at(i) - s.input.data()[i]);
      ae_->zero_grads();
      (void)ae_->backward(acts, grad);
      for (std::size_t li = 0; li < ae_->layer_count(); ++li) {
        auto params = ae_->layer(li).params();
        auto grads = ae_->layer(li).param_grads();
        for (std::size_t j = 0; j < params.size(); ++j)
          params[j] -= static_cast<float>(lr_) * grads[j];
      }
    }
  }
  ae_->zero_grads();
}

double AutoencoderSupervisor::score(const dl::Model& /*model*/,
                                    const tensor::Tensor& input) const {
  if (!ae_) throw std::logic_error("AutoencoderSupervisor::score before fit");
  const tensor::Tensor recon = ae_->forward(input);
  double mse = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double d =
        static_cast<double>(recon.at(i)) - static_cast<double>(input.data()[i]);
    mse += d * d;
  }
  return mse / static_cast<double>(input.size());
}

std::vector<std::unique_ptr<Supervisor>> make_all_supervisors() {
  std::vector<std::unique_ptr<Supervisor>> out;
  out.push_back(std::make_unique<MaxSoftmaxSupervisor>());
  out.push_back(std::make_unique<EnergySupervisor>());
  out.push_back(std::make_unique<MahalanobisSupervisor>());
  out.push_back(std::make_unique<AutoencoderSupervisor>());
  return out;
}

}  // namespace sx::supervise
