// Prediction-trust supervisors (pillar 1: "explain whether predictions can
// be trusted").
//
// A Supervisor is a runtime component that scores each input/prediction pair
// for trustworthiness; inputs scoring above a calibrated threshold are
// rejected (Status::kSupervisorReject in the pipeline) and handed to the
// fallback channel. The ladder of methods mirrors the out-of-distribution
// detection literature the project builds on (max-softmax baseline, energy
// scores, class-conditional Mahalanobis distances, autoencoder
// reconstruction error).
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "dl/engine.hpp"
#include "util/linalg.hpp"

namespace sx::supervise {

class Supervisor {
 public:
  virtual ~Supervisor() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Learns whatever statistics the method needs from in-distribution data.
  virtual void fit(const dl::Model& model, const dl::Dataset& id_data) = 0;

  /// Anomaly score: higher = less trustworthy. Must be callable after fit().
  virtual double score(const dl::Model& model,
                       const tensor::Tensor& input) const = 0;

  /// Sets the accept/reject threshold so that `target_tpr` of the given
  /// in-distribution scores are accepted (e.g. 0.95).
  void calibrate_threshold(std::vector<double> id_scores, double target_tpr);

  double threshold() const noexcept { return threshold_; }
  bool has_threshold() const noexcept { return has_threshold_; }

  /// Accept/reject decision (requires a calibrated threshold): a pure
  /// threshold check on score(), which runs the model itself. Deployed
  /// pipelines instead score the features their channel's own engine run
  /// tapped, through supervise::TapScorer.
  bool accept(const dl::Model& model, const tensor::Tensor& input) const {
    return score(model, input) <= threshold_;
  }

 private:
  double threshold_ = 0.0;
  bool has_threshold_ = false;
};

/// Baseline: score = 1 - max softmax probability.
class MaxSoftmaxSupervisor final : public Supervisor {
 public:
  std::string_view name() const noexcept override { return "max-softmax"; }
  void fit(const dl::Model&, const dl::Dataset&) override {}
  double score(const dl::Model& model,
               const tensor::Tensor& input) const override;
};

/// Energy score: -T * logsumexp(logits / T). Lower energy = in-distribution;
/// we return the energy itself so higher = more anomalous.
class EnergySupervisor final : public Supervisor {
 public:
  explicit EnergySupervisor(double temperature = 1.0);
  std::string_view name() const noexcept override { return "energy"; }
  void fit(const dl::Model&, const dl::Dataset&) override {}
  double score(const dl::Model& model,
               const tensor::Tensor& input) const override;

 private:
  double temperature_;
};

/// Class-conditional Gaussian with tied covariance on penultimate-layer
/// features; score = min over classes of the Mahalanobis distance.
class MahalanobisSupervisor final : public Supervisor {
 public:
  std::string_view name() const noexcept override { return "mahalanobis"; }
  /// Offline fit: each sample's features from the reference model walk
  /// (Model::forward_trace).
  void fit(const dl::Model& model, const dl::Dataset& id_data) override;
  double score(const dl::Model& model,
               const tensor::Tensor& input) const override;

  /// Deploy-time fit in one pass of the deployed engine: each sample's
  /// features are tapped once from `engine` at the feature layer and fit
  /// the model. `model` picks the feature layer and must share `engine`'s
  /// layer indexing (the folded float twin of an int8 engine), and the
  /// engine must be able to tap it (std::logic_error otherwise). A float
  /// engine gives bitwise the reference walk's features, so the result
  /// equals fit(model, id_data); an int8 engine fits on its dequantized
  /// int8 features, the ones the deployed int8 channel taps. Returns every
  /// sample's score without walking the samples again.
  std::vector<double> fit_planned(const dl::Model& model,
                                  const dl::Dataset& id_data,
                                  dl::Engine& engine);

  /// Index of the activation used as the feature vector (set by fit()).
  std::size_t feature_layer() const noexcept { return feature_layer_; }
  /// Width of that feature vector (set by fit()).
  std::size_t feature_dim() const noexcept { return feature_dim_; }

  /// Scores a feature vector captured externally — e.g. tapped from an
  /// Engine::run_tapped at feature_layer() — instead of re-running
  /// the model through Model::forward_trace. score() is this function
  /// applied to forward_trace's activation at feature_layer(), so both
  /// give bitwise identical scores on the same input.
  double score_from_features(std::span<const float> features) const;

  /// score_from_features without its checks and without allocating: the
  /// caller guarantees fit() ran and features.size() == feature_dim(), and
  /// `scratch` holds feature_dim() doubles (overwritten). Same arithmetic,
  /// so the same bits.
  double score_into(std::span<const float> features,
                    std::span<double> scratch) const noexcept;

 private:
  /// Picks the feature layer of `model` and checks the data (throws).
  void begin_fit(const dl::Model& model, const dl::Dataset& id_data);
  /// Fits the class means and the tied covariance from `feats`: one
  /// feature_dim_-wide row per sample of `id_data`, in order.
  void fit_features(const dl::Dataset& id_data, std::size_t n_classes,
                    std::span<const float> feats);

  std::size_t feature_layer_ = 0;
  std::size_t feature_dim_ = 0;
  std::vector<std::vector<double>> class_means_;
  util::SquareMatrix cov_chol_{1};
  bool fitted_ = false;
};

/// Input-space autoencoder; score = mean squared reconstruction error.
/// The autoencoder is a small MLP trained (offline) on the same
/// in-distribution data as the task model.
class AutoencoderSupervisor final : public Supervisor {
 public:
  explicit AutoencoderSupervisor(std::size_t bottleneck = 16,
                                 std::size_t epochs = 30,
                                 double learning_rate = 0.05,
                                 std::uint64_t seed = 99);

  std::string_view name() const noexcept override { return "autoencoder"; }
  void fit(const dl::Model& model, const dl::Dataset& id_data) override;
  double score(const dl::Model& model,
               const tensor::Tensor& input) const override;

  const dl::Model* autoencoder() const noexcept { return ae_.get(); }

 private:
  std::size_t bottleneck_;
  std::size_t epochs_;
  double lr_;
  std::uint64_t seed_;
  std::unique_ptr<dl::Model> ae_;
};

/// All supervisors the framework ships, ready for evaluation (E4).
std::vector<std::unique_ptr<Supervisor>> make_all_supervisors();

}  // namespace sx::supervise
