#include "supervise/tap_scorer.hpp"

#include <stdexcept>

namespace sx::supervise {
namespace {

const MahalanobisSupervisor& calibrated(const MahalanobisSupervisor& sup) {
  if (sup.feature_dim() == 0 || !sup.has_threshold())
    throw std::invalid_argument(
        "TapScorer: supervisor must be fitted and threshold-calibrated");
  return sup;
}

dl::StaticEngineConfig tap_config(const MahalanobisSupervisor& sup,
                                  dl::KernelMode kernels) {
  dl::StaticEngineConfig cfg;
  cfg.check_numeric_faults = false;
  cfg.kernels = kernels;
  // Pin the tapped feature layer: the fusion pass must not fold an
  // epilogue across it, or the pre-activation values the supervisor
  // reads would no longer exist in the arena.
  cfg.pin_tap_layer = sup.feature_layer();
  return cfg;
}

}  // namespace

TapScorer::TapScorer(const dl::Model& model,
                     const MahalanobisSupervisor& supervisor,
                     dl::KernelMode kernels)
    : sup_(&calibrated(supervisor)),
      engine_(model, tap_config(supervisor, kernels)) {
  if (!engine_.can_tap(sup_->feature_layer()))
    throw std::logic_error("TapScorer: engine cannot tap the feature layer");
  const std::size_t dim = sup_->feature_dim();
  feat_.assign(dim, 0.0f);  // sxlint: allow(hot-path-alloc) deploy-time tap buffer
  logits_.assign(model.output_shape().size(), 0.0f);  // sxlint: allow(hot-path-alloc) deploy-time tap buffer
  scratch_.assign(dim, 0.0);  // sxlint: allow(hot-path-alloc) deploy-time solve scratch
}

Status TapScorer::score(tensor::ConstTensorView input,
                        double& score) noexcept {
  const Status st =
      engine_.run_tapped(input, logits_, sup_->feature_layer(), feat_);
  if (ok(st)) score = sup_->score_into(feat_, scratch_);
  return st;
}

bool TapScorer::accept(double score) noexcept {
  const bool accepted = score <= sup_->threshold();
  if (!accepted && obs_ != nullptr) obs_->add(rejections_id_);
  return accepted;
}

}  // namespace sx::supervise
