#include "supervise/tap_scorer.hpp"

#include <limits>
#include <stdexcept>

namespace sx::supervise {
namespace {

const MahalanobisSupervisor& calibrated(const MahalanobisSupervisor& sup) {
  if (sup.feature_dim() == 0 || !sup.has_threshold())
    throw std::invalid_argument(
        "TapScorer: supervisor must be fitted and threshold-calibrated");
  return sup;
}

}  // namespace

TapScorer::TapScorer(const MahalanobisSupervisor& supervisor)
    : sup_(&calibrated(supervisor)),
      scratch_(supervisor.feature_dim()) {}  // sxlint: allow(hot-path-alloc) deploy-time solve scratch

double TapScorer::score(std::span<const float> features) noexcept {
  if (features.size() != scratch_.size())
    return std::numeric_limits<double>::infinity();
  return sup_->score_into(features, scratch_);
}

bool TapScorer::accept(double score) noexcept {
  const bool accepted = score <= sup_->threshold();
  if (!accepted && obs_ != nullptr) obs_->add(rejections_id_);
  return accepted;
}

}  // namespace sx::supervise
