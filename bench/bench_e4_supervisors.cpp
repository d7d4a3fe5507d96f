// E4 — Prediction-trust supervisors (pillar 1).
//
// Regenerates three tables:
//   (a) supervisor x corruption: AUROC / FPR@95TPR;
//   (b) conformal prediction: alpha -> empirical coverage / set size;
//   (c) confidence calibration: temperature scaling and ECE.
// Shape claims: feature-/input-based supervisors beat the max-softmax
// baseline on far-OOD; conformal coverage meets its nominal level; the
// Mahalanobis supervisor fitted and scored on an int8 engine's dequantized
// features (what an int8 deployment taps) detects every corruption within
// 0.01 AUROC of the float-feature one.
#include <cmath>
#include <stdexcept>

#include "bench_common.hpp"
#include "dl/qplan.hpp"
#include "supervise/calibration.hpp"
#include "supervise/conformal.hpp"
#include "supervise/metrics.hpp"
#include "supervise/supervisor.hpp"

namespace sx {
namespace {

constexpr dl::Corruption kCorruptions[] = {
    dl::Corruption::kGaussianNoise, dl::Corruption::kInvert,
    dl::Corruption::kFog, dl::Corruption::kUniformRandom};

/// Mahalanobis scores of `ds` on features tapped from `engine`, the way a
/// deployed channel feeds its supervisor.
std::vector<double> tapped_scores(const supervise::MahalanobisSupervisor& sup,
                                  dl::Engine& engine, const dl::Dataset& ds) {
  std::vector<float> logits(dl::kRoadSceneClasses);
  std::vector<float> feat(sup.feature_dim());
  std::vector<double> scores;
  for (const auto& s : ds.samples) {
    if (!ok(engine.run_tapped(s.input.view(), logits, sup.feature_layer(),
                              feat)))
      throw std::runtime_error("E4: tapped run failed");
    scores.push_back(sup.score_from_features(feat));
  }
  return scores;
}

/// Table (a'): per corruption, the AUROC of the Mahalanobis supervisor
/// fitted on `m`'s float features and on its int8 twin's dequantized
/// features, each scored on the same engine it was fitted on. Returns
/// false when an int8 row is more than 0.01 from its float row.
bool add_tap_rows(util::Table& t, const char* name, const dl::Model& m,
                  const dl::Dataset& fit, const dl::Dataset& held_out) {
  dl::StaticEngine feng{m, {.check_numeric_faults = false,
                            .pin_tap_layer = dl::feature_layer(m)}};
  const dl::QuantizedModel qm = dl::QuantizedModel::quantize(m, fit);
  dl::QuantEngine qeng{qm};
  supervise::MahalanobisSupervisor fsup, qsup;
  (void)fsup.fit_planned(m, fit, feng);
  (void)qsup.fit_planned(m, fit, qeng);
  const std::vector<double> id_f = tapped_scores(fsup, feng, held_out);
  const std::vector<double> id_q = tapped_scores(qsup, qeng, held_out);
  bool close = true;
  for (const auto c : kCorruptions) {
    const dl::Dataset ood = dl::corrupt(held_out, c, 77);
    const double af = supervise::auroc(id_f, tapped_scores(fsup, feng, ood));
    const double aq = supervise::auroc(id_q, tapped_scores(qsup, qeng, ood));
    t.add_row({name, to_string(c), util::fmt(af, 4), util::fmt(aq, 4),
               util::fmt(aq - af, 4)});
    close &= std::fabs(aq - af) <= 0.01;
  }
  return close;
}

int run_experiment() {
  bench::print_header("E4: trust supervisors, conformal sets, calibration",
                      "Can the runtime tell trustworthy predictions from "
                      "untrustworthy ones, with quantified guarantees?");

  const dl::Model& model = bench::trained_mlp();
  const auto& id = bench::road_data();

  // ---- (a) OOD detection ladder. -----------------------------------------
  util::Table det({"supervisor", "corruption", "AUROC", "FPR@95TPR"});
  double baseline_far_auroc = 0.0, best_feature_far_auroc = 0.0;
  auto supervisors = supervise::make_all_supervisors();
  for (auto& sup : supervisors) sup->fit(model, id);
  for (const auto c : kCorruptions) {
    const dl::Dataset ood = dl::corrupt(id, c, 77);
    for (const auto& sup : supervisors) {
      const auto r =
          supervise::evaluate_detection(*sup, model, id, ood, to_string(c));
      det.add_row({r.supervisor, r.ood_name, util::fmt(r.auroc, 3),
                   util::fmt(r.fpr_at_95tpr, 3)});
      if (c == dl::Corruption::kUniformRandom) {
        if (r.supervisor == "max-softmax") baseline_far_auroc = r.auroc;
        if (r.supervisor == "mahalanobis" || r.supervisor == "autoencoder")
          best_feature_far_auroc = std::max(best_feature_far_auroc, r.auroc);
      }
    }
  }
  det.print(std::cout);
  std::cout << "\n";

  // ---- (a') Mahalanobis on the deployed feature path: float vs int8. ----
  // Fitted on the training set, scored on a held-out in-distribution set
  // and its corruptions.
  const dl::Dataset held_out = dl::make_road_scene(600, /*seed=*/99);
  util::Table taps({"model", "corruption", "AUROC float features",
                    "AUROC int8 features", "int8 - float"});
  bool int8_close = add_tap_rows(taps, "small MLP", model, id, held_out);
  int8_close &= add_tap_rows(taps, "rung-3 CNN", bench::perception_cnn(), id,
                             held_out);
  taps.print(std::cout);
  std::cout << "\n";

  // ---- (b) conformal prediction. -----------------------------------------
  dl::Dataset calib, test;
  dl::split(id, 0.5, calib, test);
  util::Table conf({"alpha", "nominal coverage", "empirical coverage",
                    "mean set size", "singleton frac"});
  bool coverage_ok = true;
  for (const double alpha : {0.10, 0.05, 0.01}) {
    const supervise::ConformalClassifier cc{model, calib, alpha};
    const auto rep = cc.evaluate(model, test);
    conf.add_row({util::fmt(alpha, 2), util::fmt_pct(1.0 - alpha),
                  util::fmt_pct(rep.empirical_coverage),
                  util::fmt(rep.mean_set_size, 2),
                  util::fmt_pct(rep.singleton_fraction)});
    coverage_ok &= rep.empirical_coverage >= 1.0 - alpha - 0.06;
  }
  conf.print(std::cout);
  std::cout << "\n";

  // ---- (c) calibration. ---------------------------------------------------
  const double t = supervise::fit_temperature(model, calib);
  util::Table cal({"temperature", "NLL", "ECE"});
  for (const double temp : {1.0, t}) {
    cal.add_row({util::fmt(temp, 3),
                 util::fmt(supervise::nll_at_temperature(model, test, temp), 4),
                 util::fmt(
                     supervise::expected_calibration_error(model, test, temp),
                     4)});
  }
  cal.print(std::cout);
  std::cout << "\n";

  const bool ladder_holds = best_feature_far_auroc > baseline_far_auroc;
  bench::print_verdict(ladder_holds,
                       "feature-based supervisors beat max-softmax on "
                       "far-OOD (AUROC " +
                           util::fmt(best_feature_far_auroc, 3) + " vs " +
                           util::fmt(baseline_far_auroc, 3) + ")");
  bench::print_verdict(coverage_ok,
                       "conformal empirical coverage meets nominal level");
  bench::print_verdict(int8_close,
                       "int8-feature Mahalanobis AUROC within 0.01 of the "
                       "float-feature one on every corruption");
  return (ladder_holds && coverage_ok && int8_close) ? 0 : 1;
}

}  // namespace
}  // namespace sx

int main() { return sx::run_experiment(); }
