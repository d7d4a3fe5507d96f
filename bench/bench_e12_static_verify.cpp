// E12 — static verification gate (`bench_e12_static_verify`)
//
// Question: does the abstract-interpretation pass (verify/range) certify
// the example deployments from their parameters and the ODD alone, refuse
// deliberately ill-posed models, and how much does the analysis cost
// relative to one concrete inference?
//
// Method: verify_model() runs over the standard trained MLP/CNN and a
// population of random architectures, each with the engine check of the
// StaticEngine that runs it; for each we record the verdict, the static
// output envelope, the engine count, the arena re-check and the analysis
// wall time next to one inference of that engine. Two seeded defects — a
// NaN weight and an engine whose arena is one float short — must flip the
// verdict to FAIL. Finally the int8 saturation margins of the quantized
// MLP are printed.
//
// Usage: bench_e12_static_verify [--smoke]   (--smoke shrinks the random
// population for CI label `bench-smoke`).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dl/engine.hpp"
#include "dl/quant.hpp"
#include "util/rng.hpp"
#include "verify/range.hpp"

namespace {

using namespace sx;

trace::OddSpec unit_box() {
  return trace::OddSpec{};  // value envelope [0, 1], as qualified for road
}

/// Same architecture population as the engine/range differential tests.
dl::Model random_model(util::Xoshiro256& rng) {
  const bool image_input = rng.below(2) == 0;
  tensor::Shape input =
      image_input ? tensor::Shape::chw(1, 4 + rng.below(5), 4 + rng.below(5))
                  : tensor::Shape::vec(4 + rng.below(21));
  dl::ModelBuilder b{input};
  if (image_input) {
    if (rng.below(2) == 0) {
      b.conv2d(1 + rng.below(3), 3, /*stride=*/1, /*padding=*/1);
      b.relu();
    }
    b.flatten();
  }
  const std::size_t blocks = 1 + rng.below(3);
  for (std::size_t l = 0; l < blocks; ++l) {
    b.dense(3 + rng.below(18));
    switch (rng.below(4)) {
      case 0: b.relu(); break;
      case 1: b.sigmoid(); break;
      case 2: b.tanh_(); break;
      default: break;
    }
  }
  b.dense(2 + rng.below(5));
  if (rng.below(2) == 0) b.softmax();
  return b.build(/*seed=*/rng());
}

dl::Layer& first_param_layer(dl::Model& m) {
  for (std::size_t i = 0; i < m.layer_count(); ++i)
    if (!m.layer(i).params().empty()) return m.layer(i);
  throw std::logic_error("model has no parametric layer");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::print_header(
      "E12: static verification gate",
      "Does abstract interpretation certify the deployed models pre-flight, "
      "refuse seeded defects, and what does the analysis cost?");

  util::Table table({"model", "layers", "verdict", "output envelope",
                     "engines", "arena req=plan", "analysis us",
                     "1 inference us"});

  bool healthy_all_pass = true;
  bool defects_all_fail = true;
  double worst_ratio = 0.0;

  // `short_by` shrinks the engine check's planned arena: the seeded
  // undersized-arena defect.
  const auto row = [&](const std::string& name, const dl::Model& m,
                       bool expect_pass, std::size_t short_by = 0) {
    dl::StaticEngine engine{m};
    verify::EngineCheck check = verify::check_engine(m, engine);
    check.planned -= short_by;
    const verify::VerificationEvidence ev =
        verify::verify_model(m, unit_box(), {check});
    const double analysis_us = bench::time_per_call_us(
        [&] {
          (void)verify::verify_model(m, unit_box(),
                                     {verify::check_engine(m, engine)});
        },
        smoke ? 3 : 20);
    tensor::Tensor in{m.input_shape()};
    std::vector<float> out(m.output_shape().size());
    const double infer_us = bench::time_per_call_us(
        [&] { (void)engine.run(in.view(), out); }, smoke ? 10 : 200);
    if (expect_pass)
      healthy_all_pass = healthy_all_pass && ev.verdict.passed();
    else
      defects_all_fail = defects_all_fail && !ev.verdict.passed();
    if (infer_us > 0.0)
      worst_ratio = std::max(worst_ratio, analysis_us / infer_us);
    table.add_row(
        {name, std::to_string(m.layer_count()),
         ev.verdict.passed() ? "PASS" : "FAIL",
         "[" + util::fmt(static_cast<double>(ev.output_lo), 2) + ", " +
             util::fmt(static_cast<double>(ev.output_hi), 2) + "]",
         std::to_string(ev.engines.size()),
         std::to_string(check.required) + "=" +
             std::to_string(check.planned),
         util::fmt(analysis_us, 1), util::fmt(infer_us, 1)});
  };

  const dl::Model& mlp = bench::trained_mlp();
  const dl::Model& cnn = bench::trained_cnn();
  row("road MLP", mlp, true);
  row("road CNN", cnn, true);

  const std::size_t population = smoke ? 6 : 24;
  util::Xoshiro256 rng{0xE12u};
  for (std::size_t i = 0; i < population; ++i) {
    const dl::Model m = random_model(rng);
    row("random #" + std::to_string(i), m, true);
  }

  // Seeded defects: the gate must refuse both.
  dl::Model poisoned = mlp;
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  row("MLP + NaN weight", poisoned, false);
  row("MLP, arena -1 float", mlp, false, /*short_by=*/1);

  table.print(std::cout);

  std::cout << "\nint8 saturation margins (quantized road MLP, ODD [0,1]):\n";
  const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(mlp, bench::road_data());
  util::Table margins(
      {"layer", "kind", "|act| static bound", "scale*127", "margin"});
  for (const auto& q :
       verify::check_quant_saturation(mlp, qm, unit_box())) {
    margins.add_row(
        {std::to_string(q.layer), std::string(dl::to_string(q.kind)),
         util::fmt(static_cast<double>(q.static_absmax), 2),
         util::fmt(static_cast<double>(q.representable_absmax), 2),
         q.saturation_possible ? "saturation POSSIBLE" : "headroom OK"});
  }
  margins.print(std::cout);
  std::cout << "\n";

  bench::print_verdict(healthy_all_pass,
                       "every healthy model verifies PASS from ODD + "
                       "parameters alone");
  bench::print_verdict(defects_all_fail,
                       "seeded defects (NaN weight, undersized arena) are "
                       "refused");
  bench::print_verdict(worst_ratio < 1000.0,
                       "analysis cost stays within three orders of magnitude "
                       "of one inference (worst " +
                           util::fmt(worst_ratio, 1) + "x)");

  return (healthy_all_pass && defects_all_fail) ? 0 : 1;
}
