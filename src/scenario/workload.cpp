#include "scenario/workload.hpp"

#include <stdexcept>
#include <string>

#include "dl/quant.hpp"

namespace sx::scenario {
namespace {

void check_gate(bool enabled, double measured, double floor_value,
                const char* what) {
  if (!enabled || measured >= floor_value) return;
  throw std::runtime_error(
      std::string("make_digit_workload: ") + what + " accuracy " +
      std::to_string(measured) + " below golden floor " +
      std::to_string(floor_value));
}

}  // namespace

DigitWorkload make_digit_workload(const DigitWorkloadConfig& cfg) {
  const dl::Dataset all =
      dl::make_digits(cfg.samples, cfg.data_seed, cfg.noise_sigma);
  dl::ModelBuilder b{all.input_shape};
  b.conv2d(6, 3, /*stride=*/1, /*padding=*/1)
      .relu()
      .maxpool(2)
      .flatten()
      .dense(32)
      .relu()
      .dense(dl::kDigitClasses);
  DigitWorkload w{.model = b.build(cfg.model_seed), .train = {}, .test = {}};
  dl::split(all, cfg.train_fraction, w.train, w.test);
  if (w.train.samples.empty() || w.test.samples.empty())
    throw std::invalid_argument("make_digit_workload: degenerate split");

  dl::Trainer trainer{cfg.train};
  trainer.fit(w.model, w.train);
  w.train_accuracy = dl::Trainer::evaluate_accuracy(w.model, w.train);
  w.test_accuracy = dl::Trainer::evaluate_accuracy(w.model, w.test);

  // Int8 gate: quantize a throwaway twin the same way the pipeline's kInt8
  // backend will (fold, then calibrate against the training set). The twin
  // is only for the accuracy floor — deployment re-quantizes per pipeline.
  dl::QuantizedModel q = dl::QuantizedModel::quantize(
      dl::fold_batchnorm(w.model), w.train);
  w.int8_accuracy = q.evaluate_accuracy(w.test);

  check_gate(cfg.check_gates, w.train_accuracy, cfg.min_train_accuracy,
             "train");
  check_gate(cfg.check_gates, w.test_accuracy, cfg.min_test_accuracy, "test");
  check_gate(cfg.check_gates, w.int8_accuracy, cfg.min_int8_accuracy, "int8");
  return w;
}

}  // namespace sx::scenario
