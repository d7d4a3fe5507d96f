// Quickstart: train a small model, deploy it in a certifiable pipeline,
// run a few decisions and inspect the evidence trail.
//
//   $ ./examples/quickstart
#include <iostream>

#include "core/pipeline.hpp"
#include "dl/dataset.hpp"
#include "dl/train.hpp"

int main() {
  using namespace sx;

  // 1. A synthetic perception dataset (abstracting a camera feed).
  const dl::Dataset data = dl::make_road_scene(400, /*seed=*/11);

  // 2. Build and train a small classifier — offline, non-critical code.
  dl::ModelBuilder builder{data.input_shape};
  builder.flatten().dense(32).relu().dense(16).relu().dense(
      dl::kRoadSceneClasses);
  dl::Model model = builder.build(/*seed=*/5);

  dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                      .epochs = 30,
                                      .batch_size = 16,
                                      .shuffle_seed = 3}};
  const auto history = trainer.fit(model, data);
  std::cout << "trained: accuracy " << history.back().accuracy * 100
            << "% after " << history.size() << " epochs\n";
  std::cout << model.summary() << "\n";

  // 3. Deploy at SIL2: the framework adds the monitored channel, a trust
  //    supervisor, an ODD guard and explanation support — and refuses any
  //    configuration that would not be admissible at this level.
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.batch_workers = 2;  // enable the deterministic batch path
  core::CertifiablePipeline pipeline{model, data, cfg};
  std::cout << "deployed model " << pipeline.model_card().model_hash.substr(0, 16)
            << "... at "
            << trace::to_string(pipeline.criticality()) << "\n\n";

  // 4. Decide.
  for (std::size_t i = 0; i < 5; ++i) {
    const core::Decision d = pipeline.infer(data.samples[i].input, i);
    std::cout << "input " << i << ": class " << d.predicted_class
              << " (label " << data.samples[i].label << "), confidence "
              << d.confidence << ", status " << to_string(d.status) << "\n";
  }

  // 5. Batch decisions: a frame burst fanned out over the static worker
  //    pool. The round-robin partition is static, so classes, counters and
  //    the audit trail are identical for every worker count.
  std::vector<tensor::Tensor> burst;
  for (std::size_t i = 5; i < 13; ++i)
    burst.push_back(data.samples[i].input);
  const auto batch = pipeline.infer_batch(burst, /*logical_time=*/10);
  std::cout << "\nbatch of " << batch.size() << " over "
            << pipeline.batch_runner()->workers() << " workers:";
  std::size_t faults = 0;
  for (const auto& d : batch) {
    std::cout << " " << d.predicted_class;
    faults += d.status == Status::kNumericFault ? 1 : 0;
  }
  std::cout << " (" << faults << " numeric faults)\n\n";

  // 6. An out-of-domain input is rejected before it reaches the network.
  tensor::Tensor garbage{data.input_shape};
  garbage.fill(42.0f);
  const core::Decision d = pipeline.infer(garbage, 99);
  std::cout << "garbage input: status " << to_string(d.status)
            << " (degraded=" << d.degraded << ")\n\n";

  // 7. Every decision left a tamper-evident audit record.
  std::cout << "audit entries: " << pipeline.audit().size()
            << ", chain verifies: "
            << (ok(pipeline.audit().verify()) ? "yes" : "no") << "\n";
  std::cout << "\nsafety case:\n" << pipeline.build_safety_case().to_text();
  return 0;
}
