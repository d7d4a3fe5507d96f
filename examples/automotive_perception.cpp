// Automotive perception with per-decision explanations.
//
// Trains a small CNN on the RoadScene workload, deploys it at SIL1 and
// renders, for a few decisions, an ASCII saliency map next to the input —
// the "explain whether predictions can be trusted" loop of pillar 1.
//
//   $ ./examples/automotive_perception
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/batch.hpp"
#include "dl/train.hpp"
#include "explain/explainer.hpp"
#include "explain/metrics.hpp"
#include "util/table.hpp"

namespace {

const char* kClassNames[] = {"clear-road", "vehicle", "pedestrian",
                             "obstacle"};

/// Renders a 16x16 single-channel image as ASCII shades.
void render(const sx::tensor::Tensor& img, const sx::tensor::Tensor* overlay,
            std::ostream& os) {
  static const char* shades = " .:-=+*#%@";
  const std::size_t h = img.shape()[1], w = img.shape()[2];
  float omax = 1e-9f;
  if (overlay != nullptr)
    for (std::size_t i = 0; i < overlay->size(); ++i)
      omax = std::max(omax, std::abs(overlay->at(i)));
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const float v = overlay
                          ? std::abs(overlay->at(0, y, x)) / omax
                          : img.at(0, y, x);
      const int idx = std::min(9, static_cast<int>(v * 9.99f));
      os << shades[idx] << shades[idx];
    }
    os << '\n';
  }
}

}  // namespace

int main() {
  using namespace sx;

  const dl::Dataset data = dl::make_road_scene(400, 11);
  dl::ModelBuilder builder{data.input_shape};
  builder.conv2d(4, 3, 1, 1).relu().maxpool(2).flatten().dense(24).relu()
      .dense(dl::kRoadSceneClasses);
  dl::Model model = builder.build(17);
  dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                      .epochs = 12,
                                      .batch_size = 16,
                                      .shuffle_seed = 23}};
  trainer.fit(model, data);
  std::cout << "camera perception CNN trained: "
            << dl::Trainer::evaluate_accuracy(model, data) * 100
            << "% accuracy\n\n";

  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil1;
  cfg.batch_workers = 4;  // camera bursts fan out over four channels
  core::CertifiablePipeline pipeline{model, data, cfg};

  std::size_t shown = 0;
  for (const auto& s : data.samples) {
    if (!s.signal.has_value()) continue;
    const core::Decision d = pipeline.infer(s.input, shown);
    if (!ok(d.status) || d.predicted_class != s.label) continue;

    const tensor::Tensor attribution =
        pipeline.explain(s.input, d.predicted_class);
    const double gain = explain::localization_gain(attribution, *s.signal);

    std::cout << "decision: " << kClassNames[d.predicted_class]
              << " (confidence " << d.confidence << ")\n";
    std::cout << "input:\n";
    render(s.input, nullptr, std::cout);
    std::cout << "why (gradient saliency, localization gain "
              << sx::util::fmt(gain, 1) << "x over uniform):\n";
    render(s.input, &attribution, std::cout);
    std::cout << "\n";
    if (++shown >= 3) break;
  }

  std::cout << "audit chain verifies: "
            << (ok(pipeline.audit().verify()) ? "yes" : "no") << "\n";

  // Camera bursts arrive as batches: fan a 32-frame burst over the
  // deterministic batch pool, whose workers each run a copy of the deployed
  // monitored channel, and attach its per-worker counters to the
  // certification evidence. The static partition makes the decisions
  // bit-identical to deciding the frames one by one.
  std::vector<tensor::Tensor> burst;
  for (std::size_t i = 0; i < 32; ++i) burst.push_back(data.samples[i].input);
  const std::vector<core::Decision> decisions =
      pipeline.infer_batch(burst, /*logical_time=*/100);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < decisions.size(); ++i)
    agree += ok(decisions[i].status) &&
             decisions[i].predicted_class == data.samples[i].label;
  const dl::BatchRunner& runner = *pipeline.batch_runner();
  std::cout << "\n32-frame burst over " << runner.workers() << " workers: "
            << agree << "/32 frames match labels\n"
            << core::make_batch_runner_evidence(runner).body;
  return 0;
}
