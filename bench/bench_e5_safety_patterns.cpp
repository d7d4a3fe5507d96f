// E5 — Safety-pattern ladder under fault injection (pillar 2).
//
// Regenerates the table: pattern x {correct, detected, fallback, SDC,
// latency overhead}. Shape claims: SDC falls monotonically along the
// ladder; redundancy costs latency roughly proportional to replica count —
// the criticality-dependent trade-off the project argues for. Latency is
// timed after every campaign, all patterns interleaved
// (bench::time_interleaved): the median per-call time over the rounds,
// with its quartiles, and the overhead as the ratio of medians.
#include "bench_common.hpp"
#include "safety/campaign.hpp"
#include "safety/channel.hpp"
#include "supervise/metrics.hpp"

namespace sx {
namespace {

int run_experiment() {
  bench::print_header("E5: safety patterns under weight-memory faults",
                      "What does each design safety pattern buy in detected/"
                      "masked faults, and at what cost?");

  const dl::Model& model = bench::trained_mlp();
  const auto& ds = bench::road_data();

  dl::Dataset probes;
  probes.num_classes = ds.num_classes;
  probes.input_shape = ds.input_shape;
  for (std::size_t i = 0; i < 16; ++i) probes.samples.push_back(ds.samples[i]);

  // Supervisor for the safety-bag configuration: the Mahalanobis score a
  // deployed pipeline uses, solved on the features the TMR vote's replica
  // tapped in its own run.
  supervise::MahalanobisSupervisor supervisor;
  supervisor.fit(model, ds);
  supervisor.calibrate_threshold(
      supervise::collect_scores(supervisor, model, ds), 0.95);
  supervise::TapScorer scorer{supervisor};
  std::vector<float> fallback(dl::kRoadSceneClasses, 0.0f);
  fallback[static_cast<std::size_t>(dl::RoadSceneClass::kObstacle)] = 10.0f;

  struct PatternCase {
    std::string name;
    std::unique_ptr<safety::InferenceChannel> channel;
  };
  std::vector<PatternCase> cases;
  cases.push_back({"single", std::make_unique<safety::EngineChannel>(
                                 safety::Replica{model, {.check_numeric_faults =
                                                             false}})});
  cases.push_back(
      {"monitored", std::make_unique<safety::EngineChannel>(
                        safety::Replica{model},
                        safety::MonitorConfig{.output_min = -50.0f,
                                              .output_max = 50.0f})});
  cases.push_back({"dmr", std::make_unique<safety::DmrChannel>(model)});
  cases.push_back({"tmr", std::make_unique<safety::TmrChannel>(model)});
  cases.push_back(
      {"diverse-tmr",
       std::make_unique<safety::DiverseTmrChannel>(
           model, dl::QuantizedModel::quantize(model, ds))});
  cases.push_back(
      {"tmr+safety-bag",
       std::make_unique<safety::SafetyBagChannel>(
           std::make_unique<safety::TmrChannel>(model), &scorer,
           fallback)});

  const safety::CampaignConfig cfg{.n_faults = 150,
                                   .probes_per_fault = 4,
                                   .fault_type = safety::FaultType::kBitFlip,
                                   .seed = 5};

  std::vector<safety::CampaignOutcome> outcomes;
  for (auto& c : cases)
    outcomes.push_back(safety::run_campaign(*c.channel, probes, cfg));

  // Latency, every pattern interleaved; "single" is the overhead baseline.
  std::vector<float> out(model.output_shape().size());
  const std::vector<bench::Timing> lat = bench::time_interleaved(
      cases.size(), 100, 15, [&](std::size_t v) {
        (void)cases[v].channel->infer(ds.samples[0].input.view(), out);
      });

  util::Table table({"pattern", "correct", "detected", "fallback", "SDC",
                     "safe rate", "latency us [q1, q3]", "overhead"});
  std::vector<double> sdc_rates;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const safety::CampaignOutcome& outcome = outcomes[i];
    const auto total = static_cast<double>(outcome.total());
    table.add_row(
        {cases[i].name,
         util::fmt_pct(static_cast<double>(outcome.correct) / total),
         util::fmt_pct(static_cast<double>(outcome.detected) / total),
         util::fmt_pct(static_cast<double>(outcome.fallback) / total),
         util::fmt_pct(outcome.sdc_rate()), util::fmt_pct(outcome.safe_rate()),
         util::fmt(lat[i].median_us, 2) + " [" + util::fmt(lat[i].q1_us, 2) +
             ", " + util::fmt(lat[i].q3_us, 2) + "]",
         util::fmt(lat[i].median_us / lat[0].median_us, 2) + "x"});
    sdc_rates.push_back(outcome.sdc_rate());
  }
  table.print(std::cout);
  std::cout << "\n";

  // Ladder shape: each step at least as safe as "single"; TMR-class
  // patterns essentially eliminate SDC.
  bool monotone_vs_bare = true;
  for (std::size_t i = 1; i < sdc_rates.size(); ++i)
    monotone_vs_bare &= sdc_rates[i] <= sdc_rates[0] + 1e-9;
  const bool tmr_clean = sdc_rates[3] < 0.01 && sdc_rates[5] < 0.01;
  bench::print_verdict(monotone_vs_bare,
                       "every pattern is at least as safe as the bare channel");
  bench::print_verdict(tmr_clean, "TMR-class patterns reduce SDC below 1%");
  return (monotone_vs_bare && tmr_clean) ? 0 : 1;
}

}  // namespace
}  // namespace sx

int main() { return sx::run_experiment(); }
