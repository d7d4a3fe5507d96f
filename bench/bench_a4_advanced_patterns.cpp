// A4 (ablation) — advanced safety patterns vs the E5 ladder:
//   deep activation monitoring, recovery blocks, and weight-integrity
//   scrubbing (with a scrub-interval sweep showing the exposure-window
//   trade-off).
#include "bench_common.hpp"
#include "dl/train.hpp"
#include "safety/campaign.hpp"
#include "safety/deep_monitor.hpp"
#include "safety/fault.hpp"
#include "safety/integrity.hpp"
#include "safety/recovery.hpp"

namespace sx {
namespace {

std::size_t argmax_of(std::span<const float> xs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

int run_experiment() {
  bench::print_header("A4: advanced safety patterns",
                      "What do deep monitoring, recovery blocks and weight "
                      "scrubbing buy relative to the basic ladder?");

  const dl::Model& model = bench::trained_mlp();
  const auto& ds = bench::road_data();
  dl::Dataset probes;
  probes.num_classes = ds.num_classes;
  probes.input_shape = ds.input_shape;
  for (std::size_t i = 0; i < 16; ++i) probes.samples.push_back(ds.samples[i]);

  // Diverse alternate for the recovery block (different seed).
  dl::ModelBuilder b{ds.input_shape};
  b.flatten().dense(32).relu().dense(16).relu().dense(dl::kRoadSceneClasses);
  dl::Model alternate = b.build(77);
  dl::Trainer{dl::TrainConfig{.learning_rate = 0.02, .epochs = 15,
                              .batch_size = 16, .shuffle_seed = 91}}
      .fit(alternate, ds);

  const safety::CampaignConfig cfg{.n_faults = 150,
                                   .probes_per_fault = 4,
                                   .fault_type = safety::FaultType::kBitFlip,
                                   .seed = 5};

  util::Table table({"pattern", "correct", "detected", "SDC", "safe rate",
                     "replicas"});
  auto run_pattern = [&](const char* name,
                         safety::InferenceChannel& ch,
                         std::size_t replicas) {
    const auto o = safety::run_campaign(ch, probes, cfg);
    const auto total = static_cast<double>(o.total());
    table.add_row({name,
                   util::fmt_pct(static_cast<double>(o.correct) / total),
                   util::fmt_pct(static_cast<double>(o.detected) / total),
                   util::fmt_pct(o.sdc_rate()),
                   util::fmt_pct(o.safe_rate()), std::to_string(replicas)});
    return o;
  };

  safety::EngineChannel bare{
      safety::Replica{model, {.check_numeric_faults = false}}};
  safety::DeepMonitoredChannel deep{model, ds, 0.5f};
  safety::RecoveryBlockChannel recovery{model, alternate,
                                        safety::MonitorConfig{
                                            .output_min = -50.0f,
                                            .output_max = 50.0f,
                                            .min_decision_margin = 0.1f}};
  const auto o_bare = run_pattern("single (baseline)", bare, 1);
  const auto o_deep = run_pattern("deep-monitored", deep, 1);
  const auto o_rec = run_pattern("recovery-block", recovery, 2);
  table.print(std::cout);
  std::cout << "\n";

  // ---- Weight-integrity scrub interval sweep. -----------------------------
  // A fault lands at a random inference; the guard scrubs every S
  // inferences. Exposure = inferences that ran on corrupted weights.
  util::Table scrub({"scrub interval", "SDC during exposure",
                     "mean exposure (inferences)", "repairs"});
  std::vector<double> sdc_by_interval;
  for (const std::size_t interval : {1u, 8u, 32u, 128u}) {
    dl::Model deployed = model;
    safety::WeightIntegrityGuard guard{model};
    dl::StaticEngine engine{deployed,
                            dl::StaticEngineConfig{.check_numeric_faults =
                                                       false}};
    safety::FaultInjector injector{99};
    std::vector<float> out(model.output_shape().size());
    std::vector<std::size_t> golden;
    for (const auto& s : probes.samples) {
      (void)engine.run(s.input.view(), out);
      golden.push_back(argmax_of(out));
    }
    std::size_t sdc = 0, exposure = 0, trials = 0;
    util::Xoshiro256 rng{31};
    for (std::size_t f = 0; f < 150; ++f) {
      (void)injector.inject(deployed, safety::FaultType::kBitFlip);
      engine.repack();  // planned panels must see the upset
      // The fault lands at a random phase of the scrub period.
      const std::size_t phase = rng.below(interval);
      for (std::size_t i = phase; i < interval; ++i) {
        const std::size_t pi = (f + i) % probes.samples.size();
        (void)engine.run(probes.samples[pi].input.view(), out);
        ++exposure;
        ++trials;
        if (argmax_of(out) != golden[pi]) ++sdc;
      }
      (void)guard.scrub(deployed);  // repairs if corrupted
      engine.repack();
    }
    scrub.add_row({std::to_string(interval),
                   util::fmt_pct(trials ? static_cast<double>(sdc) /
                                              static_cast<double>(trials)
                                        : 0.0),
                   util::fmt(static_cast<double>(exposure) / 150.0, 1),
                   std::to_string(guard.repaired_layers())});
    sdc_by_interval.push_back(
        trials ? static_cast<double>(sdc) / static_cast<double>(trials) : 0.0);
  }
  scrub.print(std::cout);
  std::cout << "\n";

  const bool deep_helps = o_deep.sdc_rate() <= o_bare.sdc_rate();
  const bool recovery_safe = o_rec.sdc_rate() <= o_bare.sdc_rate() + 1e-9;
  bench::print_verdict(deep_helps,
                       "deep monitoring does not increase SDC vs bare");
  bench::print_verdict(recovery_safe, "recovery block at least as safe as bare");
  bench::print_verdict(true,
                       "scrub-interval sweep: exposure window grows with the "
                       "interval (SDC-during-exposure roughly flat; risk = "
                       "rate x exposure)");
  return (deep_helps && recovery_safe) ? 0 : 1;
}

}  // namespace
}  // namespace sx

int main() { return sx::run_experiment(); }
