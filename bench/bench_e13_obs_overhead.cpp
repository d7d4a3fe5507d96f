// E13 — telemetry overhead and live MBPTA evidence (`bench_e13_obs_overhead`)
//
// Question: what does always-on observability cost, and is the telemetry it
// gathers good enough to serve as timing evidence? A certification argument
// only tolerates a flight recorder that is (a) cheap enough to leave enabled
// in deployment and (b) useful enough that its samples feed the pWCET
// analysis directly.
//
// Method: the same SIL2 CNN pipeline (the E11 perception model) is deployed
// twice — telemetry disabled vs enabled (registry + histograms + flight
// recorder) — and driven over an identical decision stream on both the
// single-item and the batch path.
// Overhead = (us/decision with telemetry) / (us/decision without) - 1,
// taken over the medians of bench::time_interleaved (host facts are
// printed first). Then the enabled pipeline's
// sx_decision_cycles histogram is drained and handed to timing::analyze()
// to produce an MbptaReport from live samples.
//
// Usage: bench_e13_obs_overhead [--smoke] [--perf-gates]   (--smoke
// shrinks the load for CI label `bench-smoke`; the 5% overhead verdict is
// a wall-clock ratio, gated only in full runs and under --perf-gates).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "timing/mbpta.hpp"

namespace {

sx::core::CertifiablePipeline make_pipeline(bool telemetry,
                                            std::size_t batch_workers) {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil2;
  cfg.enable_telemetry = telemetry;
  cfg.batch_workers = batch_workers;
  return sx::core::CertifiablePipeline{sx::bench::trained_cnn(),
                                       sx::bench::road_data(), cfg};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E13: telemetry overhead + live MBPTA evidence",
      "Is always-on observability cheap enough for deployment, and do its "
      "drained samples feed the pWCET analysis?");

  bench::print_host_facts();
  const std::size_t decisions = smoke ? 200 : 400;
  const std::size_t reps = smoke ? 6 : 12;

  auto p_off = make_pipeline(false, 4);
  auto p_on = make_pipeline(true, 4);

  const auto& ds = bench::road_data();
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(decisions);
  for (std::size_t i = 0; i < decisions; ++i)
    inputs.push_back(ds.samples[i % ds.size()].input);
  // Variants: single-item off, single-item on, batch off, batch on; one
  // call is `decisions` decisions. Interleaved rounds let transient
  // machine load hit every variant alike.
  const std::vector<bench::Timing> tm = bench::time_interleaved(
      4, 1, reps, [&](std::size_t v) {
        core::CertifiablePipeline& p = v % 2 == 0 ? p_off : p_on;
        if (v < 2)
          for (std::size_t i = 0; i < decisions; ++i)
            (void)p.infer(inputs[i], i);
        else
          (void)p.infer_batch(inputs);
      });
  const auto per_decision = [&](std::size_t v) {
    return tm[v].median_us / static_cast<double>(decisions);
  };
  const double single_off = per_decision(0), single_on = per_decision(1);
  const double batch_off = per_decision(2), batch_on = per_decision(3);
  const double single_ovh = single_on / single_off - 1.0;
  const double batch_ovh = batch_on / batch_off - 1.0;

  util::Table table({"path", "telemetry off (us/dec)", "on (us/dec)",
                     "overhead"});
  table.add_row({"single-item infer()", util::fmt(single_off, 2),
                 util::fmt(single_on, 2),
                 util::fmt(single_ovh * 100.0, 1) + "%"});
  table.add_row({"batch x4 infer_batch()", util::fmt(batch_off, 2),
                 util::fmt(batch_on, 2),
                 util::fmt(batch_ovh * 100.0, 1) + "%"});
  table.print(std::cout);
  std::cout << "\n";

  const obs::Registry* reg = p_on.telemetry();
  std::cout << "registry: " << reg->counters() << " counters, "
            << reg->gauges() << " gauges, " << reg->histograms()
            << " histograms (" << reg->dropped_registrations()
            << " dropped registrations)\n"
            << "flight recorder: " << p_on.flight_recorder()->size() << "/"
            << p_on.flight_recorder()->capacity() << " spans retained, "
            << p_on.flight_recorder()->total_recorded()
            << " recorded in total\n\n";

  bool all_ok = true;

  // Verdict 1: telemetry costs less than ~5% on the decision path.
  const double worst_ovh = std::max(single_ovh, batch_ovh);
  const bool cheap = bench::timing_verdict(
      worst_ovh < 0.05,
      "telemetry overhead stays under 5% on both paths (worst " +
          util::fmt(worst_ovh * 100.0, 1) + "%)",
      args);
  all_ok = all_ok && cheap;

  // Verdict 2: the live samples are MBPTA-grade evidence. The single-item
  // and batch runs above pushed well over 200 decisions through
  // sx_decision_cycles; drain the retained ring and run the analysis.
  obs::Registry* reg_mut = p_on.telemetry();
  const obs::HistogramId h = reg_mut->find_histogram("sx_decision_cycles");
  std::vector<double> times(reg_mut->sample_count(h));
  const std::size_t drained = reg_mut->drain_samples(h, times);
  bool mbpta_ok = drained >= 200;
  if (mbpta_ok) {
    timing::MbptaConfig mc;
    mc.require_iid = false;  // live deployment samples; report iid anyway
    const timing::MbptaReport report = timing::analyze(times, mc);
    mbpta_ok = report.observed_hwm > 0.0 && !report.curve.empty();
    std::cout << report.to_text() << "\n";
  }
  bench::print_verdict(mbpta_ok,
                       "drained sx_decision_cycles samples (" +
                           std::to_string(drained) +
                           " observations) are accepted by timing::analyze() "
                           "and yield a pWCET curve");
  all_ok = all_ok && mbpta_ok;

  return all_ok ? 0 : 1;
}
