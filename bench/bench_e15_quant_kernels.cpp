// E15 — int8 quantized kernel plans (`bench_e15_quant_kernels`)
//
// Question: how much does the deploy-time int8 kernel plan (wide-panel
// int8 x int8 -> int32 matvec, the direct Conv2d, fused
// requantize(+ReLU) epilogues) buy over the
// reference int8 loops of dl/quant.cpp — while staying bitwise identical
// to them, saturation counters included? Same FUSA rule as E14: an
// optimization may change nothing observable.
//
// Method: host facts first, then three rungs, each timed by
// bench::time_interleaved (warm-up, then rounds with the variants
// interleaved so transient machine load hits all alike; medians with
// their quartiles).
//   1. raw int8 matvec 512x512: the reference per-row scalar loop vs the
//      probed qmatvec_wide_* lane kernel;
//   2. QuantEngine on the quantized perception CNN: reference vs the wide
//      plan (logits AND per-layer clip counters compared), plus the float
//      StaticEngine on the same CNN, timed interleaved, for the int8 :
//      float engine ratio (printed and recorded, not gated);
//   3. end-to-end SIL2 int8 pipeline (ODD guard, monitor, supervisor,
//      audit chain, telemetry all live) built once with
//      SX_KERNEL_REFERENCE=1 and once normally — the deployment-shaped
//      speedup (target >= 1.5x on the engine-dominated batch path).
// Every rung first proves bitwise identity of the outputs it times.
//
// Usage: bench_e15_quant_kernels [--smoke] [--perf-gates]   (--smoke
// shrinks the load for CI label `bench-smoke`; the speedup floors are
// wall-clock ratios, gated only in full runs and under --perf-gates).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/engine.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/qkernels.hpp"
#include "util/rng.hpp"

namespace {

namespace qk = sx::tensor::qkernels;

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

/// The reference int8 Dense loop, verbatim from dl/quant.cpp's run_layer:
/// one serial int32 chain per output row, reference requantize epilogue.
void qmatvec_reference(const std::int8_t* w, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const qk::Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::int32_t acc = 0;
    const std::int8_t* wr = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c)
      acc += static_cast<std::int32_t>(wr[c]) *
             static_cast<std::int32_t>(x[c]);
    out[r] = qk::requantize(acc, r, rq, sat);
  }
}

const sx::dl::QuantizedModel& quantized_cnn() {
  static const sx::dl::QuantizedModel qm = sx::dl::QuantizedModel::quantize(
      sx::bench::perception_cnn(), sx::bench::road_data());
  return qm;
}

sx::core::CertifiablePipeline make_sil2_int8_pipeline(
    std::size_t batch_workers) {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil2;
  cfg.backend = sx::core::BackendKind::kInt8;
  cfg.batch_workers = batch_workers;
  return sx::core::CertifiablePipeline{sx::bench::perception_cnn(),
                                       sx::bench::road_data(), cfg};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E15: int8 quantized kernel plans",
      "What do blocked int8 matvec, the direct conv and fused "
      "requantize(+ReLU) epilogues buy over the reference int8 loops — at "
      "bitwise-identical outputs and clip counters?");

  bench::print_host_facts();
  bool all_ok = true;
  bench::JsonResult json{"E15", smoke};

  // ------------------------------------------ 1. raw int8 matvec 512x512
  {
    const std::size_t n = 512;
    std::vector<std::int8_t> w(n * n), x(n);
    util::Xoshiro256 rng{1};
    for (auto& v : w)
      v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
    for (auto& v : x)
      v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
    std::vector<float> w_scale(n, 0.004f), bias(n);
    for (std::size_t i = 0; i < n; ++i)
      bias[i] = 0.01f * static_cast<float>(i % 17) - 0.08f;
    const qk::Requant rq{.w_scales = w_scale.data(),
                         .per_channel = true,
                         .bias = bias.data(),
                         .in_scale = 0.02f,
                         .out_scale = 0.05f,
                         .relu = false};

    std::vector<std::int8_t> ref(n), wide(n);
    std::vector<std::int8_t> wpanel(qk::qwide_dense_panel_bytes(n, n));
    qk::pack_qwide_dense_panel(w.data(), n, n, wpanel.data());
    const auto arm = platform::select_wide_isa().int8;
    const auto wide_fn = qk::wide_qdense_kernel(arm);
    std::uint64_t sat_ref = 0, sat_wide = 0;

    qmatvec_reference(w.data(), n, n, x.data(), rq, ref.data(), &sat_ref);
    wide_fn(wpanel.data(), n, n, x.data(), rq, wide.data(), &sat_wide);
    const bool identical = wide == ref && sat_wide == sat_ref;
    bench::print_verdict(identical,
                         "int8 matvec 512x512: the wide kernel matches the "
                         "reference loop bit for bit, clip counters "
                         "included");
    all_ok = all_ok && identical;

    const std::size_t calls = smoke ? 20 : 50;
    const std::size_t reps = smoke ? 8 : 20;
    const std::vector<bench::Timing> tm = bench::time_interleaved(
        2, calls, reps, [&](std::size_t v) {
          if (v == 0)
            qmatvec_reference(w.data(), n, n, x.data(), rq, ref.data(),
                              &sat_ref);
          else
            wide_fn(wpanel.data(), n, n, x.data(), rq, wide.data(),
                    &sat_wide);
        });
    const double t_ref = tm[0].median_us, t_wide = tm[1].median_us;

    util::Table table({"int8 matvec 512x512", "us/call", "speedup"});
    table.add_row({"reference loop", util::fmt(t_ref, 2), "1.00x"});
    table.add_row({std::string("wide (") + qk::qarm_name(arm) +
                       " quad panels)",
                   util::fmt(t_wide, 2),
                   util::fmt(t_ref / t_wide, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    json.add("qmatvec512_us_reference", t_ref);
    json.add("qmatvec512_us_wide", t_wide);
    json.add("qmatvec512_speedup", t_ref / t_wide);

    // Informational, not gated: this inline reference loop is itself a
    // single tight kernel the compiler vectorizes, so an isolated int8
    // matvec shows only a modest win. The gated >= 1.5x claims are at the
    // engine (rung 2) and pipeline (rung 3) level, where the baseline is
    // the real reference path of dl/quant.cpp.
    std::cout << "(raw matvec timing is informational; gated speedups "
                 "follow in rungs 2 and 3)\n\n";
  }

  // ----------------------------------- 2. QuantEngine, quantized CNN
  {
    const dl::QuantizedModel& qm = quantized_cnn();
    dl::QuantEngine ref{qm, {.kernels = dl::KernelMode::kReference}};
    dl::QuantEngine wid{qm, {.kernels = dl::KernelMode::kWide}};
    std::cout << wid.plan()->summary() << "\n\n";

    const auto& ds = bench::road_data();
    const std::size_t out_size = qm.output_shape().size();
    std::vector<float> a(out_size), o(out_size);
    bool identical = true;
    for (std::size_t i = 0; i < 64; ++i) {
      const auto in = ds.samples[i].input.view();
      (void)ref.run(in, a);
      (void)wid.run(in, o);
      identical = identical && bits_equal(o, a);
    }
    const auto rc = ref.saturation_counts();
    const auto wc = wid.saturation_counts();
    for (std::size_t i = 0; i < rc.size(); ++i)
      identical = identical && rc[i] == wc[i];
    bench::print_verdict(identical,
                         "QuantEngine: the wide plan matches the reference "
                         "engine bit for bit over 64 CNN inferences, "
                         "per-layer clip counters included");
    all_ok = all_ok && identical;

    const std::size_t infs = smoke ? 100 : 300;
    const std::size_t reps = smoke ? 8 : 16;
    // The float engine the int8 backend replaces: same CNN, default
    // (wide) plan.
    dl::StaticEngine flt{bench::perception_cnn(),
                         {.kernels = dl::KernelMode::kWide}};
    dl::Engine* engines[] = {&ref, &wid, &flt};
    std::size_t next[3] = {};  // each engine cycles through the samples
    const std::vector<bench::Timing> tm = bench::time_interleaved(
        3, infs, reps, [&](std::size_t v) {
          (void)engines[v]->run(
              ds.samples[next[v]++ % ds.size()].input.view(), o);
        });
    const double t_ref = tm[0].median_us, t_wid = tm[1].median_us,
                 t_flt = tm[2].median_us;
    auto spread = [](const bench::Timing& t) {
      return util::fmt(t.median_us, 2) + " [" + util::fmt(t.q1_us, 2) +
             ", " + util::fmt(t.q3_us, 2) + "]";
    };
    util::Table table(
        {"QuantEngine CNN", "us/inference median [q1, q3]", "speedup"});
    table.add_row({"reference loops", spread(tm[0]), "1.00x"});
    table.add_row({std::string("wide plan (int8 ") +
                       qk::qarm_name(wid.plan()->isa_selection().int8) + ")",
                   spread(tm[1]), util::fmt(t_ref / t_wid, 2) + "x"});
    table.add_row({"float wide plan", spread(tm[2]), "-"});
    table.print(std::cout);
    // The ratio of the medians, bracketed by the ratios the quartiles
    // allow.
    std::cout << "int8 : float engine on the rung-3 CNN: "
              << util::fmt(t_wid / t_flt, 2) << " ["
              << util::fmt(tm[1].q1_us / tm[2].q3_us, 2) << ", "
              << util::fmt(tm[1].q3_us / tm[2].q1_us, 2)
              << "] (interleaved medians: int8 " << spread(tm[1])
              << " us vs float " << spread(tm[2])
              << " us per inference)\n\n";
    json.add("engine_us_float", t_flt);
    json.add("engine_int8_to_float_ratio", t_wid / t_flt);

    const double eng_speedup = t_ref / t_wid;
    json.add("engine_us_reference", t_ref);
    json.add("engine_us_wide", t_wid);
    json.add("engine_speedup", eng_speedup);
    all_ok = bench::timing_verdict(eng_speedup >= 1.5,
                                   "planned int8 engine is >= 1.5x the "
                                   "reference engine on the CNN (measured " +
                                       util::fmt(eng_speedup, 2) + "x)",
                                   args) &&
             all_ok;
  }

  // ----------------------- 3. end-to-end SIL2 int8 pipeline, escape hatch
  {
    setenv("SX_KERNEL_REFERENCE", "1", 1);
    auto p_ref = make_sil2_int8_pipeline(4);
    unsetenv("SX_KERNEL_REFERENCE");
    auto p_plan = make_sil2_int8_pipeline(4);
    std::cout << "default deployment records: " << p_plan.kernel_backend()
              << "\n\n";

    const auto& ds = bench::road_data();
    bool identical = true;
    for (std::size_t i = 0; i < 32; ++i) {
      const auto a = p_ref.infer(ds.samples[i].input, 1000 + i);
      const auto b = p_plan.infer(ds.samples[i].input, 1000 + i);
      identical = identical && a.predicted_class == b.predicted_class &&
                  std::bit_cast<std::uint32_t>(a.confidence) ==
                      std::bit_cast<std::uint32_t>(b.confidence) &&
                  a.status == b.status;
    }
    identical = identical && p_ref.quant_saturation_total() ==
                                 p_plan.quant_saturation_total();
    bench::print_verdict(identical,
                         "SIL2 int8 pipeline decisions (class, confidence "
                         "bits, status) and clip totals are identical "
                         "across reference and default deployments");
    all_ok = all_ok && identical;

    const std::size_t decisions = smoke ? 150 : 400;
    const std::size_t reps = smoke ? 6 : 12;
    std::vector<tensor::Tensor> inputs;
    inputs.reserve(decisions);
    for (std::size_t i = 0; i < decisions; ++i)
      inputs.push_back(ds.samples[i % ds.size()].input);
    // Variants: single-item reference, single-item default, batch
    // reference, batch default; one call is `decisions` decisions.
    const std::vector<bench::Timing> tm = bench::time_interleaved(
        4, 1, reps, [&](std::size_t v) {
          core::CertifiablePipeline& p = v % 2 == 0 ? p_ref : p_plan;
          if (v < 2)
            for (std::size_t i = 0; i < decisions; ++i)
              (void)p.infer(inputs[i], i);
          else
            (void)p.infer_batch(inputs);
        });
    const auto per_decision = [&](std::size_t v) {
      return tm[v].median_us / static_cast<double>(decisions);
    };
    const double single_ref = per_decision(0), single_plan = per_decision(1);
    const double batch_ref = per_decision(2), batch_plan = per_decision(3);

    util::Table table({"SIL2 int8 pipeline", "reference (us/dec)",
                       "default (us/dec)", "speedup"});
    table.add_row({"single-item infer()", util::fmt(single_ref, 2),
                   util::fmt(single_plan, 2),
                   util::fmt(single_ref / single_plan, 2) + "x"});
    table.add_row({"batch x4 infer_batch()", util::fmt(batch_ref, 2),
                   util::fmt(batch_plan, 2),
                   util::fmt(batch_ref / batch_plan, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    std::cout << core::make_quant_backend_evidence(p_plan).body << "\n";

    const double e2e = batch_ref / batch_plan;
    json.add("pipeline_single_speedup", single_ref / single_plan);
    json.add("pipeline_batch_speedup", e2e);
    all_ok = bench::timing_verdict(
                 e2e >= 1.5,
                 "end-to-end SIL2 int8 pipeline speedup >= 1.5x on the batch "
                 "path (measured " + util::fmt(e2e, 2) + "x; single-item " +
                     util::fmt(single_ref / single_plan, 2) + "x)",
                 args) &&
             all_ok;
  }

  const bool wrote = json.write(all_ok);
  return all_ok && wrote ? 0 : 1;
}
