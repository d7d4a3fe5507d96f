// E14 — deploy-time kernel plans (`bench_e14_kernel_plans`)
//
// Question: how much does the deploy-time kernel plan (wide-panel
// matvec/GEMM, ragged-im2col Conv2d, fused bias+activation epilogues) buy
// over the reference per-layer loops, while staying bitwise identical to
// them? A FUSA argument only tolerates an optimization that changes
// nothing observable: same bits, same fault behaviour, same memory plan.
//
// Method: three rungs, each timed min-of-reps with reference/planned
// rounds interleaved so transient machine load hits both alike.
//   1. raw matvec 512x512: tensor::matvec vs the probed matvec_wide_*
//      lane kernel (the BM_Matvec/512 geometry; target >= 2x);
//   2. StaticEngine on the trained CNN: reference vs the wide plan (E19
//      isolates the lane arms on micro sizes);
//   3. end-to-end SIL2 CNN pipeline (ODD guard, supervisor, audit chain,
//      telemetry all live) built once with SX_KERNEL_REFERENCE=1 and once
//      normally — the deployment-shaped speedup (target >= 1.5x on the
//      engine-dominated batch path).
// Every rung first proves bitwise identity of the outputs it times.
//
// Usage: bench_e14_kernel_plans [--smoke] [--perf-gates]   (--smoke
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
#include "dl/plan.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace {

namespace k = sx::tensor::kernels;

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

sx::core::CertifiablePipeline make_sil2_pipeline(std::size_t batch_workers) {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil2;
  cfg.batch_workers = batch_workers;
  return sx::core::CertifiablePipeline{sx::bench::perception_cnn(),
                                       sx::bench::road_data(), cfg};
}

double time_single_once(sx::core::CertifiablePipeline& p,
                        std::size_t decisions) {
  const auto& ds = sx::bench::road_data();
  const double us = sx::bench::time_per_call_us(
      [&] {
        for (std::size_t i = 0; i < decisions; ++i)
          (void)p.infer(ds.samples[i % ds.size()].input, i);
      },
      1);
  return us / static_cast<double>(decisions);
}

double time_batch_once(sx::core::CertifiablePipeline& p,
                       std::size_t decisions) {
  const auto& ds = sx::bench::road_data();
  std::vector<sx::tensor::Tensor> inputs;
  inputs.reserve(decisions);
  for (std::size_t i = 0; i < decisions; ++i)
    inputs.push_back(ds.samples[i % ds.size()].input);
  const double us =
      sx::bench::time_per_call_us([&] { (void)p.infer_batch(inputs); }, 1);
  return us / static_cast<double>(decisions);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E14: deploy-time kernel plans",
      "What do wide-panel matvec/GEMM, im2col Conv2d and fused epilogues "
      "buy over the reference loops — at bitwise-identical outputs?");

  bool all_ok = true;
  bench::JsonResult json{"E14", smoke};

  // ---------------------------------------------- 1. raw matvec 512x512
  {
    const std::size_t n = 512;
    tensor::Tensor w{tensor::Shape::mat(n, n)};
    tensor::Tensor x{tensor::Shape::vec(n)};
    tensor::Tensor b{tensor::Shape::vec(n)};
    util::Xoshiro256 rng{1};
    w.init_uniform(rng, -1, 1);
    x.init_uniform(rng, -1, 1);
    b.init_uniform(rng, -1, 1);
    std::vector<float> ref(n), wide(n);
    std::vector<float> wpanel(k::wide_dense_panel_floats(n, n));
    k::pack_wide_dense_panel(w.data().data(), n, n, wpanel.data());
    const auto isa = platform::select_wide_isa().isa;
    const auto wide_fn = k::wide_dense_kernel(isa);

    (void)tensor::matvec(w.view(), x.view(), b.view(),
                         tensor::TensorView{ref, tensor::Shape::vec(n)});
    (void)wide_fn(wpanel.data(), b.data().data(), n, n, x.data().data(),
                  wide.data(), k::Epilogue::kNone, false);
    const bool identical = bits_equal(wide, ref);
    bench::print_verdict(identical,
                         "matvec 512x512: the wide kernel is bitwise "
                         "identical to tensor::matvec");
    all_ok = all_ok && identical;

    const std::size_t calls = smoke ? 20 : 50;
    const std::size_t reps = smoke ? 8 : 20;
    double t_ref = 1e300, t_wide = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      t_ref = std::min(t_ref, bench::time_per_call_us(
                                  [&] {
                                    (void)tensor::matvec(
                                        w.view(), x.view(), b.view(),
                                        tensor::TensorView{
                                            ref, tensor::Shape::vec(n)});
                                  },
                                  calls));
      t_wide = std::min(t_wide, bench::time_per_call_us(
                                    [&] {
                                      (void)wide_fn(
                                          wpanel.data(), b.data().data(), n,
                                          n, x.data().data(), wide.data(),
                                          k::Epilogue::kNone, false);
                                    },
                                    calls));
    }

    util::Table table({"matvec 512x512", "us/call", "speedup"});
    table.add_row({"reference (tensor::matvec)", util::fmt(t_ref, 2), "1.00x"});
    table.add_row({std::string("wide (") + k::wide_isa_name(isa) +
                       " lane panels)",
                   util::fmt(t_wide, 2),
                   util::fmt(t_ref / t_wide, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    const double best = t_ref / t_wide;
    json.add("matvec512_us_reference", t_ref);
    json.add("matvec512_us_wide", t_wide);
    json.add("matvec512_speedup", best);
    all_ok = bench::timing_verdict(best >= 2.0,
                                   "planned matvec is >= 2x reference at "
                                   "512 (measured " +
                                       util::fmt(best, 2) + "x)",
                                   args) &&
             all_ok;
  }

  // ------------------------------------- 2. StaticEngine, trained CNN
  {
    const dl::Model& m = bench::trained_cnn();
    dl::StaticEngine ref{m, {.kernels = dl::KernelMode::kReference}};
    dl::StaticEngine wid{m, {.kernels = dl::KernelMode::kWide}};
    std::cout << core::make_kernel_plan_evidence(*wid.plan()).body
              << "\n";

    const auto& ds = bench::road_data();
    const std::size_t out_size = m.output_shape().size();
    std::vector<float> a(out_size), o(out_size);
    bool identical = true;
    for (std::size_t i = 0; i < 64; ++i) {
      const auto in = ds.samples[i].input.view();
      (void)ref.run(in, a);
      (void)wid.run(in, o);
      identical = identical && bits_equal(o, a);
    }
    bench::print_verdict(identical,
                         "StaticEngine: the wide plan is bitwise identical "
                         "to the reference engine over 64 CNN inferences");
    all_ok = all_ok && identical;

    const std::size_t infs = smoke ? 100 : 300;
    const std::size_t reps = smoke ? 8 : 16;
    auto run_many = [&](dl::StaticEngine& e) {
      return bench::time_per_call_us(
                 [&] {
                   for (std::size_t i = 0; i < infs; ++i)
                     (void)e.run(ds.samples[i % ds.size()].input.view(), o);
                 },
                 1) /
             static_cast<double>(infs);
    };
    double t_ref = 1e300, t_wid = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      t_ref = std::min(t_ref, run_many(ref));
      t_wid = std::min(t_wid, run_many(wid));
    }
    util::Table table({"StaticEngine CNN", "us/inference", "speedup"});
    table.add_row({"reference loops", util::fmt(t_ref, 2), "1.00x"});
    table.add_row({std::string("wide plan (") +
                       k::wide_isa_name(
                           wid.plan()->isa_selection().isa) +
                       ")",
                   util::fmt(t_wid, 2), util::fmt(t_ref / t_wid, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    const double eng_speedup = t_ref / t_wid;
    json.add("engine_us_reference", t_ref);
    json.add("engine_us_wide", t_wid);
    json.add("engine_speedup", eng_speedup);
    all_ok = bench::timing_verdict(eng_speedup >= 1.5,
                                   "planned engine is >= 1.5x the reference "
                                   "engine on the CNN (measured " +
                                       util::fmt(eng_speedup, 2) + "x)",
                                   args) &&
             all_ok;
  }

  // --------------------------- 3. end-to-end SIL2 pipeline, escape hatch
  {
    // The reference deployment is produced exactly the way an auditor
    // would: by setting SX_KERNEL_REFERENCE before constructing the
    // pipeline. Resolution happens once, at configuration time.
    setenv("SX_KERNEL_REFERENCE", "1", 1);
    auto p_ref = make_sil2_pipeline(4);
    unsetenv("SX_KERNEL_REFERENCE");
    auto p_plan = make_sil2_pipeline(4);
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
                  std::bit_cast<std::uint64_t>(a.supervisor_score) ==
                      std::bit_cast<std::uint64_t>(b.supervisor_score) &&
                  a.status == b.status;
    }
    bench::print_verdict(identical,
                         "SIL2 pipeline decisions (class, confidence bits, "
                         "supervisor score bits, status) are identical "
                         "across reference and default deployments");
    all_ok = all_ok && identical;

    const std::size_t decisions = smoke ? 150 : 400;
    const std::size_t reps = smoke ? 6 : 12;
    double single_ref = 1e300, single_plan = 1e300;
    double batch_ref = 1e300, batch_plan = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      single_ref = std::min(single_ref, time_single_once(p_ref, decisions));
      single_plan =
          std::min(single_plan, time_single_once(p_plan, decisions));
      batch_ref = std::min(batch_ref, time_batch_once(p_ref, decisions));
      batch_plan = std::min(batch_plan, time_batch_once(p_plan, decisions));
    }

    util::Table table({"SIL2 CNN pipeline", "reference (us/dec)",
                       "default (us/dec)", "speedup"});
    table.add_row({"single-item infer()", util::fmt(single_ref, 2),
                   util::fmt(single_plan, 2),
                   util::fmt(single_ref / single_plan, 2) + "x"});
    table.add_row({"batch x4 infer_batch()", util::fmt(batch_ref, 2),
                   util::fmt(batch_plan, 2),
                   util::fmt(batch_ref / batch_plan, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    // The batch path is where the engine dominates the decision cost (the
    // per-decision safety machinery — audit hashing, supervisor, ODD scan
    // — is fixed overhead both deployments pay identically). The gated
    // claim is on the default (kAuto) deployment: the wide family on the
    // probed arm (SX_KERNEL_ISA honoured).
    const double e2e = batch_ref / batch_plan;
    json.add("pipeline_single_speedup", single_ref / single_plan);
    json.add("pipeline_batch_speedup", e2e);
    all_ok = bench::timing_verdict(
                 e2e >= 1.5,
                 "end-to-end SIL2 CNN pipeline speedup >= 1.5x on the batch "
                 "path (measured " + util::fmt(e2e, 2) + "x; single-item " +
                     util::fmt(single_ref / single_plan, 2) + "x)",
                 args) &&
             all_ok;
  }

  const bool wrote = json.write(all_ok);
  return all_ok && wrote ? 0 : 1;
}
