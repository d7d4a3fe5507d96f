// E14 — deploy-time kernel plans (`bench_e14_kernel_plans`)
//
// Question: how much does the deploy-time kernel plan (wide-panel
// matvec, direct pixel-vectorized Conv2d, planned MaxPool2d, fused
// bias+activation epilogues) buy over the reference per-layer loops, while
// staying bitwise identical to them? A FUSA argument only tolerates an
// optimization that changes nothing observable: same bits, same fault
// behaviour, same memory plan.
//
// Method: host facts first, then three rungs, each timed by
// bench::time_interleaved (warm-up, then rounds with reference and planned
// interleaved so transient machine load hits both alike; medians with
// quartiles are reported).
//   1. raw kernels: matvec 512x512, tensor::matvec vs the probed
//      matvec_wide_* lane kernel (the BM_Matvec/512 geometry; target
//      >= 2x), and the perception CNN's second conv (8 -> 8 channels,
//      16x16, 3x3 pad 1), Conv2d::forward vs the probed conv2d_direct_*;
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
#include "dl/layers.hpp"
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

/// "median [q1, q3]" of one interleaved timing.
std::string fmt_timing(const sx::bench::Timing& t) {
  return sx::util::fmt(t.median_us, 2) + " [" + sx::util::fmt(t.q1_us, 2) +
         ", " + sx::util::fmt(t.q3_us, 2) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E14: deploy-time kernel plans",
      "What do wide-panel matvec, direct Conv2d and fused epilogues buy "
      "over the reference loops — at bitwise-identical outputs?");

  bench::print_host_facts();
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

    // The perception CNN's second conv: 8 -> 8 channels on 16x16.
    dl::Conv2d conv{8, 8, 3, 1, 1};
    conv.init(rng);
    tensor::Tensor cin{tensor::Shape::chw(8, 16, 16)};
    cin.init_uniform(rng, -1, 1);
    const tensor::Shape cos = conv.output_shape(cin.shape());
    std::vector<float> cref(cos.size()), cwide(cos.size());
    const k::Conv2dGeom g{.in_c = 8, .in_h = 16, .in_w = 16, .out_c = 8,
                          .k = 3, .stride = 1, .pad = 1};
    const auto conv_fn = k::wide_conv_kernel(isa);
    (void)conv.forward(cin.view(), tensor::TensorView{cref, cos});
    (void)conv_fn(conv.weights().data(), conv.bias().data(), g,
                  cin.data().data(), cwide.data(), k::Epilogue::kNone, false);
    const bool conv_identical = bits_equal(cwide, cref);
    bench::print_verdict(conv_identical,
                         "conv 8->8 16x16: the direct kernel is bitwise "
                         "identical to Conv2d::forward");
    all_ok = all_ok && conv_identical;

    const std::size_t calls = smoke ? 20 : 50;
    const std::size_t reps = smoke ? 8 : 20;
    const std::vector<bench::Timing> t = bench::time_interleaved(
        4, calls, reps, [&](std::size_t v) {
          switch (v) {
            case 0:
              (void)tensor::matvec(
                  w.view(), x.view(), b.view(),
                  tensor::TensorView{ref, tensor::Shape::vec(n)});
              break;
            case 1:
              (void)wide_fn(wpanel.data(), b.data().data(), n, n,
                            x.data().data(), wide.data(), k::Epilogue::kNone,
                            false);
              break;
            case 2:
              (void)conv.forward(cin.view(), tensor::TensorView{cref, cos});
              break;
            default:
              (void)conv_fn(conv.weights().data(), conv.bias().data(), g,
                            cin.data().data(), cwide.data(),
                            k::Epilogue::kNone, false);
          }
        });

    util::Table table({"kernel", "us/call median [q1, q3]", "speedup"});
    table.add_row({"matvec 512x512 reference (tensor::matvec)",
                   fmt_timing(t[0]), "1.00x"});
    table.add_row({std::string("matvec 512x512 wide (") +
                       k::wide_isa_name(isa) + " lane panels)",
                   fmt_timing(t[1]),
                   util::fmt(t[0].median_us / t[1].median_us, 2) + "x"});
    table.add_row({"conv 8->8 16x16 reference (Conv2d::forward)",
                   fmt_timing(t[2]), "1.00x"});
    table.add_row({std::string("conv 8->8 16x16 direct (") +
                       k::wide_isa_name(isa) + ")",
                   fmt_timing(t[3]),
                   util::fmt(t[2].median_us / t[3].median_us, 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";

    const double best = t[0].median_us / t[1].median_us;
    json.add("matvec512_us_reference", t[0].median_us);
    json.add("matvec512_us_wide", t[1].median_us);
    json.add("matvec512_speedup", best);
    json.add("conv8_us_reference", t[2].median_us);
    json.add("conv8_us_direct", t[3].median_us);
    json.add("conv8_speedup", t[2].median_us / t[3].median_us);
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
    std::size_t next = 0;
    const std::vector<bench::Timing> t = bench::time_interleaved(
        2, infs, reps, [&](std::size_t v) {
          dl::StaticEngine& e = v == 0 ? ref : wid;
          (void)e.run(ds.samples[next++ % ds.size()].input.view(), o);
        });
    const double t_ref = t[0].median_us, t_wid = t[1].median_us;
    util::Table table({"StaticEngine CNN", "us/inference median [q1, q3]",
                       "speedup"});
    table.add_row({"reference loops", fmt_timing(t[0]), "1.00x"});
    table.add_row({std::string("wide plan (") +
                       k::wide_isa_name(
                           wid.plan()->isa_selection().isa) +
                       ")",
                   fmt_timing(t[1]), util::fmt(t_ref / t_wid, 2) + "x"});
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
    std::vector<tensor::Tensor> inputs;
    inputs.reserve(decisions);
    for (std::size_t i = 0; i < decisions; ++i)
      inputs.push_back(ds.samples[i % ds.size()].input);
    // Variants: single-item reference, single-item default, batch
    // reference, batch default; one call runs `decisions` decisions.
    const std::vector<bench::Timing> t = bench::time_interleaved(
        4, 1, reps,
        [&](std::size_t v) {
          auto& p = v % 2 == 0 ? p_ref : p_plan;
          if (v >= 2) {
            (void)p.infer_batch(inputs);
            return;
          }
          for (std::size_t i = 0; i < decisions; ++i)
            (void)p.infer(inputs[i], i);
        },
        1);
    const auto per_dec = [&](std::size_t v) {
      return t[v].median_us / static_cast<double>(decisions);
    };
    const double single_ref = per_dec(0), single_plan = per_dec(1);
    const double batch_ref = per_dec(2), batch_plan = per_dec(3);

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
