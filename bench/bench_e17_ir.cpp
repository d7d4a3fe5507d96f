// E17 — plan-IR static-analysis passes (`bench_e17_ir`)
//
// Question: what do the deploy-time IR passes (dead-layer elimination,
// fusion legality, liveness-colored arena reuse) buy on the digit-workload
// CNN — and does the SIL gate's independent re-derivation actually refuse a
// corrupted pass result? A FUSA argument tolerates the optimizer only if
// (a) outputs stay bitwise identical to the unoptimized reference, (b) the
// arena claim is re-derived from the model by code that never ran the
// passes, and (c) every transformation left audit evidence.
//
// Method: four rungs.
//   1. float kernel plan on the digit CNN: per-pass audit evidence, planned
//      vs naive ping-pong arena demand (target >= 25% reduction);
//   2. the same for the int8 quantized plan;
//   3. differential: planned engines vs reference engines, bitwise over a
//      batch of digit inputs (clip counters included on the int8 side);
//   4. the verify gate: healthy plans pass verify::check_ir on every axis,
//      and each SX_IR_PASS_FAULT corruption mode must be refused.
// Results also land in BENCH_E17.json for the machine-checkable perf
// trajectory.
//
// Usage: bench_e17_ir [--smoke]   (--smoke shrinks the differential load
// for CI label `bench-smoke`).
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "dl/engine.hpp"
#include "dl/plan.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "verify/range.hpp"

namespace {

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

const sx::dl::Dataset& digit_data() {
  static const sx::dl::Dataset ds = sx::dl::make_digits(400, /*seed=*/29);
  return ds;
}

/// The scenario-sweep digit workload geometry (conv -> relu -> pool ->
/// flatten -> dense -> relu -> dense), lightly trained so the differential
/// rung exercises realistic weights and activations.
const sx::dl::Model& digit_cnn() {
  static const sx::dl::Model model = [] {
    sx::dl::ModelBuilder b{
        sx::tensor::Shape::chw(1, sx::dl::kDigitSide, sx::dl::kDigitSide)};
    b.conv2d(6, 3, 1, 1).relu().maxpool(2).flatten().dense(32).relu().dense(
        sx::dl::kDigitClasses);
    sx::dl::Model m = b.build(/*seed=*/9);
    sx::dl::Trainer trainer{sx::dl::TrainConfig{.learning_rate = 0.05,
                                                .momentum = 0.9,
                                                .epochs = 4,
                                                .batch_size = 16,
                                                .shuffle_seed = 13}};
    trainer.fit(m, digit_data());
    return m;
  }();
  return model;
}

/// Prints the per-pass audit evidence and the planned-vs-naive arena claim
/// for one plan; returns the measured reduction fraction.
double report_plan(const char* name, const sx::ir::ArenaLayout& layout,
                   std::span<const sx::ir::PassEvidence> passes) {
  std::cout << name << " pass evidence:\n";
  for (const auto& pe : passes) std::cout << "  " << pe.summary() << "\n";
  const double reduction =
      layout.naive_elems == 0
          ? 0.0
          : 1.0 - static_cast<double>(layout.total_elems) /
                      static_cast<double>(layout.naive_elems);
  std::cout << name << " arena: " << layout.total_elems << " elems planned vs "
            << layout.naive_elems << " naive ping-pong ("
            << sx::util::fmt(100.0 * reduction, 1) << "% reuse)\n\n";
  return reduction;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::print_header(
      "E17: plan-IR static-analysis passes",
      "What do dead-layer elimination, fusion and liveness-colored arena "
      "reuse buy on the digit CNN — and does the verify gate refuse a "
      "corrupted pass result?");

  bool all_ok = true;
  bench::JsonResult json{"E17", smoke};

  const dl::Model& m = digit_cnn();
  const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(m, dl::make_digits(64, /*seed=*/31));

  // ------------------------------------------ 1. float plan arena demand
  const dl::KernelPlan plan{m};
  {
    const double reduction =
        report_plan("float plan", plan.layout(), plan.pass_evidence());
    json.add("float_arena_elems", static_cast<double>(plan.arena_elems()));
    json.add("float_naive_elems",
             static_cast<double>(plan.layout().naive_elems));
    json.add("float_arena_reduction", reduction);
    const bool lean = reduction >= 0.25;
    bench::print_verdict(
        lean, "liveness coloring cuts float arena demand >= 25% vs the "
              "ping-pong layout (measured " +
                  util::fmt(100.0 * reduction, 1) + "%)");
    all_ok = all_ok && lean;
  }

  // ------------------------------------------- 2. int8 plan arena demand
  const dl::QuantKernelPlan qplan{qm};
  {
    const double reduction =
        report_plan("int8 plan", qplan.layout(), qplan.pass_evidence());
    json.add("int8_arena_elems",
             static_cast<double>(qplan.layout().total_elems));
    json.add("int8_naive_elems",
             static_cast<double>(qplan.layout().naive_elems));
    json.add("int8_arena_reduction", reduction);
    const bool lean = reduction >= 0.25;
    bench::print_verdict(
        lean, "liveness coloring cuts int8 arena demand >= 25% vs the "
              "ping-pong layout (measured " +
                  util::fmt(100.0 * reduction, 1) + "%)");
    all_ok = all_ok && lean;
  }

  // ------------------------- 3. differential: optimized vs reference bits
  {
    const std::size_t inferences = smoke ? 64 : 256;
    const auto& ds = digit_data();
    const std::size_t out_size = m.output_shape().size();
    std::vector<float> a(out_size), o(out_size);

    dl::StaticEngine fref{m, {.kernels = dl::KernelMode::kReference}};
    dl::StaticEngine fopt{m, {.kernels = dl::KernelMode::kWide}};
    bool identical = true;
    for (std::size_t i = 0; i < inferences; ++i) {
      const auto in = ds.samples[i % ds.size()].input.view();
      (void)fref.run(in, a);
      (void)fopt.run(in, o);
      identical = identical && bits_equal(o, a);
    }
    bench::print_verdict(identical,
                         "optimized float plan is bitwise identical to the "
                         "reference engine over " +
                             std::to_string(inferences) +
                             " digit inferences");
    all_ok = all_ok && identical;
    json.add("float_bitwise_identical", identical ? 1.0 : 0.0);

    dl::QuantEngine qref{qm, {.kernels = dl::KernelMode::kReference}};
    dl::QuantEngine qopt{qm, {.kernels = dl::KernelMode::kWide}};
    bool qidentical = true;
    for (std::size_t i = 0; i < inferences; ++i) {
      const auto in = ds.samples[i % ds.size()].input.view();
      (void)qref.run(in, a);
      (void)qopt.run(in, o);
      qidentical = qidentical && bits_equal(o, a);
    }
    const auto rc = qref.saturation_counts();
    const auto oc = qopt.saturation_counts();
    for (std::size_t i = 0; i < rc.size(); ++i)
      qidentical = qidentical && rc[i] == oc[i];
    bench::print_verdict(qidentical,
                         "optimized int8 plan matches the reference engine "
                         "bit for bit, per-layer clip counters included");
    all_ok = all_ok && qidentical;
    json.add("int8_bitwise_identical", qidentical ? 1.0 : 0.0);
  }

  // -------------------- 4. the verify gate re-derives and refuses faults
  {
    const verify::IrCheck fc = verify::check_ir(m, plan);
    const verify::IrCheck qc = verify::check_ir(qm, qplan);
    const bool healthy = fc.checked && fc.passed() && qc.checked &&
                         qc.passed() &&
                         fc.rederived_elems == fc.planned_elems &&
                         qc.rederived_elems == qc.planned_elems;
    bench::print_verdict(healthy,
                         "healthy plans pass independent re-derivation on "
                         "every axis (structure, elimination, fusion, "
                         "arena layout)");
    all_ok = all_ok && healthy;

    std::size_t refused = 0;
    const char* kModes[] = {"drop-op", "bogus-fuse", "shrink-arena",
                            "overlap"};
    for (const char* mode : kModes) {
      setenv("SX_IR_PASS_FAULT", mode, 1);
      const dl::KernelPlan bad{m};
      const dl::QuantKernelPlan qbad{qm};
      unsetenv("SX_IR_PASS_FAULT");
      const bool caught = !verify::check_ir(m, bad).passed() &&
                          !verify::check_ir(qm, qbad).passed();
      if (caught) ++refused;
      bench::print_verdict(caught, std::string("corrupted pass result '") +
                                       mode + "' is refused by the gate");
    }
    all_ok = all_ok && refused == 4;
    json.add("fault_modes_refused", static_cast<double>(refused));
  }

  const bool wrote = json.write(all_ok);
  return all_ok && wrote ? 0 : 1;
}
