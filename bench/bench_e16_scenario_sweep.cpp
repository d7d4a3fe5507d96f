// E16 — scenario-sweep evidence matrix (`bench_e16_scenario_sweep`)
//
// Question: does the consolidated scenario grid — ODD perturbations x
// fault campaigns x OOD probes x execution configs over a *deployed*
// pipeline — hold its three commitments at workload scale?
//   1. determinism: two full sweeps export byte-identical JSON;
//   2. bitwise identity: every wide/multi-worker cell hashes identically
//      to its reference-mode twin;
//   3. contrast: injected-fault cells are measurably distinguishable from
//      their clean twins (non-zero disturbed trials), and the verify-gate
//      negative path refuses rather than skips.
//
// Method: train the digit workload (golden accuracy gates enforced at
// construction), run the default 144-cell grid (--smoke shrinks the axes
// to a 32-cell slice), re-run for byte identity, then sweep a poisoned
// SIL3 deployment and assert every cell refuses. Exit non-zero on any
// violated commitment, so the smoke run is CI evidence.
//
// Usage: bench_e16_scenario_sweep [--smoke]
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "bench_common.hpp"
#include "core/criticality.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"
#include "util/table.hpp"

namespace {

using namespace sx;

scenario::ScenarioConfig sweep_config(bool smoke) {
  scenario::ScenarioConfig cfg;
  if (smoke) {
    cfg.perturbations = {{scenario::PerturbationKind::kNone, 0.0f},
                         {scenario::PerturbationKind::kBrightness, 0.30f}};
    cfg.campaigns = {{},
                     {"stuck-large", true, safety::FaultType::kStuckLarge,
                      /*n_faults=*/12, /*probes_per_fault=*/4}};
    cfg.execs = {
        {core::BackendKind::kFloat32, dl::KernelMode::kReference, 1},
        {core::BackendKind::kFloat32, dl::KernelMode::kWide, 4},
        {core::BackendKind::kInt8, dl::KernelMode::kReference, 1},
        {core::BackendKind::kInt8, dl::KernelMode::kWide, 4},
    };
    cfg.max_probes = 32;
    cfg.ood_probes = 8;
  } else {
    cfg.max_probes = 96;
  }
  return cfg;
}

dl::Layer& first_param_layer(dl::Model& m) {
  for (std::size_t i = 0; i < m.layer_count(); ++i)
    if (!m.layer(i).params().empty()) return m.layer(i);
  throw std::logic_error("no parameterized layer");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::cout << "FAIL: " << what << "\n";
    ++failures;
  };

  std::cout << "E16: scenario-sweep evidence matrix"
            << (smoke ? " (smoke)" : "") << "\n\n";

  const scenario::DigitWorkload w = scenario::make_digit_workload();
  std::cout << "digit workload: train " << w.train_accuracy * 100
            << "%  test " << w.test_accuracy * 100 << "%  int8 "
            << w.int8_accuracy * 100 << "%  (golden gates passed)\n\n";

  const scenario::ScenarioConfig cfg = sweep_config(smoke);
  scenario::ScenarioSweeper sweeper{w.model, w.train, w.test, cfg};
  const scenario::ScenarioReport report = sweeper.run();
  std::cout << report.summary() << "\n";

  // Commitment 1: deterministic export.
  const scenario::ScenarioReport again =
      scenario::ScenarioSweeper{w.model, w.train, w.test, cfg}.run();
  if (report.to_json() != again.to_json())
    fail("re-run JSON export not byte-identical");

  // Commitment 2: bitwise identity across execution configs.
  if (!report.all_identity_ok() || report.failed != 0)
    fail("identity mismatch against reference twins");
  if (report.identity_checked == 0)
    fail("no identity checks ran (grid lost its non-reference cells)");
  if (report.refused != 0 || report.unmeasured != 0)
    fail("healthy sweep produced refused/unmeasured cells");

  // Commitment 3: injected cells are distinguishable.
  std::uint64_t disturbed = 0;
  std::size_t injected = 0;
  util::Table table({"campaign", "cells", "trials", "sdc", "detected",
                     "fallback"});
  safety::CampaignOutcome none{}, pooled{};
  for (const auto& cell : report.cells) {
    if (!cell.campaign_injected) continue;
    ++injected;
    disturbed +=
        cell.outcome.sdc + cell.outcome.detected + cell.outcome.fallback;
    pooled.merge(cell.outcome);
  }
  (void)none;
  table.add_row({"(all injected)", std::to_string(injected),
                 std::to_string(pooled.total()), std::to_string(pooled.sdc),
                 std::to_string(pooled.detected),
                 std::to_string(pooled.fallback)});
  std::cout << table.to_ascii() << "\n";
  if (injected == 0) fail("no injected cells in the grid");
  if (disturbed == 0)
    fail("fault campaigns indistinguishable from clean twins");

  // Negative path: a poisoned SIL3 deployment must refuse every cell.
  dl::Model poisoned = w.model;
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  scenario::ScenarioConfig neg;
  neg.criticality = trace::Criticality::kSil3;
  neg.spec = core::recommended_spec(trace::Criticality::kSil3);
  neg.perturbations = {{scenario::PerturbationKind::kNone, 0.0f}};
  neg.campaigns = {{}};
  neg.cross_ood = false;
  neg.execs = {{core::BackendKind::kFloat32, dl::KernelMode::kReference, 1}};
  neg.max_probes = 16;
  const scenario::ScenarioReport refused =
      scenario::ScenarioSweeper{poisoned, w.train, w.test, neg}.run();
  if (refused.refused != refused.cell_count() || refused.cell_count() == 0)
    fail("poisoned SIL3 deployment not refused in every cell");
  std::cout << "poisoned SIL3 sweep: " << refused.refused << "/"
            << refused.cell_count() << " cells refused (expected all)\n";

  std::cout << "\nE16 verdict: "
            << (failures == 0 ? "all commitments hold" : "VIOLATIONS — see "
                                                         "FAIL lines above")
            << "\n";
  return failures == 0 ? 0 : 1;
}
