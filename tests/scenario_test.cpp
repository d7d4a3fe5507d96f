// Scenario-sweep evidence harness tests: the trained digit workload with
// its golden accuracy gates, deterministic cell grids (byte-identical JSON
// across runs), twin wiring and bitwise identity across execution configs,
// injected-vs-clean campaign contrast, the negative paths (verify-gate
// refusal at SIL3, empty probe sets) that must yield explicit conservative
// verdicts rather than silent skips, and the obs-snapshot cross-check
// against the Prometheus exposition.
//
// The ScenarioSmoke suite is the fast slice wired into the scenario-smoke
// CTest preset; keep it lean.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/criticality.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/model.hpp"
#include "obs/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"

namespace sx::scenario {
namespace {

/// One shared trained workload for the whole binary (training dominates
/// the suite's cost). Built with the default config, so its golden
/// accuracy gates are enforced by construction — this doubles as the
/// trained-workload gate test.
const DigitWorkload& workload() {
  static const DigitWorkload w = make_digit_workload();
  return w;
}

/// Small cross-axes grid: 2 perturbations x 2 campaigns x OOD off/on x
/// (reference anchor + wide/4-worker extreme, both backends) = 32 cells.
ScenarioConfig smoke_config() {
  ScenarioConfig cfg;
  cfg.perturbations = {{PerturbationKind::kNone, 0.0f},
                       {PerturbationKind::kNoise, 0.15f}};
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
  return cfg;
}

dl::Layer& first_param_layer(dl::Model& m) {
  for (std::size_t i = 0; i < m.layer_count(); ++i)
    if (!m.layer(i).params().empty()) return m.layer(i);
  throw std::logic_error("no parameterized layer");
}

// ------------------------------------------------------------ smoke slice

TEST(ScenarioSmoke, WorkloadMeetsGoldenAccuracyGates) {
  const DigitWorkload& w = workload();
  const DigitWorkloadConfig defaults;
  EXPECT_GE(w.train_accuracy, defaults.min_train_accuracy);
  EXPECT_GE(w.test_accuracy, defaults.min_test_accuracy);
  EXPECT_GE(w.int8_accuracy, defaults.min_int8_accuracy);
}

TEST(ScenarioSmoke, SweepIsDeterministicAndAllCellsPass) {
  const DigitWorkload& w = workload();
  const ScenarioConfig cfg = smoke_config();
  ScenarioSweeper sweeper{w.model, w.train, w.test, cfg};
  const ScenarioReport report = sweeper.run();

  ASSERT_EQ(report.cell_count(), 32u);
  EXPECT_EQ(report.passed, 32u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.refused, 0u);
  EXPECT_EQ(report.unmeasured, 0u);
  EXPECT_TRUE(report.all_identity_ok());
  // Half the exec grid is non-reference, so half the cells carry an
  // identity check against their reference twin.
  EXPECT_EQ(report.identity_checked, 16u);
  EXPECT_EQ(report.identity_ok, 16u);

  // The acceptance contract: two sweeps over equal inputs export equal
  // bytes.
  const ScenarioReport again =
      ScenarioSweeper{w.model, w.train, w.test, cfg}.run();
  EXPECT_EQ(report.to_json(), again.to_json());
}

TEST(ScenarioSmoke, TwinWiringAnchorsEveryNonReferenceCell) {
  const DigitWorkload& w = workload();
  ScenarioSweeper sweeper{w.model, w.train, w.test, smoke_config()};
  const ScenarioReport report = sweeper.run();
  for (const auto& cell : report.cells) {
    const bool is_anchor =
        cell.kernel_mode == "reference" && cell.batch_workers == 1;
    if (is_anchor) {
      EXPECT_TRUE(cell.twin_id.empty()) << cell.id;
      EXPECT_FALSE(cell.identity_checked) << cell.id;
      continue;
    }
    ASSERT_FALSE(cell.twin_id.empty()) << cell.id;
    EXPECT_TRUE(cell.identity_checked) << cell.id;
    EXPECT_TRUE(cell.identity_ok) << cell.id;
    const ScenarioCellEvidence* twin = report.find(cell.twin_id);
    ASSERT_NE(twin, nullptr) << cell.twin_id;
    // The twin shares every non-execution coordinate and anchors the
    // backend's reference mode.
    EXPECT_EQ(twin->perturbation, cell.perturbation);
    EXPECT_EQ(twin->campaign, cell.campaign);
    EXPECT_EQ(twin->ood, cell.ood);
    EXPECT_EQ(twin->backend, cell.backend);
    EXPECT_EQ(twin->kernel_mode, "reference");
    // Bitwise identity is the hash of the full decision stream.
    EXPECT_EQ(twin->decision_hash, cell.decision_hash) << cell.id;
  }
}

TEST(ScenarioSmoke, InjectedCellsAreDistinguishedFromCleanTwins) {
  const DigitWorkload& w = workload();
  ScenarioSweeper sweeper{w.model, w.train, w.test, smoke_config()};
  const ScenarioReport report = sweeper.run();
  std::size_t injected_cells = 0;
  std::uint64_t disturbed = 0;
  for (const auto& cell : report.cells) {
    if (cell.campaign == "none") {
      EXPECT_FALSE(cell.campaign_injected) << cell.id;
      EXPECT_EQ(cell.outcome.total(), 0u) << cell.id;
      continue;
    }
    ++injected_cells;
    EXPECT_TRUE(cell.campaign_injected) << cell.id;
    // 12 faults x 4 probes per fault, all measured.
    EXPECT_EQ(cell.outcome.total(), 48u) << cell.id;
    disturbed += cell.outcome.sdc + cell.outcome.detected +
                 cell.outcome.fallback;
  }
  EXPECT_EQ(injected_cells, 16u);
  // The stuck-large campaign must visibly disturb at least one cell —
  // otherwise the matrix could not distinguish injected cells from their
  // clean twins. Deterministic: fixed seeds, static cell order.
  EXPECT_GT(disturbed, 0u);
  EXPECT_EQ(report.pooled.total(), injected_cells * 48u);
}

TEST(ScenarioSmoke, ObsSnapshotCrossChecksAgainstRegistryExport) {
  const DigitWorkload& w = workload();
  ScenarioConfig cfg = smoke_config();
  cfg.campaigns = {{}};
  cfg.perturbations = {{PerturbationKind::kNone, 0.0f}};
  cfg.cross_ood = false;
  cfg.execs = {{core::BackendKind::kFloat32, dl::KernelMode::kReference, 1}};
  const ScenarioReport report =
      ScenarioSweeper{w.model, w.train, w.test, cfg}.run();
  ASSERT_EQ(report.cell_count(), 1u);
  const auto& cell = report.cells[0];
  ASSERT_FALSE(cell.counters.empty());

  // Every snapshotted counter must exist in a live registry deployed the
  // same way, under the same exposition name — the property that lets
  // `sxmetrics --json` diff a Prometheus scrape against the cell snapshot.
  core::PipelineConfig pc;
  pc.criticality = cfg.criticality;
  pc.spec = ScenarioSweeper{w.model, w.train, w.test, cfg}.config().spec;
  pc.batch_workers = cfg.execs[0].batch_workers;  // cells deploy a batch pool
  core::CertifiablePipeline pipe{w.model, w.train, pc};
  const obs::Registry* reg = pipe.telemetry();
  ASSERT_NE(reg, nullptr);
  std::uint64_t decisions = 0;
  for (const auto& [name, value] : cell.counters) {
    EXPECT_EQ(name.rfind("sx_", 0), 0u) << name;
    EXPECT_TRUE(reg->find_counter(name).valid())
        << name << " not registered by an equivalent deployment";
    if (name == "sx_decisions_total") decisions = value;
  }
  // The snapshot must account for at least the single-path probe stream.
  EXPECT_GE(decisions, cell.probes);
}

// -------------------------------------------------------- negative paths

TEST(ScenarioNegative, PoisonedSil3ModelYieldsRefusedCellsNotSkips) {
  dl::Model poisoned = workload().model;  // copy, then break it
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();

  ScenarioConfig cfg;
  cfg.criticality = trace::Criticality::kSil3;
  cfg.spec = core::recommended_spec(trace::Criticality::kSil3);
  cfg.perturbations = {{PerturbationKind::kNone, 0.0f}};
  cfg.campaigns = {{}, {"bitflip", true, safety::FaultType::kBitFlip, 4, 2}};
  cfg.cross_ood = false;
  cfg.execs = {
      {core::BackendKind::kFloat32, dl::KernelMode::kReference, 1},
      {core::BackendKind::kFloat32, dl::KernelMode::kWide, 1},
  };
  cfg.max_probes = 16;
  ScenarioSweeper sweeper{poisoned, workload().train, workload().test, cfg};
  const ScenarioReport report = sweeper.run();

  // Every cell must appear in the grid with an explicit refusal — a
  // refused deployment is evidence, not a hole in the matrix.
  ASSERT_EQ(report.cell_count(), 4u);
  EXPECT_EQ(report.refused, 4u);
  EXPECT_EQ(report.passed, 0u);
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.verdict, CellVerdict::kRefused) << cell.id;
    EXPECT_FALSE(cell.note.empty()) << cell.id;
    EXPECT_TRUE(cell.decision_hash.empty()) << cell.id;
    EXPECT_EQ(cell.outcome.total(), 0u) << cell.id;
  }
  // Refusals are verdicts, so the export stays deterministic too.
  const ScenarioReport again =
      ScenarioSweeper{poisoned, workload().train, workload().test, cfg}.run();
  EXPECT_EQ(report.to_json(), again.to_json());
}

TEST(ScenarioNegative, EmptyProbeSetYieldsConservativeUnmeasuredCells) {
  const DigitWorkload& w = workload();
  dl::Dataset empty;
  empty.input_shape = w.train.input_shape;
  empty.num_classes = w.train.num_classes;

  ScenarioConfig cfg;
  cfg.perturbations = {{PerturbationKind::kNone, 0.0f}};
  cfg.campaigns = {{}, {"bitflip", true, safety::FaultType::kBitFlip, 4, 2}};
  cfg.cross_ood = false;
  cfg.execs = {{core::BackendKind::kFloat32, dl::KernelMode::kReference, 1}};
  ScenarioSweeper sweeper{w.model, w.train, empty, cfg};
  const ScenarioReport report = sweeper.run();

  // PR 5 locked CampaignOutcome::measured(): measuring *nothing* must
  // surface as a conservative outcome, never a vacuous pass. The sweep
  // extends that to whole cells: no probes -> unmeasured verdict.
  ASSERT_EQ(report.cell_count(), 2u);
  EXPECT_EQ(report.unmeasured, 2u);
  EXPECT_EQ(report.passed, 0u);
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.verdict, CellVerdict::kUnmeasured) << cell.id;
    EXPECT_NE(cell.note.find("empty probe set"), std::string::npos)
        << cell.note;
    EXPECT_EQ(cell.probes, 0u);
    EXPECT_EQ(cell.accuracy, 0.0);
  }
}

TEST(ScenarioNegative, WorkloadGateViolationThrows) {
  DigitWorkloadConfig cfg;
  cfg.samples = 240;
  cfg.train.epochs = 2;
  cfg.min_test_accuracy = 1.01;  // unattainable floor
  EXPECT_THROW(make_digit_workload(cfg), std::runtime_error);
}

// ------------------------------------------------------------ json export

TEST(ScenarioTest, JsonExportIsStructurallySound) {
  const DigitWorkload& w = workload();
  ScenarioConfig cfg = smoke_config();
  cfg.cross_ood = false;
  const ScenarioReport report =
      ScenarioSweeper{w.model, w.train, w.test, cfg}.run();
  const std::string json = report.to_json();

  EXPECT_NE(json.find("\"schema\":\"sx-scenario-report/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"criticality\":\"SIL2\""), std::string::npos);
  std::size_t ids = 0, braces = 0, brackets = 0;
  for (std::size_t at = json.find("\"id\":"); at != std::string::npos;
       at = json.find("\"id\":", at + 1))
    ++ids;
  for (const char c : json) {
    if (c == '{') ++braces;
    if (c == '[') ++brackets;
  }
  EXPECT_EQ(ids, report.cell_count());
  std::size_t closing_braces = 0, closing_brackets = 0;
  for (const char c : json) {
    if (c == '}') ++closing_braces;
    if (c == ']') ++closing_brackets;
  }
  EXPECT_EQ(braces, closing_braces);
  EXPECT_EQ(brackets, closing_brackets);
  for (const char* key :
       {"\"verdict\"", "\"decision_hash\"", "\"counters\"", "\"campaign\"",
        "\"sup_mean_id\"", "\"ood_catch_rate\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  // And it embeds/extracts through the certification-report markers.
  const auto item = core::make_scenario_evidence(report.summary(), json);
  EXPECT_NE(item.body.find("# BEGIN SX_SCENARIO_JSON"), std::string::npos);
  EXPECT_NE(item.body.find(json), std::string::npos);
  EXPECT_NE(item.body.find("# END SX_SCENARIO_JSON"), std::string::npos);
}

// -------------------------------------------------------- perturbations

TEST(ScenarioTest, PerturbationsAreSeededAndLabelPreserving) {
  const dl::Dataset base = dl::make_digits(40, /*seed=*/5);
  for (const Perturbation p :
       {Perturbation{PerturbationKind::kBrightness, 0.3f},
        Perturbation{PerturbationKind::kNoise, 0.15f},
        Perturbation{PerturbationKind::kShift, 0.25f}}) {
    const dl::Dataset a = apply_perturbation(base, p, /*seed=*/99);
    const dl::Dataset b = apply_perturbation(base, p, /*seed=*/99);
    ASSERT_EQ(a.samples.size(), base.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
      EXPECT_EQ(a.samples[i].label, base.samples[i].label);
      for (std::size_t j = 0; j < a.samples[i].input.size(); ++j)
        EXPECT_EQ(a.samples[i].input.at(j), b.samples[i].input.at(j))
            << "perturbation " << to_string(p.kind)
            << " not deterministic at sample " << i;
    }
  }
  // Brightness never darkens and respects the [0,1] ODD envelope.
  const dl::Dataset bright = apply_perturbation(
      base, {PerturbationKind::kBrightness, 0.3f}, /*seed=*/99);
  for (std::size_t i = 0; i < bright.samples.size(); ++i)
    for (std::size_t j = 0; j < bright.samples[i].input.size(); ++j) {
      EXPECT_GE(bright.samples[i].input.at(j), base.samples[i].input.at(j));
      EXPECT_LE(bright.samples[i].input.at(j), 1.0f);
    }
}

}  // namespace
}  // namespace sx::scenario
