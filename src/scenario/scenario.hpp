// Scenario-sweep evidence harness: the subsystem that turns the repo's
// isolated mechanisms (ODD guard, safety patterns, fault campaigns, OOD
// supervision, planned kernels, deterministic batching, telemetry) into one
// consolidated evidence matrix over a *deployed* CertifiablePipeline.
//
// The sweeper crosses four axes into a static cell grid:
//
//   ODD perturbation   brightness / noise / shift transforms of the probe
//                      set (plus the clean baseline),
//   fault campaign     safety::run_campaign against the deployed channel
//                      (float weights or the int8 store; "none" = clean),
//   OOD probes         supervisor score distributions and catch rate on a
//                      strongly out-of-distribution probe set,
//   execution config   KernelMode x backend (float32/int8) x batch_workers.
//
// Every cell deploys a *fresh* pipeline (verify gate -> inference ->
// supervisor -> safety bag) and emits one ScenarioCellEvidence: verdict,
// accuracy, SDC/detection/fallback rates, supervisor catch rate, a
// bitwise decision hash compared against the reference-mode twin cell, and
// an obs counter snapshot. Cells are visited in static order and merged
// into a ScenarioReport whose JSON export is byte-identical across runs —
// the machine-checkable artifact feeding the GSN safety case (attach via
// core::make_scenario_evidence).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "dl/dataset.hpp"
#include "safety/campaign.hpp"

namespace sx::scenario {

// ------------------------------------------------------------------- axes

enum class PerturbationKind : std::uint8_t {
  kNone,        ///< clean baseline
  kBrightness,  ///< additive brightness shift (clamped to [0,1])
  kNoise,       ///< additive Gaussian sensor noise (seeded)
  kShift,       ///< circular spatial shift of CHW images
};

const char* to_string(PerturbationKind k) noexcept;

struct Perturbation {
  PerturbationKind kind = PerturbationKind::kNone;
  /// Brightness delta, noise sigma, or shift fraction of the image side.
  float severity = 0.0f;
};

/// Returns a perturbed copy of `ds` (labels preserved; planted-signal
/// regions are dropped for kShift, which moves them).
dl::Dataset apply_perturbation(const dl::Dataset& ds, const Perturbation& p,
                               std::uint64_t seed);

/// One fault-campaign axis value. `inject == false` is the clean baseline
/// ("none"): no faults, zeroed outcome, never counted as unmeasured.
struct CampaignAxis {
  std::string name = "none";
  bool inject = false;
  safety::FaultType fault_type = safety::FaultType::kBitFlip;
  std::size_t n_faults = 12;
  std::size_t probes_per_fault = 4;
};

/// One execution-configuration axis value. The first entry of each backend
/// in ScenarioConfig::execs is that backend's *reference twin*: every other
/// cell sharing its (perturbation, campaign, ood, backend) coordinates must
/// hash bitwise-identically to it.
struct ExecConfig {
  core::BackendKind backend = core::BackendKind::kFloat32;
  dl::KernelMode mode = dl::KernelMode::kReference;
  std::size_t batch_workers = 1;
};

struct ScenarioConfig {
  trace::Criticality criticality = trace::Criticality::kSil2;
  /// Pipeline spec deployed in every cell. Defaults to the SIL2-admissible
  /// monitored spec *augmented* with a safety bag and the static
  /// verification gate (extra measures beyond a level's obligations are
  /// always admissible) so every cell exercises the full stack while
  /// remaining deployable on the int8 backend.
  std::optional<core::PipelineSpec> spec;
  std::vector<Perturbation> perturbations = {
      {PerturbationKind::kNone, 0.0f},
      {PerturbationKind::kBrightness, 0.30f},
      {PerturbationKind::kNoise, 0.15f},
  };
  std::vector<CampaignAxis> campaigns = {
      {},
      {"bitflip", true, safety::FaultType::kBitFlip, 12, 4},
      {"stuck-large", true, safety::FaultType::kStuckLarge, 12, 4},
  };
  /// Cross the OOD axis (off and on). When false only the off value runs.
  bool cross_ood = true;
  /// Execution grid; empty selects default_exec_grid().
  std::vector<ExecConfig> execs;
  /// Probe-set cap (0 = use every probe sample).
  std::size_t max_probes = 0;
  /// Calibration cap forwarded to each cell's deployment (0 = all) — the
  /// supervisor/ODD fit dominates per-cell deploy cost.
  std::size_t max_calibration = 256;
  /// OOD probe count (drawn from the corrupted base probe set).
  std::size_t ood_probes = 24;
  std::uint64_t seed = 77;
};

/// dl::all_kernel_modes() = {kReference, kWide} x {float32, int8} x
/// batch_workers {1, 4}, reference mode first per backend (the twin
/// anchors). The mode axis is derived from the shared enumeration helper,
/// so every concrete KernelMode is always in the identity matrix.
std::vector<ExecConfig> default_exec_grid();

// ------------------------------------------------------------------ cells

enum class CellVerdict : std::uint8_t {
  kPass,        ///< measured, twin-identical
  kFail,        ///< bitwise-identity mismatch against the reference twin
  kRefused,     ///< deployment refused (static verify gate / admissibility)
  kUnmeasured,  ///< empty probe set or campaign that measured nothing —
                ///< conservative outcome, never silently skipped
};

const char* to_string(CellVerdict v) noexcept;

struct ScenarioCellEvidence {
  // -- coordinates --------------------------------------------------------
  std::string id;  ///< "pert=.../camp=.../ood=.../backend=.../mode=.../w=N"
  std::string perturbation;
  std::string campaign;
  bool ood = false;
  std::string backend;
  std::string kernel_mode;
  std::size_t batch_workers = 0;
  // -- verdict ------------------------------------------------------------
  CellVerdict verdict = CellVerdict::kPass;
  std::string note;  ///< refusal/unmeasured reason ("" when none)
  // -- probe measurements (single-item pipeline path) ---------------------
  std::size_t probes = 0;
  std::size_t correct = 0;   ///< status ok, not degraded, argmax == label
  std::size_t degraded = 0;  ///< safety-bag fallback outputs
  std::size_t rejected = 0;  ///< non-OK decisions (ODD guard, fail-stop...)
  double accuracy = 0.0;
  // -- supervisor / OOD ---------------------------------------------------
  double sup_mean_id = 0.0;   ///< mean supervisor score, in-distribution
  double sup_mean_ood = 0.0;  ///< mean supervisor score on OOD probes
  double ood_catch_rate = 0.0;  ///< OOD probes rejected or degraded
  std::size_t ood_probe_count = 0;
  // -- fault campaign -----------------------------------------------------
  bool campaign_injected = false;
  safety::CampaignOutcome outcome;
  // -- bitwise identity ---------------------------------------------------
  /// SHA-256 over the bit patterns of every single-path decision (status,
  /// class, confidence, degraded, supervisor score) plus the campaign
  /// counts; "" for refused cells.
  std::string decision_hash;
  /// SHA-256 over the batch-path decisions ("" for refused cells).
  std::string batch_hash;
  std::string twin_id;  ///< reference twin cell ("" when this is the twin)
  bool identity_checked = false;
  bool identity_ok = true;
  // -- telemetry snapshot (counters only: histograms are clock-dependent
  //    and would break byte-identical exports) ----------------------------
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// ----------------------------------------------------------------- report

struct ScenarioReport {
  std::vector<ScenarioCellEvidence> cells;  ///< static sweep order
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t unmeasured = 0;
  std::size_t identity_checked = 0;
  std::size_t identity_ok = 0;
  /// Every injected campaign pooled (CampaignOutcome::merge).
  safety::CampaignOutcome pooled;
  std::uint64_t seed = 0;
  std::string criticality;

  std::size_t cell_count() const noexcept { return cells.size(); }
  bool all_identity_ok() const noexcept {
    return identity_checked == identity_ok;
  }
  const ScenarioCellEvidence* find(std::string_view id) const noexcept;

  /// Machine-checkable export (schema "sx-scenario-report/1"). Byte
  /// identical across runs for equal inputs: static cell order, to_chars
  /// number formatting, counters-only telemetry.
  std::string to_json() const;
  /// Short human-readable digest for the certification report.
  std::string summary() const;
};

// ---------------------------------------------------------------- sweeper

class ScenarioSweeper {
 public:
  /// `model` must be trained; `calibration` fits each cell's deployment
  /// (ODD guard, supervisor, quantization); `probes` is the evaluation
  /// pool the perturbation axis transforms. Throws std::invalid_argument
  /// on an empty axis or empty calibration set. An empty probe set is NOT
  /// an error here — it yields conservative unmeasured cells.
  ScenarioSweeper(const dl::Model& model, const dl::Dataset& calibration,
                  const dl::Dataset& probes, ScenarioConfig cfg = {});

  /// Visits every cell in static order and merges the evidence. Cells
  /// whose deployment throws or is refused by the static gate yield
  /// kRefused verdicts (never silently skipped).
  ScenarioReport run();

  const ScenarioConfig& config() const noexcept { return cfg_; }

 private:
  ScenarioCellEvidence run_cell(const Perturbation& pert,
                                const CampaignAxis& camp, bool ood,
                                const ExecConfig& exec,
                                const dl::Dataset& probes,
                                std::uint64_t campaign_seed);

  dl::Model model_;
  dl::Dataset calibration_;
  dl::Dataset probes_;
  dl::Dataset ood_probes_;
  ScenarioConfig cfg_;
  core::PipelineSpec spec_;
};

}  // namespace sx::scenario
