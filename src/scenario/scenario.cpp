#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/decision_hash.hpp"
#include "scenario/json.hpp"
#include "util/rng.hpp"

namespace sx::scenario {
namespace {

float clamp01(float v) noexcept { return std::min(1.0f, std::max(0.0f, v)); }

/// Deterministic seed derivation: one value per (base, coordinates) tuple.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) noexcept {
  util::SplitMix64 sm{base ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xbf58476d1ce4e5b9ULL) ^
                      (c * 0x94d049bb133111ebULL)};
  return sm.next();
}

dl::Dataset head(const dl::Dataset& ds, std::size_t n) {
  if (n == 0 || n >= ds.samples.size()) return ds;
  dl::Dataset out;
  out.num_classes = ds.num_classes;
  out.input_shape = ds.input_shape;
  out.samples.assign(ds.samples.begin(),
                     ds.samples.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

core::PipelineSpec augmented_monitored_spec() noexcept {
  core::PipelineSpec s;
  s.pattern = core::PatternKind::kMonitored;
  s.has_supervisor = true;
  s.has_odd_guard = true;
  s.has_safety_bag = true;
  s.has_explanations = true;
  s.has_static_verification = true;
  return s;
}

std::string cell_id(const Perturbation& pert, const CampaignAxis& camp,
                    bool ood, const ExecConfig& exec) {
  std::string id = "pert=";
  id += to_string(pert.kind);
  id += "/camp=";
  id += camp.name;
  id += ood ? "/ood=on" : "/ood=off";
  id += "/backend=";
  id += core::to_string(exec.backend);
  id += "/mode=";
  id += dl::kernel_mode_name(exec.mode);
  id += "/w=";
  id += std::to_string(exec.batch_workers);
  return id;
}

std::string append_num(std::string s, double v) {
  return s + format_double(v);
}

}  // namespace

const char* to_string(PerturbationKind k) noexcept {
  switch (k) {
    case PerturbationKind::kNone: return "none";
    case PerturbationKind::kBrightness: return "brightness";
    case PerturbationKind::kNoise: return "noise";
    case PerturbationKind::kShift: return "shift";
  }
  return "unknown";
}

const char* to_string(CellVerdict v) noexcept {
  switch (v) {
    case CellVerdict::kPass: return "pass";
    case CellVerdict::kFail: return "fail";
    case CellVerdict::kRefused: return "refused";
    case CellVerdict::kUnmeasured: return "unmeasured";
  }
  return "unknown";
}

dl::Dataset apply_perturbation(const dl::Dataset& ds, const Perturbation& p,
                               std::uint64_t seed) {
  if (p.kind == PerturbationKind::kNone) return ds;
  dl::Dataset out;
  out.num_classes = ds.num_classes;
  out.input_shape = ds.input_shape;
  out.samples.reserve(ds.samples.size());
  util::Xoshiro256 rng{seed};
  for (const auto& s : ds.samples) {
    dl::Sample t;
    t.label = s.label;
    t.signal = s.signal;
    t.input = s.input;
    auto data = t.input.data();
    switch (p.kind) {
      case PerturbationKind::kNone:
        break;
      case PerturbationKind::kBrightness:
        for (auto& v : data) v = clamp01(v + p.severity);
        break;
      case PerturbationKind::kNoise:
        for (auto& v : data)
          v = clamp01(v + static_cast<float>(rng.gaussian(
                              0.0, static_cast<double>(p.severity))));
        break;
      case PerturbationKind::kShift: {
        // Circular shift of the spatial dims (CHW rank-3; rank-1 vectors
        // rotate along their only axis). Planted-signal regions move with
        // the content, so they are dropped rather than left stale.
        t.signal.reset();
        const auto& shape = t.input.shape();
        if (shape.rank() == 3) {
          const std::size_t c = shape[0], h = shape[1], w = shape[2];
          const std::size_t dx = std::max<std::size_t>(
              1, static_cast<std::size_t>(std::lround(
                     p.severity * static_cast<float>(w))));
          const std::size_t dy = dx;
          tensor::Tensor shifted{shape};
          for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t y = 0; y < h; ++y)
              for (std::size_t x = 0; x < w; ++x)
                shifted.at(ch, (y + dy) % h, (x + dx) % w) =
                    t.input.at(ch, y, x);
          t.input = std::move(shifted);
        } else {
          const std::size_t n = data.size();
          const std::size_t dx = std::max<std::size_t>(
              1, static_cast<std::size_t>(std::lround(
                     p.severity * static_cast<float>(n))));
          std::rotate(data.begin(), data.end() - static_cast<std::ptrdiff_t>(
                                                     dx % n),
                      data.end());
        }
        break;
      }
    }
    out.samples.push_back(std::move(t));
  }
  return out;
}

std::vector<ExecConfig> default_exec_grid() {
  std::vector<ExecConfig> g;
  constexpr core::BackendKind kBackends[] = {core::BackendKind::kFloat32,
                                             core::BackendKind::kInt8};
  constexpr std::size_t kWorkers[] = {1, 4};
  // Backend-major so the reference-mode/workers=1 anchor of each backend
  // comes first; the sweep compares every later sibling against it. The
  // mode axis comes from dl::all_kernel_modes() (kReference first), the
  // single source of truth — every KernelMode lands in the identity
  // matrix automatically instead of silently missing it.
  for (const auto backend : kBackends)
    for (const auto mode : dl::all_kernel_modes())
      for (const auto workers : kWorkers)
        g.push_back(ExecConfig{backend, mode, workers});
  return g;
}

// ----------------------------------------------------------------- report

const ScenarioCellEvidence* ScenarioReport::find(
    std::string_view id) const noexcept {
  for (const auto& c : cells)
    if (c.id == id) return &c;
  return nullptr;
}

std::string ScenarioReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "sx-scenario-report/1");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("criticality", std::string_view{criticality});
  w.key("cells");
  w.begin_array();
  for (const auto& c : cells) {
    w.begin_object();
    w.field("id", std::string_view{c.id});
    w.field("perturbation", std::string_view{c.perturbation});
    w.field("campaign", std::string_view{c.campaign});
    w.field("ood", c.ood);
    w.field("backend", std::string_view{c.backend});
    w.field("kernel_mode", std::string_view{c.kernel_mode});
    w.field("batch_workers", static_cast<std::uint64_t>(c.batch_workers));
    w.field("verdict", std::string_view{to_string(c.verdict)});
    w.field("note", std::string_view{c.note});
    w.field("probes", static_cast<std::uint64_t>(c.probes));
    w.field("correct", static_cast<std::uint64_t>(c.correct));
    w.field("degraded", static_cast<std::uint64_t>(c.degraded));
    w.field("rejected", static_cast<std::uint64_t>(c.rejected));
    w.field("accuracy", c.accuracy);
    w.field("sup_mean_id", c.sup_mean_id);
    w.field("sup_mean_ood", c.sup_mean_ood);
    w.field("ood_catch_rate", c.ood_catch_rate);
    w.field("ood_probes", static_cast<std::uint64_t>(c.ood_probe_count));
    w.key("campaign_outcome");
    w.begin_object();
    w.field("injected", c.campaign_injected);
    w.field("measured", c.outcome.measured());
    w.field("correct", static_cast<std::uint64_t>(c.outcome.correct));
    w.field("detected", static_cast<std::uint64_t>(c.outcome.detected));
    w.field("fallback", static_cast<std::uint64_t>(c.outcome.fallback));
    w.field("sdc", static_cast<std::uint64_t>(c.outcome.sdc));
    w.field("sdc_rate", c.outcome.sdc_rate());
    w.field("availability", c.outcome.availability());
    w.end_object();
    w.field("decision_hash", std::string_view{c.decision_hash});
    w.field("batch_hash", std::string_view{c.batch_hash});
    w.field("twin", std::string_view{c.twin_id});
    w.field("identity_checked", c.identity_checked);
    w.field("identity_ok", c.identity_ok);
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : c.counters)
      w.field(std::string_view{name}, static_cast<std::uint64_t>(value));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.field("cells", static_cast<std::uint64_t>(cells.size()));
  w.field("pass", static_cast<std::uint64_t>(passed));
  w.field("fail", static_cast<std::uint64_t>(failed));
  w.field("refused", static_cast<std::uint64_t>(refused));
  w.field("unmeasured", static_cast<std::uint64_t>(unmeasured));
  w.key("pooled_campaign");
  w.begin_object();
  w.field("measured", pooled.measured());
  w.field("trials", static_cast<std::uint64_t>(pooled.total()));
  w.field("correct", static_cast<std::uint64_t>(pooled.correct));
  w.field("detected", static_cast<std::uint64_t>(pooled.detected));
  w.field("fallback", static_cast<std::uint64_t>(pooled.fallback));
  w.field("sdc", static_cast<std::uint64_t>(pooled.sdc));
  w.field("sdc_rate", pooled.sdc_rate());
  w.field("availability", pooled.availability());
  w.end_object();
  w.end_object();
  w.key("identity");
  w.begin_object();
  w.field("checked", static_cast<std::uint64_t>(identity_checked));
  w.field("ok", static_cast<std::uint64_t>(identity_ok));
  w.end_object();
  w.end_object();
  w.raw("\n");
  return w.take();
}

std::string ScenarioReport::summary() const {
  std::string s = "scenario cells: " + std::to_string(cells.size()) +
                  " (pass " + std::to_string(passed) + ", fail " +
                  std::to_string(failed) + ", refused " +
                  std::to_string(refused) + ", unmeasured " +
                  std::to_string(unmeasured) + ")\n";
  s += "bitwise identity vs reference twins: " +
       std::to_string(identity_ok) + "/" + std::to_string(identity_checked) +
       " cells identical\n";
  s += "pooled fault campaigns: " + std::to_string(pooled.total()) +
       " trials, sdc " + std::to_string(pooled.sdc) + " (rate ";
  s = append_num(std::move(s), pooled.sdc_rate());
  s += "), detected " + std::to_string(pooled.detected) + ", fallback " +
       std::to_string(pooled.fallback) + "\n";
  // The headline SDC contrast: worst injected cell vs its clean sibling.
  const ScenarioCellEvidence* worst = nullptr;
  for (const auto& c : cells)
    if (c.campaign_injected &&
        (worst == nullptr || c.outcome.sdc > worst->outcome.sdc))
      worst = &c;
  if (worst != nullptr) {
    s += "worst injected cell: " + worst->id + " sdc=" +
         std::to_string(worst->outcome.sdc) + " of " +
         std::to_string(worst->outcome.total()) + " trials\n";
  }
  return s;
}

// ---------------------------------------------------------------- sweeper

ScenarioSweeper::ScenarioSweeper(const dl::Model& model,
                                 const dl::Dataset& calibration,
                                 const dl::Dataset& probes,
                                 ScenarioConfig cfg)
    : model_(model), cfg_(std::move(cfg)) {
  if (cfg_.perturbations.empty())
    throw std::invalid_argument("ScenarioSweeper: empty perturbation axis");
  if (cfg_.campaigns.empty())
    throw std::invalid_argument("ScenarioSweeper: empty campaign axis");
  if (calibration.samples.empty())
    throw std::invalid_argument("ScenarioSweeper: empty calibration set");
  if (cfg_.execs.empty()) cfg_.execs = default_exec_grid();
  calibration_ = head(calibration, cfg_.max_calibration);
  probes_ = head(probes, cfg_.max_probes);
  spec_ = cfg_.spec.value_or(augmented_monitored_spec());
  // OOD probe pool: completely unstructured inputs derived from the base
  // probe set — one pool for every cell so twin cells see identical bytes.
  if (!probes_.samples.empty()) {
    ood_probes_ = head(
        dl::corrupt(probes_, dl::Corruption::kUniformRandom,
                    derive_seed(cfg_.seed, 0, 1, 2), 1.0f),
        cfg_.ood_probes);
  }
}

ScenarioCellEvidence ScenarioSweeper::run_cell(const Perturbation& pert,
                                               const CampaignAxis& camp,
                                               bool ood,
                                               const ExecConfig& exec,
                                               const dl::Dataset& probes,
                                               std::uint64_t campaign_seed) {
  ScenarioCellEvidence cell;
  cell.id = cell_id(pert, camp, ood, exec);
  cell.perturbation = to_string(pert.kind);
  cell.campaign = camp.name;
  cell.ood = ood;
  cell.backend = core::to_string(exec.backend);
  cell.kernel_mode = dl::kernel_mode_name(exec.mode);
  cell.batch_workers = exec.batch_workers;
  cell.campaign_injected = camp.inject;

  core::PipelineConfig pc;
  pc.criticality = cfg_.criticality;
  pc.backend = exec.backend;
  pc.kernel_mode = exec.mode;
  pc.spec = spec_;
  pc.batch_workers = exec.batch_workers;

  std::unique_ptr<core::CertifiablePipeline> pipe;
  try {
    pipe = std::make_unique<core::CertifiablePipeline>(model_, calibration_,
                                                       pc);
  } catch (const std::exception& e) {
    cell.verdict = CellVerdict::kRefused;
    cell.note = std::string("deployment threw: ") + e.what();
    return cell;
  }
  if (pipe->verification_refused()) {
    // A statically refused model never runs — the cell records the refusal
    // as evidence instead of being skipped.
    cell.verdict = CellVerdict::kRefused;
    cell.note = "static verification gate refused the model";
    return cell;
  }

  core::DecisionHasher hash;
  cell.probes = probes.samples.size();
  if (cell.probes == 0) {
    cell.verdict = CellVerdict::kUnmeasured;
    cell.note = "empty probe set: conservative unmeasured cell";
    // The zeroed CampaignOutcome keeps its conservative semantics:
    // sdc_rate() == 1, availability() == 0 (PR 5 measured() contract).
    cell.decision_hash = hash.hex();
    return cell;
  }

  // 1. Single-item path over every probe: accuracy, degradation and the
  // bitwise decision stream anchoring the twin-identity claim.
  double sup_sum = 0.0;
  for (std::size_t i = 0; i < probes.samples.size(); ++i) {
    const auto& s = probes.samples[i];
    const core::Decision d = pipe->infer(s.input, /*logical_time=*/i);
    hash.decision(d);
    sup_sum += d.supervisor_score;
    if (!ok(d.status)) {
      ++cell.rejected;
    } else if (d.degraded) {
      ++cell.degraded;
    } else if (d.predicted_class == s.label) {
      ++cell.correct;
    }
  }
  cell.accuracy = static_cast<double>(cell.correct) /
                  static_cast<double>(cell.probes);
  cell.sup_mean_id = sup_sum / static_cast<double>(cell.probes);

  // 2. Batch path over the same probes, on the same deployed channels
  // (safety bag included). A separate hash: the single-item hash goes on
  // to cover the OOD probes below.
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(probes.samples.size());
  for (const auto& s : probes.samples) inputs.push_back(s.input);
  core::DecisionHasher bhash;
  for (const auto& d :
       pipe->infer_batch(inputs, /*logical_time=*/probes.samples.size()))
    bhash.decision(d);
  cell.batch_hash = bhash.hex();

  // 3. OOD probes: supervisor score distribution and catch rate.
  if (ood && !ood_probes_.samples.empty()) {
    cell.ood_probe_count = ood_probes_.samples.size();
    double ood_sum = 0.0;
    std::size_t caught = 0;
    for (std::size_t i = 0; i < ood_probes_.samples.size(); ++i) {
      const core::Decision d =
          pipe->infer(ood_probes_.samples[i].input,
                      /*logical_time=*/probes.samples.size() + 1 + i);
      hash.decision(d);
      ood_sum += d.supervisor_score;
      if (!ok(d.status) || d.degraded) ++caught;
    }
    cell.sup_mean_ood =
        ood_sum / static_cast<double>(cell.ood_probe_count);
    cell.ood_catch_rate = static_cast<double>(caught) /
                          static_cast<double>(cell.ood_probe_count);
  }

  // 4. Fault campaign against the *deployed* channel (int8 store for the
  // quantized backend, float replica weights otherwise; safety bag
  // forwards the injection either way).
  if (camp.inject) {
    safety::CampaignConfig cc;
    cc.n_faults = camp.n_faults;
    cc.probes_per_fault = camp.probes_per_fault;
    cc.fault_type = camp.fault_type;
    cc.seed = campaign_seed;
    cell.outcome = safety::run_campaign(*pipe->channel(), probes, cc);
    if (!cell.outcome.measured()) {
      cell.verdict = CellVerdict::kUnmeasured;
      cell.note = "campaign measured nothing: conservative rates apply";
    }
  }
  hash.u64(cell.outcome.correct);
  hash.u64(cell.outcome.detected);
  hash.u64(cell.outcome.fallback);
  hash.u64(cell.outcome.sdc);
  cell.decision_hash = hash.hex();

  // 5. Telemetry snapshot: counters only. The pipeline is fresh per cell,
  // so values are this cell's exact counts. Histograms are wall-clock
  // dependent and would break the byte-identical export contract.
  if (const obs::Registry* reg = pipe->telemetry()) {
    for (std::size_t i = 0; i < reg->counters(); ++i) {
      const std::string name{reg->counter_name(i)};
      cell.counters.emplace_back(name,
                                 reg->value(reg->find_counter(name)));
    }
  }
  return cell;
}

ScenarioReport ScenarioSweeper::run() {
  ScenarioReport report;
  report.seed = cfg_.seed;
  report.criticality = std::string{trace::to_string(cfg_.criticality)};

  // Perturbed probe sets are materialized once per axis value so every
  // exec-config sibling sees identical input bytes.
  std::vector<dl::Dataset> perturbed;
  perturbed.reserve(cfg_.perturbations.size());
  for (std::size_t pi = 0; pi < cfg_.perturbations.size(); ++pi)
    perturbed.push_back(apply_perturbation(
        probes_, cfg_.perturbations[pi], derive_seed(cfg_.seed, 17, pi, 0)));

  const bool ood_values[] = {false, true};
  const std::size_t n_ood = cfg_.cross_ood ? 2 : 1;

  for (std::size_t pi = 0; pi < cfg_.perturbations.size(); ++pi) {
    for (std::size_t ci = 0; ci < cfg_.campaigns.size(); ++ci) {
      for (std::size_t oi = 0; oi < n_ood; ++oi) {
        // Campaign faults must hit identical sites in every exec sibling:
        // the seed depends on the non-exec coordinates only.
        const std::uint64_t campaign_seed =
            derive_seed(cfg_.seed, pi + 1, ci + 1, oi + 1);
        for (const ExecConfig& exec : cfg_.execs) {
          report.cells.push_back(run_cell(cfg_.perturbations[pi],
                                          cfg_.campaigns[ci], ood_values[oi],
                                          exec, perturbed[pi],
                                          campaign_seed));
        }
      }
    }
  }

  // Twin identity: the first cell of each (perturbation, campaign, ood,
  // backend) group — reference mode, lowest worker count by grid order —
  // anchors the comparison for every later sibling.
  std::unordered_map<std::string, std::size_t> anchor;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    ScenarioCellEvidence& c = report.cells[i];
    std::string key = c.perturbation + '|' + c.campaign + '|' +
                      (c.ood ? "1" : "0") + '|' + c.backend;
    const auto [it, inserted] = anchor.emplace(std::move(key), i);
    if (inserted) continue;
    const ScenarioCellEvidence& twin = report.cells[it->second];
    if (c.verdict == CellVerdict::kRefused ||
        twin.verdict == CellVerdict::kRefused)
      continue;  // refused cells carry no decision stream to compare
    c.twin_id = twin.id;
    c.identity_checked = true;
    c.identity_ok = c.decision_hash == twin.decision_hash &&
                    (c.batch_hash.empty() || twin.batch_hash.empty() ||
                     c.batch_hash == twin.batch_hash);
    if (!c.identity_ok && c.verdict == CellVerdict::kPass) {
      c.verdict = CellVerdict::kFail;
      c.note = "bitwise mismatch vs reference twin " + twin.id;
    }
  }

  for (const auto& c : report.cells) {
    switch (c.verdict) {
      case CellVerdict::kPass: ++report.passed; break;
      case CellVerdict::kFail: ++report.failed; break;
      case CellVerdict::kRefused: ++report.refused; break;
      case CellVerdict::kUnmeasured: ++report.unmeasured; break;
    }
    if (c.identity_checked) {
      ++report.identity_checked;
      if (c.identity_ok) ++report.identity_ok;
    }
    if (c.campaign_injected) report.pooled.merge(c.outcome);
  }
  return report;
}

}  // namespace sx::scenario
