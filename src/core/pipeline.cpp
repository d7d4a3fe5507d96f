#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>

#include "dl/engine.hpp"
#include "platform/cpu_probe.hpp"

namespace sx::core {

const char* to_string(BackendKind b) noexcept {
  switch (b) {
    case BackendKind::kFloat32: return "float32";
    case BackendKind::kInt8: return "int8";
  }
  return "unknown";
}

namespace {

/// The pattern's channel, every replica built at `kernels`. `quant` is the
/// deployment's one quantization (null when neither the kInt8 backend nor
/// diverse TMR needs it): it makes the single/monitored replica int8 and
/// is diverse TMR's int8 voter.
std::unique_ptr<safety::InferenceChannel> make_channel(
    PatternKind p, const dl::Model& model, const dl::QuantizedModel* quant,
    dl::KernelMode kernels) {
  switch (p) {
    case PatternKind::kSingle:
    case PatternKind::kMonitored: {
      const bool monitored = p == PatternKind::kMonitored;
      safety::Replica replica =
          quant != nullptr
              ? safety::Replica{*quant, kernels}
              : safety::Replica{model, {.check_numeric_faults = monitored,
                                        .kernels = kernels}};
      return std::make_unique<safety::EngineChannel>(
          std::move(replica),
          monitored ? std::optional{safety::MonitorConfig{}} : std::nullopt);
    }
    case PatternKind::kDmr:
      return std::make_unique<safety::DmrChannel>(model, kernels);
    case PatternKind::kTmr:
      return std::make_unique<safety::TmrChannel>(model, kernels);
    case PatternKind::kDiverseTmr:
      return std::make_unique<safety::DiverseTmrChannel>(model, *quant,
                                                         kernels);
  }
  throw std::invalid_argument("make_channel: unknown pattern");
}

/// The replica whose features the supervisor reads (safety case Sn1.3).
const char* tap_source(PatternKind p) noexcept {
  switch (p) {
    case PatternKind::kSingle:
    case PatternKind::kMonitored: return "the channel's one replica";
    case PatternKind::kDmr: return "replica 0 once the DMR comparison passes";
    case PatternKind::kTmr:
      return "the first replica that reproduces the TMR vote";
    case PatternKind::kDiverseTmr:
      return "the float replica whose logits the diverse vote emits";
  }
  return "the channel's replica";
}

}  // namespace

CertifiablePipeline::CertifiablePipeline(const dl::Model& model,
                                         const dl::Dataset& calibration,
                                         PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      spec_(cfg_.spec.value_or(recommended_spec(cfg_.criticality))) {
  const AdmissibilityVerdict verdict =
      check_admissible(spec_, cfg_.criticality);
  if (!verdict.admissible) {
    std::string what = "CertifiablePipeline: spec not admissible at " +
                       std::string(trace::to_string(cfg_.criticality)) + ":";
    for (const auto& m : verdict.missing) what += " [" + m + "]";
    throw std::invalid_argument(what);
  }
  if (calibration.samples.empty())
    throw std::invalid_argument("CertifiablePipeline: empty calibration set");
  if (cfg_.backend == BackendKind::kInt8 &&
      spec_.pattern != PatternKind::kSingle &&
      spec_.pattern != PatternKind::kMonitored)
    throw std::invalid_argument(
        "CertifiablePipeline: the int8 backend reaches the 'monitored' "
        "pattern rung; DMR and above need float replicas");

  model_ = std::make_unique<dl::Model>(model);
  const std::size_t n_out = model_->output_shape().size();
  const std::size_t n_channels = std::max<std::size_t>(1, cfg_.batch_workers);
  const bool int8 = cfg_.backend == BackendKind::kInt8;

  // Telemetry: registry, flight recorder and every metric name are fixed
  // here, at deploy time, before any component that binds counters exists
  // — so the exposition layout is identical for every batch_workers
  // setting and no registration ever happens on an inference path.
  if (cfg_.enable_telemetry) {
    obs_ = std::make_unique<obs::Registry>(cfg_.telemetry_config);
    fdr_ =
        std::make_unique<obs::FlightRecorder>(cfg_.flight_recorder_capacity);
    c_decisions_ = obs_->counter("sx_decisions_total");
    c_odd_rej_ = obs_->counter("sx_odd_rejections_total");
    c_sup_rej_ = obs_->counter("sx_supervisor_rejections_total");
    c_fallback_ = obs_->counter("sx_fallback_activations_total");
    c_wd_overruns_ = obs_->counter("sx_watchdog_overruns_total");
    c_fault_det_ = obs_->counter("sx_fault_detections_total");
    c_verify_refusals_ = obs_->counter("sx_verification_refusals_total");
    c_drift_alarms_ = obs_->counter("sx_drift_alarms_total");
    g_budget_ = obs_->gauge("sx_timing_budget");
    g_sup_threshold_ = obs_->gauge("sx_supervisor_threshold");
    g_drift_cusum_ = obs_->gauge("sx_drift_cusum");
    h_odd_ = obs_->histogram("sx_stage_odd_guard_cycles");
    h_infer_ = obs_->histogram("sx_stage_inference_cycles");
    h_sup_ = obs_->histogram("sx_stage_supervisor_cycles");
    h_decision_ = obs_->histogram("sx_decision_cycles");
    watchdog_.bind_telemetry(obs_.get(), c_wd_overruns_);
    obs_->set(g_budget_, static_cast<double>(cfg_.timing_budget));
    if (int8) {
      g_quant_bytes_ = obs_->gauge("sx_quant_weight_bytes");
      h_qinfer_ = obs_->histogram("sx_stage_quant_inference_cycles");
    }
  }

  // Deterministic batch pool, spawned here at deploy time: infer_batch()
  // spawns nothing. It owns no engine; its partitions run the channels
  // below, and with one partition the caller runs every item itself (no
  // thread starts).
  batch_ = std::make_unique<dl::BatchRunner>(dl::BatchRunnerConfig{
      .workers = n_channels, .registry = obs_.get()});

  // Fallback logits: one-hot on the conservative class.
  if (cfg_.fallback_class >= n_out)
    throw std::invalid_argument("CertifiablePipeline: fallback class range");
  fallback_.assign(n_out, 0.0f);
  fallback_[cfg_.fallback_class] = 10.0f;

  if (spec_.has_timing_budget && cfg_.timing_budget == 0)
    throw std::invalid_argument(
        "CertifiablePipeline: spec demands a timing budget but none given");

  if (spec_.has_odd_guard)
    odd_ = std::make_unique<trace::OddGuard>(trace::OddGuard::fit(calibration));

  // Pre-flight static verification gate (pillar 3), in two halves. The
  // model half comes first and needs no engine: prove from the parameters
  // and the qualified input domain alone that the model is bounded and
  // NaN-free. A model it refuses is never quantized and gets no channel,
  // so nothing runs it: the pipeline deploys in refuse-only mode and the
  // verdict lands in the audit chain below.
  const trace::OddSpec odd_spec = odd_ ? odd_->spec() : trace::OddSpec{};
  if (spec_.has_static_verification) {
    verify_ = std::make_unique<verify::VerificationEvidence>(
        verify::verify_model(*model_, odd_spec, /*engines=*/{}));
    verify_refused_ =
        !verify_->verdict.output_bounded || !verify_->verdict.nan_free;
  }

  // The deployment's one quantization: fold BatchNorm and quantize with
  // the activation ranges the folded twin's float engine observes over the
  // calibration set, at the deployment's kernel mode, here at deploy time.
  // Every kInt8 channel and every diverse-TMR int8 voter copies it. The
  // folded twin's layer indices align with the quantized model's; the
  // kInt8 saturation margins and supervisor fit read it below.
  std::optional<dl::Model> folded;
  if (!verify_refused_ &&
      (int8 || spec_.pattern == PatternKind::kDiverseTmr)) {
    folded.emplace(dl::fold_batchnorm(*model_));
    quant_ = std::make_unique<dl::QuantizedModel>(dl::QuantizedModel::quantize(
        *folded, dl::calibrate_ranges(*folded, calibration, cfg_.kernel_mode),
        dl::QuantConfig{}));
    if (obs_ && int8)
      obs_->set(g_quant_bytes_, static_cast<double>(quant_->weight_bytes()));
  }

  // Inference channels, one per pool worker, built before the engine half
  // of the gate so it checks the engines that will serve. Under kInt8
  // campaign faults land in the replica's deployed int8 weight store.
  if (!verify_refused_)
    for (std::size_t k = 0; k < n_channels; ++k)
      channels_.push_back(make_channel(spec_.pattern, *model_, quant_.get(),
                                       cfg_.kernel_mode));

  // Resolved-backend record: the mode channel 0's plan *actually* runs
  // (post SX_KERNEL_REFERENCE, post CPU probe), not just the requested one
  // — under the escape hatch the two differ, and evidence attributed to
  // the requested mode would misstate what executed. A plan means kWide;
  // its probe / SX_KERNEL_ISA decision rides along verbatim, naming the
  // arm that runs. Read before the engine half of the gate may drop the
  // channels, so an engine-level refusal records the backend it built; a
  // model refused by the model half has no engine and resolves to none.
  {
    const dl::PlanEvidence* plan =
        channels_.empty() ? nullptr : channels_.front()->plan();
    kernel_backend_ =
        "requested=" + std::string(dl::kernel_mode_name(cfg_.kernel_mode)) +
        " resolved=" +
        (channels_.empty() ? std::string("none")
                           : dl::kernel_mode_name(
                                 plan != nullptr ? dl::KernelMode::kWide
                                                 : dl::KernelMode::kReference));
    if (plan != nullptr)
      kernel_backend_ +=
          "; " + platform::wide_isa_audit(plan->cpu_probe(),
                                          plan->isa_selection());
  }

  // The engine half: check every deployed engine — each replica of each
  // channel, float and int8 — against the model it runs: its arena against
  // the shape-derived demand, its plan's passes (and int8 no-overflow
  // bounds) against their re-derivation. A failing engine drops the
  // channels before anything runs them.
  if (verify_ && !verify_refused_) {
    std::vector<verify::EngineCheck> checks;
    for (std::size_t k = 0; k < channels_.size(); ++k) {
      for (std::size_t r = 0; r < channels_[k]->replica_count(); ++r) {
        safety::Replica& rep = channels_[k]->replica(r);
        verify::EngineCheck c =
            rep.elem() == dl::ElemType::kInt8
                ? verify::check_engine(rep.quantized_model(), rep.engine())
                : verify::check_engine(rep.model(), rep.engine());
        c.channel = k;
        c.replica = r;
        checks.push_back(c);
      }
    }
    verify_->set_engines(std::move(checks));
    // Int8 deployment evidence: static saturation margins per layer (the
    // runtime clip counters are cross-checked against these — see
    // quant_saturation_cross_check).
    if (int8)
      verify_->quant =
          verify::check_quant_saturation(*folded, *quant_, odd_spec);
    verify_refused_ = !verify_->verdict.passed();
    if (verify_refused_) channels_.clear();
  }

  // Supervisor (fit + threshold on calibration data) plus a stream-level
  // CUSUM drift detector on the log-transformed score stream. Skipped in
  // refuse-only mode: fitting would execute the very model the static
  // gate just rejected. One pass of an engine of the deployed element type
  // taps every calibration sample's features — bitwise the reference
  // walk's for float, the dequantized int8 features the channel will tap
  // for int8 — and both the fit and the threshold scores come from them.
  if (spec_.has_supervisor && !verify_refused_) {
    supervisor_ = std::make_unique<supervise::MahalanobisSupervisor>();
    std::unique_ptr<dl::Engine> fit_engine =
        int8 ? safety::make_replica_engine(*quant_, cfg_.kernel_mode)
             : safety::make_replica_engine(
                   *model_, {.check_numeric_faults = false,
                             .kernels = cfg_.kernel_mode});
    const std::vector<double> scores = supervisor_->fit_planned(
        int8 ? *folded : *model_, calibration, *fit_engine);
    fit_engine.reset();
    supervisor_->calibrate_threshold(scores, cfg_.supervisor_tpr);
    std::vector<double> log_scores(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i)
      log_scores[i] = std::log1p(std::max(0.0, scores[i]));
    drift_ = std::make_unique<supervise::CusumDetector>(
        supervise::CusumDetector::fit(log_scores, 0.5, 10.0));
    // Per-decision scores solve on the features the decision's own
    // channel run tapped: one scorer per channel, since a safety bag
    // scores on its pool worker.
    for (std::size_t k = 0; k < n_channels; ++k) {
      scorers_.push_back(std::make_unique<supervise::TapScorer>(*supervisor_));
      if (obs_) scorers_.back()->bind_telemetry(obs_.get(), c_sup_rej_);
    }
    feat_.assign(scorers_.front()->feature_dim(), 0.0f);
    if (obs_) obs_->set(g_sup_threshold_, supervisor_->threshold());
  }

  // Each channel optionally wrapped in a safety bag that scores on its
  // channel's scorer.
  for (std::size_t k = 0; k < channels_.size(); ++k) {
    std::unique_ptr<safety::InferenceChannel>& ch = channels_[k];
    supervise::TapScorer* scorer =
        scorers_.empty() ? nullptr : scorers_[k].get();
    if (scorer != nullptr && ch->tap_size() != scorer->feature_dim())
      throw std::logic_error(
          "CertifiablePipeline: channel tap does not match the supervisor");
    safety::SafetyBagChannel* bag = nullptr;
    if (spec_.has_safety_bag) {
      auto wrapped = std::make_unique<safety::SafetyBagChannel>(
          std::move(ch), scorer, fallback_);
      bag = wrapped.get();
      ch = std::move(wrapped);
    }
    if (obs_) ch->bind_telemetry(*obs_);
    bags_.push_back(bag);
  }

  if (spec_.has_explanations)
    explainer_ = std::make_unique<explain::GradientSaliency>();

  card_ = trace::make_model_card(
      "safexplain-pipeline", "1.0", *model_, calibration,
      "criticality=" + std::string(trace::to_string(cfg_.criticality)) +
          " pattern=" + to_string(spec_.pattern) +
          " backend=" + to_string(cfg_.backend),
      /*validation_accuracy=*/0.0,
      "inputs within fitted ODD; see safety case");

  out_buf_.assign(n_out, 0.0f);
  probs_.assign(n_out, 0.0f);
  audit_.append(0, "pipeline", "deploy",
                "model=" + card_.model_hash +
                    " criticality=" +
                    std::string(trace::to_string(cfg_.criticality)) +
                    " pattern=" + to_string(spec_.pattern) +
                    " backend=" + to_string(cfg_.backend));
  if (verify_)
    audit_.append(0, "static-verify",
                  verify_refused_ ? "refuse-model" : "pass",
                  verify_->verdict_line());
  // Deploy-time plan evidence of the channel's replica 0: the plan
  // summary plus one audit entry per static-analysis pass (dce, fusion,
  // liveness), so the tamper-evident chain records exactly which
  // transformations shaped the deployed program and what each one claims
  // to have saved.
  const dl::PlanEvidence* plan =
      channel() != nullptr ? channel()->plan() : nullptr;
  if (plan != nullptr) {
    audit_.append(0,
                  plan->elem() == dl::ElemType::kInt8 ? "quant-plan"
                                                      : "kernel-plan",
                  "deploy", plan->summary());
    for (const auto& pe : plan->pass_evidence())
      audit_.append(0, "ir-pass", pe.pass, pe.summary());
  }
  audit_.append(0, "kernel-backend", "deploy", kernel_backend_);
}

std::uint64_t CertifiablePipeline::quant_saturation_total() const noexcept {
  std::uint64_t n = 0;
  for (const auto& ch : channels_)
    n += ch->replicas().front().engine().saturation_total();
  return n;
}

verify::SaturationCrossCheck
CertifiablePipeline::quant_saturation_cross_check() const {
  if (!verify_ || verify_->quant.empty())
    throw std::logic_error(
        "quant_saturation_cross_check: deploy with backend=kInt8 and a "
        "spec demanding static verification");
  std::vector<std::uint64_t> measured(quant_->layer_count(), 0);
  for (const auto& ch : channels_) {
    const auto cs = ch->replicas().front().engine().saturation_counts();
    for (std::size_t i = 0; i < cs.size(); ++i) measured[i] += cs[i];
  }
  return verify::cross_check_saturation(verify_->quant, measured);
}

void CertifiablePipeline::obs_finish_decision(const Decision& d,
                                              std::uint64_t t0) noexcept {
  if (!obs_) return;
  const std::uint64_t t1 = obs_->now();
  obs_->observe(h_decision_, t1 >= t0 ? t1 - t0 : 0);
  obs_span(obs::Stage::kDecision, d.status, d.degraded, t0, t1);
}

CertifiablePipeline::OddVerdict CertifiablePipeline::guard(
    tensor::ConstTensorView input) noexcept {
  OddVerdict v;
  if (!odd_) return v;
  v.t0 = obs_ ? obs_->now() : 0;
  v.status = odd_->check(input);
  if (obs_) {
    v.t1 = obs_->now();
    obs_->observe(h_odd_, v.t1 >= v.t0 ? v.t1 - v.t0 : 0);
  }
  return v;
}

void CertifiablePipeline::reject(Decision& d, const ItemContext& c, Status st,
                                 const char* actor, const char* action,
                                 std::string_view detail) {
  ++rejections_;
  d.status = st;
  d.degraded = true;
  d.predicted_class = cfg_.fallback_class;
  std::string payload;
  if (c.batch_index)
    payload = "batch_index=" + std::to_string(*c.batch_index) + " ";
  if (detail.empty())
    payload.append("status=").append(to_string(st));
  else
    payload.append(detail);
  d.audit_sequence =
      audit_.append(c.logical_time, actor, action, std::move(payload))
          .sequence;
  obs_finish_decision(d, c.t_decision);
}

bool CertifiablePipeline::admit(Decision& d, const ItemContext& c) {
  ++decisions_;
  obs_count(c_decisions_);

  // 0. Pre-flight gate verdict: a statically refused model never runs.
  if (verify_refused_) {
    obs_count(c_verify_refusals_);
    obs_span(obs::Stage::kStaticVerify, Status::kVerificationFailed, true,
             c.t_decision, c.t_decision);
    reject(d, c, Status::kVerificationFailed, "static-verify", "refuse");
    return false;
  }

  // 1. ODD guard, checked by the entry point (see guard()).
  if (odd_) {
    obs_span(obs::Stage::kOddGuard, c.odd.status, !ok(c.odd.status), c.odd.t0,
             c.odd.t1);
    if (!ok(c.odd.status)) {
      obs_count(c_odd_rej_);
      reject(d, c, c.odd.status, "odd-guard", "reject");
      return false;
    }
  }

  // 2. Timing budget: both entry points pass the caller's logical elapsed
  // time, never a measured one, and the check runs serially in decision
  // order, so the verdict, the overrun counter (incremented inside kick()
  // via the watchdog's binding) and the audit trail are clock- and
  // schedule-free.
  if (spec_.has_timing_budget) {
    watchdog_.arm(c.logical_time, cfg_.timing_budget);
    const Status wd = watchdog_.kick(c.logical_time + c.elapsed);
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_span(obs::Stage::kWatchdog, wd, !ok(wd), t1, t1);
    }
    if (!ok(wd)) {
      reject(d, c, Status::kDeadlineMiss, "watchdog", "deadline-miss",
             "elapsed=" + std::to_string(c.elapsed) +
                 " budget=" + std::to_string(cfg_.timing_budget));
      return false;
    }
  }
  return true;
}

void CertifiablePipeline::decide(Decision& d, const ItemContext& c,
                                 const InferenceOutcome& r) {
  if (obs_) {
    const std::uint64_t dt = r.t1 >= r.t0 ? r.t1 - r.t0 : 0;
    obs_->observe(h_infer_, dt);
    if (cfg_.backend == BackendKind::kInt8) obs_->observe(h_qinfer_, dt);
    obs_span(obs::Stage::kInference, r.status, r.degraded, r.t0, r.t1);
  }
  Status st = r.status;
  if (ok(st) && r.degraded) {
    ++fallbacks_;
    obs_count(c_fallback_);
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_span(obs::Stage::kFallback, Status::kOk, true, t1, t1);
    }
  }

  // 3. The decision's one supervisor score: the safety bag's when it took
  // one inside the channel, else a solve on the features the channel
  // tapped in the decision's own engine run. A decision with
  // neither (the bag's primary failed, so nothing was tapped) takes no
  // score and no drift update, like an ODD rejection. Then the CUSUM drift
  // detector on the log-transformed score stream.
  if (ok(st) && !scorers_.empty() && (r.score || !r.features.empty())) {
    const std::uint64_t t_sup = obs_ ? obs_->now() : 0;
    d.supervisor_score =
        r.score ? *r.score : scorers_.front()->score(r.features);
    const bool was_alarmed = drift_->alarmed();
    drift_->update(std::log1p(std::max(0.0, d.supervisor_score)));
    if (obs_) obs_->set(g_drift_cusum_, drift_->statistic());
    if (!was_alarmed && drift_->alarmed()) {
      obs_count(c_drift_alarms_);
      audit_.append(c.logical_time, "drift-detector", "alarm",
                    "cusum=" + std::to_string(drift_->statistic()));
    }
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_->observe(h_sup_, t1 >= t_sup ? t1 - t_sup : 0);
      obs_span(obs::Stage::kSupervisor, st, false, t_sup, t1);
    }
  }
  if (!ok(st)) {
    obs_count(c_fault_det_);
    reject(d, c, st, c.component, "fail-stop");
    return;
  }

  // 4. Decision + confidence.
  d.status = Status::kOk;
  d.degraded = r.degraded;
  dl::softmax_into(r.logits, probs_);
  d.predicted_class = 0;
  for (std::size_t k = 1; k < probs_.size(); ++k)
    if (probs_[k] > probs_[d.predicted_class]) d.predicted_class = k;
  d.confidence = probs_[d.predicted_class];

  std::ostringstream payload;
  if (c.batch_index) payload << "batch_index=" << *c.batch_index << ' ';
  payload << "class=" << d.predicted_class << " conf=" << d.confidence;
  if (d.degraded) payload << " degraded=1";
  payload << " sup=" << d.supervisor_score;
  d.audit_sequence =
      audit_.append(c.logical_time, c.component, "decision", payload.str())
          .sequence;
  obs_finish_decision(d, c.t_decision);
}

CertifiablePipeline::InferenceOutcome CertifiablePipeline::run_channel(
    std::size_t k, tensor::ConstTensorView input, std::span<float> logits,
    std::span<float> tap, obs::ClockFn clock) noexcept {
  // A wrong-shaped input fail-stops instead of reaching a safety bag that
  // would degrade it.
  InferenceOutcome r;
  r.t0 = clock != nullptr ? clock() : 0;
  if (input.shape != model_->input_shape()) {
    r.status = Status::kShapeMismatch;
  } else {
    r.status = channels_[k]->infer(input, logits, tap);
    r.degraded = channels_[k]->last_degraded();
    if (!r.degraded) r.features = tap;
    if (bags_[k] != nullptr) r.score = bags_[k]->last_score();
  }
  r.t1 = clock != nullptr ? clock() : 0;
  r.logits = logits;
  return r;
}

Decision CertifiablePipeline::infer(const tensor::Tensor& input,
                                    std::uint64_t logical_time,
                                    std::uint64_t elapsed) {
  const ItemContext c{
      .input = input.view(),
      .logical_time = logical_time,
      .t_decision = obs_ ? obs_->now() : 0,
      .odd = verify_refused_ ? OddVerdict{} : guard(input.view()),
      .elapsed = elapsed,
      .component = "channel",
      .batch_index = std::nullopt};
  Decision d;
  if (!admit(d, c)) return d;

  // Channel inference (includes pattern redundancy and the safety bag).
  // With a supervisor the channel also taps the features (feat_ is empty
  // without one).
  decide(d, c,
         run_channel(0, c.input, out_buf_, feat_,
                     obs_ ? obs_->config().clock : nullptr));
  return d;
}

std::span<const tensor::ConstTensorView> CertifiablePipeline::views_of(
    const std::vector<tensor::Tensor>& inputs) {
  views_.clear();
  for (const tensor::Tensor& t : inputs) views_.push_back(t.view());
  return views_;
}

std::vector<Decision> CertifiablePipeline::infer_batch(
    const std::vector<tensor::Tensor>& inputs, std::uint64_t logical_time,
    std::uint64_t elapsed) {
  return infer_batch(views_of(inputs), logical_time, elapsed);
}

std::vector<Decision> CertifiablePipeline::infer_batch(
    std::span<const tensor::ConstTensorView> inputs,
    std::uint64_t logical_time, std::uint64_t elapsed) {
  const std::size_t n_items = inputs.size();
  std::vector<Decision> decisions(n_items);
  if (n_items == 0) return decisions;

  const std::size_t n_out = model_->output_shape().size();
  const std::size_t w = feat_.size();
  // Per-item channel time is measured by the worker that runs the item
  // only for telemetry, which consumes it serially, in batch-index order.
  const obs::ClockFn clock = obs_ ? obs_->config().clock : nullptr;
  const bool dispatched = !verify_refused_;
  if (dispatched) {
    const auto grow = [](auto& v, std::size_t n) {
      if (v.size() < n) v.resize(n);
    };
    grow(batch_logits_, n_items * n_out);
    grow(odd_verdicts_, n_items);
    grow(outcomes_, n_items);
    grow(batch_taps_, n_items * w);

    // ODD verdicts up front, in batch-index order, so the guard histogram
    // is schedule-free; the verdict spans are recorded in the decision
    // loop under the decision's ordinal.
    for (std::size_t i = 0; i < n_items; ++i)
      odd_verdicts_[i] = guard(inputs[i]);

    // Item i runs on channel i % workers, the pool's static partition, so
    // each channel is only ever touched by its own worker. A guard-rejected
    // item never reaches a channel, as in infer().
    const auto job = [&](std::size_t i) noexcept {
      if (!ok(odd_verdicts_[i].status)) {
        outcomes_[i] = InferenceOutcome{};
        return;
      }
      outcomes_[i] = run_channel(
          i % channels_.size(), inputs[i],
          std::span<float>(batch_logits_).subspan(i * n_out, n_out),
          std::span<float>(batch_taps_).subspan(i * w, w), clock);
    };
    batch_->run(n_items, job);
  }

  // The shared decision sequence, serially in batch-index order — the
  // audit chain is identical for every worker count because nothing here
  // depends on the parallel schedule.
  for (std::size_t i = 0; i < n_items; ++i) {
    const InferenceOutcome* run = dispatched ? &outcomes_[i] : nullptr;
    const ItemContext c{
        .input = inputs[i],
        .logical_time = logical_time,
        .t_decision = obs_ ? obs_->now() : 0,
        .odd = dispatched ? odd_verdicts_[i] : OddVerdict{},
        .elapsed = elapsed,
        .component = "batch-engine",
        .batch_index = i};
    Decision& d = decisions[i];
    if (!admit(d, c)) continue;
    // The inference span is the worker's measured time, placed at the
    // caller's clock so the flight trail stays in one time base.
    InferenceOutcome r = *run;
    const std::uint64_t measured = r.t1 >= r.t0 ? r.t1 - r.t0 : 0;
    r.t0 = obs_ ? obs_->now() : 0;
    r.t1 = r.t0 + measured;
    decide(d, c, r);
  }
  return decisions;
}

tensor::Tensor CertifiablePipeline::explain(const tensor::Tensor& input,
                                            std::size_t target_class) {
  if (!explainer_)
    throw std::logic_error(
        "CertifiablePipeline::explain: spec has no explanation support");
  if (verify_refused_)
    throw std::logic_error(
        "CertifiablePipeline::explain: model refused by static verification");
  return explainer_->attribute(*model_, input, target_class);
}

Status CertifiablePipeline::verify_integrity() const {
  return trace::verify_model_integrity(card_, *model_);
}

trace::SafetyCase CertifiablePipeline::build_safety_case() const {
  trace::SafetyCase sc;
  const auto root = sc.set_root_goal(
      "G0", "The DL-based function is acceptably safe at criticality " +
                std::string(trace::to_string(cfg_.criticality)));
  const auto strat = sc.add_strategy(
      root, "S0", "Argue over the four SAFEXPLAIN pillars");

  // Pillar 1: explainability & traceability.
  const auto g1 = sc.add_goal(strat, "G1",
                              "Predictions are trustworthy and traceable");
  sc.add_solution(g1, "Sn1.1", "model provenance hash " + card_.model_hash);
  sc.add_solution(g1, "Sn1.2",
                  "hash-chained audit log, head=" + util::to_hex(audit_.head()));
  if (supervisor_)
    sc.add_solution(g1, "Sn1.3",
                    "runtime trust supervisor '" +
                        std::string(supervisor_->name()) + "', threshold=" +
                        std::to_string(supervisor_->threshold()) +
                        ", reading the features of " +
                        tap_source(spec_.pattern) +
                        " from the decision's own engine run (it shares that "
                        "replica's weights and faults)");
  if (odd_) sc.add_solution(g1, "Sn1.4", "fitted ODD guard active");
  if (explainer_)
    sc.add_solution(g1, "Sn1.5",
                    "per-decision attribution via " +
                        std::string(explainer_->name()));

  // Pillar 2: safety patterns.
  const auto g2 = sc.add_goal(
      strat, "G2", "Residual random-fault risk is controlled");
  sc.add_solution(g2, "Sn2.1",
                  std::string("safety pattern '") + to_string(spec_.pattern) +
                      "' deployed");
  if (spec_.has_safety_bag)
    sc.add_solution(g2, "Sn2.2", "fail-operational fallback configured");

  // Pillar 3: FUSA-compliant library.
  const auto g3 = sc.add_goal(
      strat, "G3", "Inference library satisfies FUSA coding constraints");
  sc.add_solution(g3, "Sn3.1",
                  "static-arena engine: no allocation, no exceptions on the "
                  "operational path");
  if (verify_)
    sc.add_solution(g3, "Sn3.2",
                    "pre-flight abstract interpretation: " +
                        verify_->verdict_line());

  // Pillar 4: real time.
  const auto g4 =
      sc.add_goal(strat, "G4", "Real-time constraints are satisfied");
  if (spec_.has_timing_budget) {
    sc.add_solution(g4, "Sn4.1",
                    "watchdog enforces budget of " +
                        std::to_string(cfg_.timing_budget) + " time units");
  } else {
    sc.add_solution(g4, "Sn4.1",
                    "criticality level imposes no timing obligation");
  }
  return sc;
}

}  // namespace sx::core
