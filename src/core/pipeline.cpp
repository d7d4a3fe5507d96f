#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <sstream>
#include <stdexcept>

#include "dl/engine.hpp"
#include "platform/cpu_probe.hpp"
#include "supervise/metrics.hpp"

namespace sx::core {

const char* to_string(BackendKind b) noexcept {
  switch (b) {
    case BackendKind::kFloat32: return "float32";
    case BackendKind::kInt8: return "int8";
  }
  return "unknown";
}

namespace {

std::unique_ptr<safety::InferenceChannel> make_channel(
    PatternKind p, const dl::Model& model, const dl::Dataset& calibration,
    dl::KernelMode kernels) {
  switch (p) {
    case PatternKind::kSingle:
      return std::make_unique<safety::SingleChannel>(
          model, dl::StaticEngineConfig{.check_numeric_faults = false,
                                        .kernels = kernels});
    case PatternKind::kMonitored:
      return std::make_unique<safety::MonitoredChannel>(
          model, safety::MonitorConfig{},
          dl::StaticEngineConfig{.check_numeric_faults = true,
                                 .kernels = kernels});
    case PatternKind::kDmr:
      return std::make_unique<safety::DmrChannel>(model);
    case PatternKind::kTmr:
      return std::make_unique<safety::TmrChannel>(model);
    case PatternKind::kDiverseTmr:
      return std::make_unique<safety::DiverseTmrChannel>(model, calibration);
  }
  throw std::invalid_argument("make_channel: unknown pattern");
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

  // One kernel-mode knob per pipeline: cfg.kernel_mode drives the
  // quantized channel, batch pool and IR re-check too, so the
  // kernel-backend record always names the mode that ran.
  cfg_.quant_engine.kernels = cfg_.kernel_mode;

  model_ = std::make_unique<dl::Model>(model);
  const std::size_t n_out = model_->output_shape().size();

  // kInt8 backend: fold BatchNorm and quantize against the calibration
  // set, here at deploy time (quantization is calibration, not service —
  // a model the static gate later refuses still never serves traffic).
  // Both the folded twin and the quantized model outlive the batch pool
  // and the channel, which hold references into them.
  if (cfg_.backend == BackendKind::kInt8) {
    folded_ = std::make_unique<dl::Model>(dl::fold_batchnorm(*model_));
    quant_ = std::make_unique<dl::QuantizedModel>(dl::QuantizedModel::quantize(
        *folded_, calibration, dl::QuantConfig{cfg_.quant_granularity}));
  }

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
    if (quant_) {
      c_quant_sats_ = obs_->counter("sx_quant_saturations_total");
      g_quant_bytes_ = obs_->gauge("sx_quant_weight_bytes");
      h_qinfer_ = obs_->histogram("sx_stage_quant_inference_cycles");
      obs_->set(g_quant_bytes_,
                static_cast<double>(quant_->weight_bytes()));
    }
  }

  // Deterministic batch executor: pool and per-worker arenas are planned
  // here, at deploy time — infer_batch() spawns nothing and allocates
  // nothing on the inference path itself. Under the int8 backend the pool
  // runs quantized per-worker engines sharing one QuantKernelPlan.
  if (cfg_.batch_workers > 0) {
    dl::BatchRunnerConfig bcfg;
    bcfg.workers = cfg_.batch_workers;
    bcfg.registry = obs_.get();
    bcfg.kernels = cfg_.kernel_mode;
    if (quant_) {
      bcfg.arena_slack = cfg_.quant_engine.arena_slack;
      batch_ = std::make_unique<dl::BatchRunner>(*quant_, bcfg);
    } else {
      batch_ = std::make_unique<dl::BatchRunner>(*model_, bcfg);
    }
  }

  // Fallback logits: explicit, or one-hot on the conservative class.
  fallback_ = cfg_.fallback_logits;
  if (fallback_.empty()) {
    if (cfg_.fallback_class >= n_out)
      throw std::invalid_argument("CertifiablePipeline: fallback class range");
    fallback_.assign(n_out, 0.0f);
    fallback_[cfg_.fallback_class] = 10.0f;
  } else if (fallback_.size() != n_out) {
    throw std::invalid_argument("CertifiablePipeline: fallback logit size");
  }

  if (spec_.has_timing_budget && cfg_.timing_budget == 0)
    throw std::invalid_argument(
        "CertifiablePipeline: spec demands a timing budget but none given");

  if (spec_.has_odd_guard)
    odd_ = std::make_unique<trace::OddGuard>(trace::OddGuard::fit(calibration));

  // Pre-flight static verification gate (pillar 3): prove from the
  // parameters and the qualified input domain alone that the model is
  // bounded, NaN-free and that the engine's arena plan matches the
  // shape-derived demand. A failing model is never fitted or executed —
  // the pipeline deploys in refuse-only mode and the verdict lands in the
  // audit chain below.
  if (spec_.has_static_verification) {
    const trace::OddSpec odd_spec =
        odd_ ? odd_->spec() : trace::OddSpec{};
    dl::StaticEngineConfig vcfg;
    vcfg.kernels = cfg_.kernel_mode;
    verify_ = std::make_unique<verify::VerificationEvidence>(
        verify::verify_model(*model_, odd_spec, vcfg));
    // Int8 deployment evidence: static saturation margins per layer (the
    // runtime clip counters are cross-checked against these — see
    // quant_saturation_cross_check) and an independent re-derivation of
    // the quantized engine's byte-arena demand. An inconsistent byte
    // arena refuses the deployment exactly like a float arena mismatch.
    if (quant_) {
      verify_->quant =
          verify::check_quant_saturation(*folded_, *quant_, odd_spec);
      verify_->quant_arena =
          verify::check_quant_arena(*quant_, cfg_.quant_engine);
      verify_->quant_checked = true;
      if (!verify_->quant_arena.consistent)
        verify_->verdict.arena_consistent = false;
      // Re-verify the int8 plan's static-analysis passes against a probe
      // plan built exactly like the deployed one: the checker re-derives
      // elimination/fusion/liveness from the quantized layers alone and
      // any mismatch (an unsound or corrupted transformation) refuses the
      // deployment before a channel exists.
      if (dl::resolve_kernel_mode(cfg_.kernel_mode) !=
          dl::KernelMode::kReference) {
        const dl::QuantKernelPlan qprobe{*quant_};
        verify_->quant_ir = verify::check_ir(*quant_, qprobe);
        if (!verify_->quant_ir.passed())
          verify_->verdict.ir_sound = false;
      }
    }
    verify_refused_ = !verify_->verdict.passed();
  }

  // Supervisor (fit + threshold on calibration data) plus a stream-level
  // CUSUM drift detector on the log-transformed score stream. Skipped in
  // refuse-only mode: fitting would execute the very model the static
  // gate just rejected.
  if (spec_.has_supervisor && !verify_refused_) {
    auto mahal = std::make_unique<supervise::MahalanobisSupervisor>();
    mahal_ = mahal.get();
    supervisor_ = std::move(mahal);
    supervisor_->fit(*model_, calibration);
    // Per-decision feature extraction goes through a tap-capable static
    // engine (planned kernels, buffers preallocated here) instead of
    // Model::forward_trace's per-layer heap tensors. Bitwise identical:
    // the planned engine reproduces the reference activations exactly.
    // Fault policing stays off to match forward_trace, which does not
    // screen activations either.
    dl::StaticEngineConfig sup_cfg;
    sup_cfg.check_numeric_faults = false;
    sup_cfg.kernels = cfg_.kernel_mode;
    // Pin the tapped feature layer: the fusion pass must not fold an
    // epilogue across it, or the pre-activation values the supervisor
    // reads would no longer exist in the arena.
    sup_cfg.pin_tap_layer = mahal_->feature_layer();
    auto sup_eng = std::make_unique<dl::StaticEngine>(*model_, sup_cfg);
    if (sup_eng->can_tap(mahal_->feature_layer())) {
      sup_engine_ = std::move(sup_eng);
      sup_feat_.assign(mahal_->feature_dim(), 0.0f);
      sup_logits_.assign(n_out, 0.0f);
    }
    const auto scores =
        supervise::collect_scores(*supervisor_, *model_, calibration);
    supervisor_->calibrate_threshold(scores, cfg_.supervisor_tpr);
    std::vector<double> log_scores(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i)
      log_scores[i] = std::log1p(std::max(0.0, scores[i]));
    drift_ = std::make_unique<supervise::CusumDetector>(
        supervise::CusumDetector::fit(log_scores, 0.5, 10.0));
    if (obs_) {
      supervisor_->bind_telemetry(obs_.get(), c_sup_rej_);
      obs_->set(g_sup_threshold_, supervisor_->threshold());
    }
  }

  // Inference channel, optionally wrapped in a safety bag.
  if (!verify_refused_) {
    std::unique_ptr<safety::InferenceChannel> inner;
    if (quant_) {
      // Int8 rung of the pattern ladder: bare engine at kSingle, envelope
      // monitor at kMonitored. Campaign faults land in the deployed int8
      // weight store (QuantChannel::inject_fault), not the float twin.
      const safety::MonitorConfig mon{};
      auto qc = std::make_unique<safety::QuantChannel>(
          *folded_, *quant_, cfg_.quant_engine,
          spec_.pattern == PatternKind::kMonitored ? &mon : nullptr);
      qchannel_ = qc.get();
      inner = std::move(qc);
    } else {
      inner =
          make_channel(spec_.pattern, *model_, calibration, cfg_.kernel_mode);
    }
    if (spec_.has_safety_bag) {
      channel_ = std::make_unique<safety::SafetyBagChannel>(
          std::move(inner), supervisor_ ? model_.get() : nullptr,
          supervisor_.get(), fallback_);
    } else {
      channel_ = std::move(inner);
    }
    if (obs_) channel_->bind_telemetry(*obs_);
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
  // Deploy-time plan evidence: the plan summary plus one audit entry per
  // static-analysis pass (dce, fusion, liveness), so the tamper-evident
  // chain records exactly which transformations shaped the deployed
  // program and what each one claims to have saved.
  if (channel_ != nullptr) {
    if (const dl::KernelPlan* fp = channel_->float_kernel_plan();
        fp != nullptr) {
      audit_.append(0, "kernel-plan", "deploy", fp->summary());
      for (const auto& pe : fp->pass_evidence())
        audit_.append(0, "ir-pass", pe.pass, pe.summary());
    }
  }
  if (qchannel_ != nullptr && qchannel_->kernel_plan() != nullptr) {
    audit_.append(0, "quant-plan", "deploy",
                  qchannel_->kernel_plan()->summary());
    for (const auto& pe : qchannel_->kernel_plan()->pass_evidence())
      audit_.append(0, "ir-pass", pe.pass, pe.summary());
  }

  // Resolved-backend record: the mode the deployed plan *actually* runs
  // (post SX_KERNEL_REFERENCE, post CPU probe), not just the requested one
  // — under the escape hatch the two differ, and evidence attributed to
  // the requested mode would misstate what executed. A deployed plan
  // means kWide (the redundant patterns' replicas plan at kAuto whatever
  // was requested); for kWide the probe / SX_KERNEL_ISA decision rides
  // along verbatim, naming the arm that runs.
  {
    dl::KernelMode resolved = dl::resolve_kernel_mode(cfg_.kernel_mode);
    if ((channel_ != nullptr && channel_->float_kernel_plan() != nullptr) ||
        (qchannel_ != nullptr && qchannel_->kernel_plan() != nullptr))
      resolved = dl::KernelMode::kWide;
    kernel_backend_ =
        "requested=" + std::string(dl::kernel_mode_name(cfg_.kernel_mode)) +
        " resolved=" + std::string(dl::kernel_mode_name(resolved));
    if (resolved == dl::KernelMode::kWide) {
      const platform::CpuProbe probe = platform::probe_cpu();
      kernel_backend_ +=
          "; " + platform::wide_isa_audit(
                     probe, platform::select_wide_isa(
                                probe, std::getenv("SX_KERNEL_ISA")));
    }
    audit_.append(0, "kernel-backend", "deploy", kernel_backend_);
  }
}

std::uint64_t CertifiablePipeline::quant_saturation_total() const noexcept {
  std::uint64_t n = 0;
  if (qchannel_ != nullptr) n += qchannel_->saturation_total();
  if (batch_ && batch_->quantized()) n += batch_->saturation_count();
  return n;
}

verify::SaturationCrossCheck
CertifiablePipeline::quant_saturation_cross_check() const {
  if (!quant_ || !verify_ || verify_->quant.empty())
    throw std::logic_error(
        "quant_saturation_cross_check: deploy with backend=kInt8 and a "
        "spec demanding static verification");
  std::vector<std::uint64_t> measured(quant_->layer_count(), 0);
  if (qchannel_ != nullptr) {
    const auto cs = qchannel_->engine().saturation_counts();
    for (std::size_t i = 0; i < cs.size(); ++i) measured[i] += cs[i];
  }
  if (batch_ && batch_->quantized()) batch_->saturation_counts_into(measured);
  return verify::cross_check_saturation(verify_->quant, measured);
}

double CertifiablePipeline::supervisor_score(const tensor::Tensor& input) {
  if (sup_engine_ != nullptr) {
    const Status st = sup_engine_->run_tapped(
        input.view(), sup_logits_, mahal_->feature_layer(), sup_feat_);
    if (ok(st)) return mahal_->score_from_features(sup_feat_);
  }
  return supervisor_->score(*model_, input);
}

void CertifiablePipeline::obs_finish_decision(const Decision& d,
                                              std::uint64_t t0) noexcept {
  if (!obs_) return;
  const std::uint64_t t1 = obs_->now();
  obs_->observe(h_decision_, t1 >= t0 ? t1 - t0 : 0);
  obs_span(obs::Stage::kDecision, d.status, d.degraded, t0, t1);
}

Decision CertifiablePipeline::infer(const tensor::Tensor& input,
                                    std::uint64_t logical_time,
                                    std::uint64_t elapsed) {
  Decision d;
  ++decisions_;
  const std::uint64_t t_dec = obs_ ? obs_->now() : 0;
  obs_count(c_decisions_);

  // 0. Pre-flight gate verdict: a statically refused model never runs.
  if (verify_refused_) {
    ++rejections_;
    obs_count(c_verify_refusals_);
    d.status = Status::kVerificationFailed;
    d.degraded = true;
    d.predicted_class = cfg_.fallback_class;
    d.audit_sequence =
        audit_.append(logical_time, "static-verify", "refuse",
                      "status=" + std::string(to_string(d.status)))
            .sequence;
    obs_span(obs::Stage::kStaticVerify, d.status, true, t_dec, t_dec);
    obs_finish_decision(d, t_dec);
    return d;
  }

  // 1. ODD guard.
  if (odd_) {
    const std::uint64_t t0 = obs_ ? obs_->now() : 0;
    const Status st = odd_->check(input.view());
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_->observe(h_odd_, t1 >= t0 ? t1 - t0 : 0);
      obs_span(obs::Stage::kOddGuard, st, !ok(st), t0, t1);
    }
    if (!ok(st)) {
      ++rejections_;
      obs_count(c_odd_rej_);
      d.status = st;
      d.degraded = true;
      d.predicted_class = cfg_.fallback_class;
      d.audit_sequence =
          audit_.append(logical_time, "odd-guard", "reject",
                        "status=" + std::string(to_string(st)))
              .sequence;
      obs_finish_decision(d, t_dec);
      return d;
    }
  }

  // 2. Timing budget (watchdog over the measured execution time). The
  // overrun counter increments inside kick() via the watchdog's binding.
  if (spec_.has_timing_budget) {
    watchdog_.arm(logical_time, cfg_.timing_budget);
    const Status wd = watchdog_.kick(logical_time + elapsed);
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_span(obs::Stage::kWatchdog, wd, !ok(wd), t1, t1);
    }
    if (!ok(wd)) {
      ++rejections_;
      d.status = Status::kDeadlineMiss;
      d.degraded = true;
      d.predicted_class = cfg_.fallback_class;
      d.audit_sequence =
          audit_.append(logical_time, "watchdog", "deadline-miss",
                        "elapsed=" + std::to_string(elapsed) + " budget=" +
                            std::to_string(cfg_.timing_budget))
              .sequence;
      obs_finish_decision(d, t_dec);
      return d;
    }
  }

  // 3. Channel inference (includes pattern redundancy and the safety bag).
  const std::uint64_t t_inf = obs_ ? obs_->now() : 0;
  const Status st = channel_->infer(input.view(), out_buf_);
  if (obs_) {
    const std::uint64_t t1 = obs_->now();
    obs_->observe(h_infer_, t1 >= t_inf ? t1 - t_inf : 0);
    if (qchannel_ != nullptr)
      obs_->observe(h_qinfer_, t1 >= t_inf ? t1 - t_inf : 0);
    obs_span(obs::Stage::kInference, st, channel_->last_degraded(), t_inf,
             t1);
  }
  d.status = st;
  if (!ok(st)) {
    ++rejections_;
    obs_count(c_fault_det_);
    d.degraded = true;
    d.predicted_class = cfg_.fallback_class;
    d.audit_sequence =
        audit_.append(logical_time, "channel", "fail-stop",
                      "status=" + std::string(to_string(st)))
            .sequence;
    obs_finish_decision(d, t_dec);
    return d;
  }
  d.degraded = channel_->last_degraded();
  if (d.degraded) {
    ++fallbacks_;
    obs_count(c_fallback_);
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_span(obs::Stage::kFallback, Status::kOk, true, t1, t1);
    }
  }

  // 4. Decision + confidence.
  const auto probs = dl::softmax_copy(out_buf_);
  d.predicted_class = 0;
  for (std::size_t i = 1; i < probs.size(); ++i)
    if (probs[i] > probs[d.predicted_class]) d.predicted_class = i;
  d.confidence = probs[d.predicted_class];
  if (supervisor_) {
    const std::uint64_t t_sup = obs_ ? obs_->now() : 0;
    d.supervisor_score = supervisor_score(input);
    if (drift_) {
      const bool was_alarmed = drift_->alarmed();
      drift_->update(std::log1p(std::max(0.0, d.supervisor_score)));
      if (obs_) obs_->set(g_drift_cusum_, drift_->statistic());
      if (!was_alarmed && drift_->alarmed()) {
        obs_count(c_drift_alarms_);
        audit_.append(logical_time, "drift-detector", "alarm",
                      "cusum=" + std::to_string(drift_->statistic()));
      }
    }
    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_->observe(h_sup_, t1 >= t_sup ? t1 - t_sup : 0);
      obs_span(obs::Stage::kSupervisor, Status::kOk, false, t_sup, t1);
    }
  }

  std::ostringstream payload;
  payload << "class=" << d.predicted_class << " conf=" << d.confidence
          << " degraded=" << (d.degraded ? 1 : 0)
          << " sup=" << d.supervisor_score;
  d.audit_sequence =
      audit_.append(logical_time, "channel", "decision", payload.str())
          .sequence;
  obs_finish_decision(d, t_dec);
  return d;
}

std::vector<Decision> CertifiablePipeline::infer_batch(
    const std::vector<tensor::Tensor>& inputs, std::uint64_t logical_time) {
  if (!batch_)
    throw std::logic_error(
        "CertifiablePipeline::infer_batch: deploy with cfg.batch_workers > "
        "0 to enable the batch path");
  std::vector<Decision> decisions(inputs.size());
  if (inputs.empty()) return decisions;

  if (verify_refused_) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Decision& d = decisions[i];
      ++decisions_;
      ++rejections_;
      obs_count(c_decisions_);
      obs_count(c_verify_refusals_);
      d.status = Status::kVerificationFailed;
      d.degraded = true;
      d.predicted_class = cfg_.fallback_class;
      d.audit_sequence =
          audit_.append(logical_time, "static-verify", "refuse",
                        "batch_index=" + std::to_string(i) + " status=" +
                            std::string(to_string(d.status)))
              .sequence;
      if (obs_) {
        const std::uint64_t t = obs_->now();
        obs_span(obs::Stage::kStaticVerify, d.status, true, t, t);
        obs_finish_decision(d, t);
      }
    }
    return decisions;
  }

  const std::size_t in_size = model_->input_shape().size();
  const std::size_t n_out = model_->output_shape().size();

  // Stage the batch contiguously and take ODD verdicts up front, so the
  // evidence trail preserves the single-item ordering (guard first). Guard
  // checks run serially in batch-index order, so their histogram
  // observations are schedule-free; span timestamps are staged per item
  // and recorded in the decision loop under the decision's ordinal.
  std::vector<float> staged(inputs.size() * in_size);
  std::vector<float> logits(inputs.size() * n_out);
  std::vector<Status> engine_status(inputs.size(), Status::kOk);
  std::vector<Status> guard_status(inputs.size(), Status::kOk);
  std::vector<std::uint64_t> guard_t0(inputs.size(), 0);
  std::vector<std::uint64_t> guard_t1(inputs.size(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].shape() != model_->input_shape())
      throw std::invalid_argument(
          "CertifiablePipeline::infer_batch: input shape mismatch");
    if (odd_) {
      guard_t0[i] = obs_ ? obs_->now() : 0;
      guard_status[i] = odd_->check(inputs[i].view());
      if (obs_) {
        guard_t1[i] = obs_->now();
        obs_->observe(h_odd_,
                      guard_t1[i] >= guard_t0[i] ? guard_t1[i] - guard_t0[i]
                                                 : 0);
      }
    }
    const auto src = inputs[i].data();
    std::copy(src.begin(), src.end(), staged.begin() + i * in_size);
  }

  // Parallel dispatch over the static pool, chunked to the pre-planned
  // batch capacity. Every item (even a guard-rejected one) goes through
  // the engine so per-worker counters depend only on the batch size.
  // Per-item inference time is measured inside the workers into the
  // batch-indexed `item_elapsed` array whenever the watchdog or telemetry
  // consumes it — both consume it serially, in batch-index order.
  const bool want_elapsed = obs_ != nullptr || spec_.has_timing_budget;
  std::vector<std::uint64_t> item_elapsed(
      want_elapsed ? inputs.size() : std::size_t{0}, 0);
  for (std::size_t base = 0; base < inputs.size();
       base += batch_->max_batch()) {
    const std::size_t n =
        std::min(batch_->max_batch(), inputs.size() - base);
    const Status st = batch_->run(
        std::span<const float>(staged).subspan(base * in_size, n * in_size),
        std::span<float>(logits).subspan(base * n_out, n * n_out),
        std::span<Status>(engine_status).subspan(base, n),
        want_elapsed ? std::span<std::uint64_t>(item_elapsed).subspan(base, n)
                     : std::span<std::uint64_t>{});
    if (!ok(st))
      throw std::logic_error("CertifiablePipeline::infer_batch: dispatch " +
                             std::string(to_string(st)));
  }

  // Quantized pool: push the clips this dispatch added, so the telemetry
  // counter mirrors the pool's deterministic total.
  if (obs_ && batch_->quantized()) {
    const std::uint64_t total = batch_->saturation_count();
    if (total > reported_batch_sats_) {
      obs_->add(c_quant_sats_, total - reported_batch_sats_);
      reported_batch_sats_ = total;
    }
  }

  // Per-item decision, supervision, drift tracking and audit, serially in
  // batch-index order — the audit chain is identical for every worker
  // count because nothing here depends on the parallel schedule.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Decision& d = decisions[i];
    ++decisions_;
    const std::uint64_t t_dec = obs_ ? obs_->now() : 0;
    obs_count(c_decisions_);
    if (odd_) {
      obs_span(obs::Stage::kOddGuard, guard_status[i], !ok(guard_status[i]),
               guard_t0[i], guard_t1[i]);
    }

    if (odd_ && !ok(guard_status[i])) {
      ++rejections_;
      obs_count(c_odd_rej_);
      d.status = guard_status[i];
      d.degraded = true;
      d.predicted_class = cfg_.fallback_class;
      d.audit_sequence =
          audit_.append(logical_time, "odd-guard", "reject",
                        "batch_index=" + std::to_string(i) + " status=" +
                            std::string(to_string(d.status)))
              .sequence;
      obs_finish_decision(d, t_dec);
      continue;
    }

    // Timing budget: watchdog parity with the single-item path. The batch
    // path feeds the watchdog the *measured* per-item inference time (in
    // telemetry clock units), checked serially in batch-index order so the
    // overrun counter and audit trail stay schedule-free. The overrun
    // counter increments inside kick() via the watchdog's binding.
    if (spec_.has_timing_budget) {
      watchdog_.arm(logical_time, cfg_.timing_budget);
      const Status wd = watchdog_.kick(logical_time + item_elapsed[i]);
      if (obs_) {
        const std::uint64_t t1 = obs_->now();
        obs_span(obs::Stage::kWatchdog, wd, !ok(wd), t1, t1);
      }
      if (!ok(wd)) {
        ++rejections_;
        d.status = Status::kDeadlineMiss;
        d.degraded = true;
        d.predicted_class = cfg_.fallback_class;
        d.audit_sequence =
            audit_.append(logical_time, "watchdog", "deadline-miss",
                          "batch_index=" + std::to_string(i) + " elapsed=" +
                              std::to_string(item_elapsed[i]) + " budget=" +
                              std::to_string(cfg_.timing_budget))
                .sequence;
        obs_finish_decision(d, t_dec);
        continue;
      }
    }

    if (obs_) {
      const std::uint64_t t1 = obs_->now();
      obs_->observe(h_infer_, item_elapsed[i]);
      if (batch_->quantized()) obs_->observe(h_qinfer_, item_elapsed[i]);
      obs_span(obs::Stage::kInference, engine_status[i],
               !ok(engine_status[i]), t1, t1 + item_elapsed[i]);
    }

    if (!ok(engine_status[i])) {
      ++rejections_;
      obs_count(c_fault_det_);
      d.status = engine_status[i];
      d.degraded = true;
      d.predicted_class = cfg_.fallback_class;
      d.audit_sequence =
          audit_.append(logical_time, "batch-engine", "fail-stop",
                        "batch_index=" + std::to_string(i) + " status=" +
                            std::string(to_string(d.status)))
              .sequence;
      obs_finish_decision(d, t_dec);
      continue;
    }

    const std::span<const float> item_logits(logits.data() + i * n_out,
                                             n_out);
    const auto probs = dl::softmax_copy(item_logits);
    d.status = Status::kOk;
    d.predicted_class = 0;
    for (std::size_t k = 1; k < probs.size(); ++k)
      if (probs[k] > probs[d.predicted_class]) d.predicted_class = k;
    d.confidence = probs[d.predicted_class];
    if (supervisor_) {
      const std::uint64_t t_sup = obs_ ? obs_->now() : 0;
      d.supervisor_score = supervisor_score(inputs[i]);
      if (drift_) {
        const bool was_alarmed = drift_->alarmed();
        drift_->update(std::log1p(std::max(0.0, d.supervisor_score)));
        if (obs_) obs_->set(g_drift_cusum_, drift_->statistic());
        if (!was_alarmed && drift_->alarmed()) {
          obs_count(c_drift_alarms_);
          audit_.append(logical_time, "drift-detector", "alarm",
                        "cusum=" + std::to_string(drift_->statistic()));
        }
      }
      if (obs_) {
        const std::uint64_t t1 = obs_->now();
        obs_->observe(h_sup_, t1 >= t_sup ? t1 - t_sup : 0);
        obs_span(obs::Stage::kSupervisor, Status::kOk, false, t_sup, t1);
      }
    }

    std::ostringstream payload;
    payload << "batch_index=" << i << " class=" << d.predicted_class
            << " conf=" << d.confidence << " sup=" << d.supervisor_score;
    d.audit_sequence =
        audit_.append(logical_time, "batch-engine", "decision",
                      payload.str())
            .sequence;
    obs_finish_decision(d, t_dec);
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
                        std::to_string(supervisor_->threshold()));
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
