#include "core/report.hpp"

#include <iomanip>
#include <span>
#include <sstream>

#include "dl/batch.hpp"
#include "util/hash.hpp"

namespace sx::core {

CertificationReport make_certification_report(
    const CertifiablePipeline& pipeline,
    const trace::RequirementRegistry* requirements,
    const std::vector<EvidenceItem>& evidence) {
  std::ostringstream os;
  os << "================================================================\n"
     << "SAFEXPLAIN CERTIFICATION REPORT\n"
     << "================================================================\n\n";

  os << "1. DEPLOYED COMPONENT\n"
     << pipeline.model_card().to_text() << "\n";

  os << "2. CLAIMED CRITICALITY AND CONFIGURATION\n"
     << "  criticality: " << trace::to_string(pipeline.criticality()) << "\n"
     << "  pattern: " << to_string(pipeline.spec().pattern) << "\n"
     << "  supervisor: " << (pipeline.spec().has_supervisor ? "yes" : "no")
     << "\n"
     << "  ODD guard: " << (pipeline.spec().has_odd_guard ? "yes" : "no")
     << "\n"
     << "  safety bag: " << (pipeline.spec().has_safety_bag ? "yes" : "no")
     << "\n"
     << "  timing budget: "
     << (pipeline.spec().has_timing_budget ? "yes" : "no") << "\n"
     << "  explanations: "
     << (pipeline.spec().has_explanations ? "yes" : "no") << "\n";
  const AdmissibilityVerdict verdict =
      check_admissible(pipeline.spec(), pipeline.criticality());
  os << "  admissibility: " << (verdict.admissible ? "ADMISSIBLE" : "NOT "
                                                                     "ADMISSIBLE")
     << "\n\n";

  os << "3. OPERATIONAL EVIDENCE\n"
     << "  decisions: " << pipeline.decisions() << "\n"
     << "  rejections (fail-stop/guard): " << pipeline.rejections() << "\n"
     << "  fallback activations: " << pipeline.fallbacks() << "\n"
     << "  audit chain: "
     << (ok(pipeline.audit().verify()) ? "VERIFIES" : "BROKEN") << " ("
     << pipeline.audit().size() << " entries, head "
     << util::to_hex(pipeline.audit().head()).substr(0, 16) << "...)\n"
     << "  model integrity: "
     << (ok(pipeline.verify_integrity()) ? "PASS" : "FAIL") << "\n";
  if (const auto* sv = pipeline.static_verification()) {
    os << "  static verification: "
       << (sv->verdict.passed() ? "PASS" : "FAIL (model refused pre-flight)")
       << "\n";
  }
  os << "\n";

  const trace::SafetyCase sc = pipeline.build_safety_case();
  os << "4. SAFETY CASE (GSN)\n" << sc.to_text();
  const auto gaps = sc.undischarged_goals();
  if (gaps.empty()) {
    os << "  status: COMPLETE (every leaf goal has evidence)\n\n";
  } else {
    os << "  status: INCOMPLETE, undischarged goals:";
    for (const auto& g : gaps) os << " " << g;
    os << "\n\n";
  }

  bool requirements_ok = true;
  if (requirements != nullptr) {
    os << "5. REQUIREMENT TRACEABILITY\n" << requirements->matrix();
    const double cov = requirements->coverage("verifies");
    requirements_ok = cov == 1.0;
    os << "  verification coverage: " << cov * 100.0 << "%\n\n";
  }

  if (!evidence.empty()) {
    os << "6. ATTACHED ANALYSES\n";
    for (const auto& e : evidence) {
      os << "--- " << e.title << " ---\n" << e.body;
      if (e.body.empty() || e.body.back() != '\n') os << '\n';
    }
    os << "\n";
  }

  if (pipeline.telemetry() != nullptr) {
    os << "7. OBSERVABILITY\n"
       << make_observability_evidence(pipeline).body << "\n";
  }

  CertificationReport report;
  report.complete =
      verdict.admissible && gaps.empty() && requirements_ok &&
      ok(pipeline.audit().verify()) && ok(pipeline.verify_integrity());
  os << "OVERALL: " << (report.complete ? "EVIDENCE COMPLETE"
                                        : "EVIDENCE GAPS REMAIN")
     << "\n";
  report.text = os.str();
  return report;
}

EvidenceItem make_batch_runner_evidence(const dl::BatchRunner& runner) {
  std::ostringstream os;
  os << "workers: " << runner.workers()
     << " (static pool spawned at configuration time; the caller runs "
        "worker 0)\n"
     << "partition: static round-robin (item i -> worker i % "
     << runner.workers() << ") => outputs and counters are\n"
     << "  schedule-independent; each worker runs its own deployed channel\n"
     << "batches dispatched: " << runner.batch_count() << "\n"
     << "items: " << runner.item_count() << "\n"
     << "wall time: " << std::fixed << std::setprecision(1)
     << runner.total_wall_micros() << " us, worker busy time: "
     << runner.total_busy_micros() << " us\n";
  for (std::size_t w = 0; w < runner.workers(); ++w) {
    const dl::BatchWorkerStats s = runner.worker_stats(w);
    os << "  worker " << w << ": batches=" << s.batches
       << " items=" << s.items << " busy=" << std::setprecision(1)
       << s.busy_micros << " us\n";
  }
  return EvidenceItem{"Deterministic batch execution", os.str()};
}

EvidenceItem make_quant_backend_evidence(const CertifiablePipeline& pipeline) {
  if (pipeline.backend() != BackendKind::kInt8)
    throw std::logic_error(
        "make_quant_backend_evidence: pipeline deployed with float backend");
  const dl::QuantizedModel* qm = pipeline.quantized_model();
  const safety::InferenceChannel* ch = pipeline.channel();
  if (qm == nullptr)
    return EvidenceItem{"Int8 backend (quantized kernel plans)",
                        "backend: int8, not quantized: the static gate "
                        "refused the model before calibration\n"};
  std::ostringstream os;
  os << "backend: int8 (BatchNorm folded, quantized against the "
        "calibration set at deploy time)\n"
     << "granularity: "
     << (qm->granularity() == dl::WeightGranularity::kPerChannel
             ? "per-channel weight scales"
             : "per-tensor weight scales")
     << ", weight footprint: " << qm->weight_bytes() << " bytes\n";
  if (ch != nullptr) {
    if (const dl::PlanEvidence* plan = ch->plan(); plan != nullptr) {
      os << "kernel plan: " << plan->summary() << "\n"
         << "  Dense panels are packed at deploy time, convs read the "
            "live weights; the int8 hot\n"
         << "  path is noexcept, allocation-free, and forms exact int32 "
            "sums under each\n"
         << "  step's no-overflow bound => planned and reference runs are "
            "bitwise identical\n";
    } else {
      os << "kernel plan: reference loops (SX_KERNEL_REFERENCE or explicit "
            "kReference)\n";
    }
    const dl::Engine& engine = ch->replicas().front().engine();
    os << "channel arena: " << engine.arena_high_water_mark() << "/"
       << engine.arena_capacity() << " bytes, pattern: int8-"
       << to_string(pipeline.spec().pattern) << "\n";
  }
  os << "requantization clips observed: " << pipeline.quant_saturation_total()
     << " (channel + batch pool, deterministic in the served inputs)\n";
  if (const auto* sv = pipeline.static_verification(); sv != nullptr) {
    for (const verify::EngineCheck& e : sv->engines)
      if (e.elem == dl::ElemType::kInt8)
        os << "byte-arena re-check (engine " << e.channel << "." << e.replica
           << "): required=" << e.required << " planned=" << e.planned
           << " => " << (e.arena_consistent() ? "CONSISTENT" : "MISMATCH")
           << "\n";
    if (!sv->quant.empty()) {
      const verify::SaturationCrossCheck xc =
          pipeline.quant_saturation_cross_check();
      os << "saturation cross-check: " << xc.layers_checked << " layers ("
         << xc.statically_safe << " statically safe, " << xc.flagged
         << " flagged), measured clips: " << xc.measured_total
         << ", violations: " << xc.violations << " => "
         << (xc.consistent ? "CONSISTENT" : "VIOLATED") << "\n"
         << "  (a statically-safe layer must never clip at runtime; a "
            "flagged layer that\n"
         << "  never clipped is expected conservatism)\n";
    }
  }
  return EvidenceItem{"Int8 backend (quantized kernel plans)", os.str()};
}

EvidenceItem make_kernel_plan_evidence(const dl::KernelPlan& plan) {
  std::ostringstream os;
  os << plan.summary() << "\n"
     << "layout decisions (Dense weight panels, arena slots, kernel "
        "arms) are made\n"
     << "  once at deploy time; the inference path performs zero heap "
        "allocations and\n"
     << "  executes each output's accumulation in the reference kernel "
        "order, so planned\n"
     << "  and reference engines are bitwise identical "
        "(tensor_kernels_test, E14)\n"
     << "escape hatch: SX_KERNEL_REFERENCE forces the reference loops for "
        "differential audit\n";
  return EvidenceItem{"Deploy-time kernel plan", os.str()};
}

EvidenceItem make_static_verification_evidence(
    const verify::VerificationEvidence& evidence) {
  return EvidenceItem{"Static verification (abstract interpretation)",
                      evidence.to_text()};
}

namespace {

void ir_plan_lines(std::ostringstream& os, const dl::PlanEvidence& plan) {
  const sx::ir::ArenaLayout& layout = plan.layout();
  const char* name = dl::elem_name(plan.elem());
  const double pct =
      layout.naive_elems > 0
          ? 100.0 * static_cast<double>(layout.naive_elems -
                                        layout.total_elems) /
                static_cast<double>(layout.naive_elems)
          : 0.0;
  os << name << " plan arena: " << layout.total_elems << " "
     << (plan.elem() == dl::ElemType::kInt8 ? "bytes" : "floats")
     << " planned vs " << layout.naive_elems
     << " naive ping-pong => " << std::fixed << std::setprecision(1) << pct
     << "% reuse from liveness coloring\n";
  for (const auto& pe : plan.pass_evidence())
    os << "  " << name << " " << pe.summary() << "\n";
}

void ir_marker_lines(std::ostringstream& os, const dl::PlanEvidence& plan) {
  const char* name = dl::elem_name(plan.elem());
  for (const auto& pe : plan.pass_evidence())
    os << "plan=" << name << " " << pe.summary() << "\n";
  os << "plan=" << name << " arena_total=" << plan.layout().total_elems
     << " arena_naive=" << plan.layout().naive_elems << "\n";
}

}  // namespace

EvidenceItem make_ir_evidence(const CertifiablePipeline& pipeline) {
  std::ostringstream os;
  const dl::PlanEvidence* plan =
      pipeline.channel() != nullptr ? pipeline.channel()->plan() : nullptr;
  if (plan == nullptr) {
    os << "no IR-backed kernel plan deployed (reference loops via "
          "SX_KERNEL_REFERENCE / explicit kReference, or refuse-only "
          "mode)\n";
    return EvidenceItem{"IR pass pipeline (static-analysis evidence)",
                        os.str()};
  }
  os << "every transformation below ran at deploy time on the lowered "
        "program IR; each\n"
     << "  pass records machine-checkable facts and the verify gate "
        "re-derives all of\n"
     << "  them independently from the model layers before the plan may "
        "serve traffic\n";
  ir_plan_lines(os, *plan);
  if (const auto* sv = pipeline.static_verification(); sv != nullptr) {
    for (const verify::EngineCheck& e : sv->engines) {
      if (!e.ir.checked) continue;
      const bool int8 = e.elem == dl::ElemType::kInt8;
      os << "engine " << e.channel << "." << e.replica << " "
         << dl::elem_name(e.elem) << " re-verification: "
         << (e.ir.passed() ? "SOUND" : "UNSOUND")
         << " (rederived=" << e.ir.rederived_elems
         << " planned=" << e.ir.planned_elems
         << (int8 ? " bytes)\n" : " elems)\n");
    }
  }
  // The marker pair lets tools/sxmetrics --ir recover the per-pass facts
  // from a serialized report without parsing the surrounding prose.
  os << "# BEGIN SX_IR_PASSES\n";
  ir_marker_lines(os, *plan);
  os << "# END SX_IR_PASSES\n";
  return EvidenceItem{"IR pass pipeline (static-analysis evidence)",
                      os.str()};
}

EvidenceItem make_kernel_backend_evidence(const CertifiablePipeline& pipeline) {
  std::ostringstream os;
  os << "kernel backend selection is fixed once at deploy time (requested "
        "mode ->\n"
     << "  resolve_kernel_mode -> CPU probe + SX_KERNEL_ISA override); the "
        "serving\n"
     << "  hot path dispatches through pointers bound at plan construction "
        "and is\n"
     << "  branch-free. The resolved record below is what actually ran — "
        "under the\n"
     << "  SX_KERNEL_REFERENCE escape hatch it differs from the requested "
        "mode.\n";
  const dl::PlanEvidence* plan =
      pipeline.channel() != nullptr ? pipeline.channel()->plan() : nullptr;
  // The marker pair lets tools/sxmetrics --kernel recover the resolved
  // backend from a serialized report without parsing the prose.
  os << "# BEGIN SX_KERNEL_BACKEND\n";
  os << pipeline.kernel_backend() << '\n';
  if (plan != nullptr) {
    const platform::WideIsaSelection& sel = plan->isa_selection();
    os << "plan=" << dl::elem_name(plan->elem())
       << " mode=wide isa=" << tensor::kernels::wide_isa_name(sel.isa);
    if (plan->elem() == dl::ElemType::kInt8)
      os << " int8=" << tensor::qkernels::qarm_name(sel.int8);
    os << '\n';
  }
  os << "# END SX_KERNEL_BACKEND\n";
  return EvidenceItem{"Resolved kernel backend (CPU-probe selection)",
                      os.str()};
}

EvidenceItem make_scenario_evidence(std::string_view summary,
                                    std::string_view scenario_json) {
  std::ostringstream os;
  os << summary;
  if (!summary.empty() && summary.back() != '\n') os << '\n';
  // The marker pair lets tools/sxmetrics --scenario recover the cell
  // matrix from a serialized report without parsing the surrounding prose.
  os << "# BEGIN SX_SCENARIO_JSON\n" << scenario_json;
  if (!scenario_json.empty() && scenario_json.back() != '\n') os << '\n';
  os << "# END SX_SCENARIO_JSON\n";
  return EvidenceItem{"Scenario sweep (cell evidence matrix)", os.str()};
}

EvidenceItem make_fleet_evidence(std::string_view summary,
                                 std::string_view fleet_block) {
  std::ostringstream os;
  os << summary;
  if (!summary.empty() && summary.back() != '\n') os << '\n';
  // The marker pair lets tools/sxmetrics --fleet recover the quantified
  // bounds from a serialized report without parsing the surrounding prose.
  os << "# BEGIN SX_FLEET_EVIDENCE\n" << fleet_block;
  if (!fleet_block.empty() && fleet_block.back() != '\n') os << '\n';
  os << "# END SX_FLEET_EVIDENCE\n";
  return EvidenceItem{"Fleet evidence (sharded campaign, quantified bounds)",
                      os.str()};
}

EvidenceItem make_serving_evidence(std::string_view summary,
                                   std::string_view serving_block) {
  std::ostringstream os;
  os << summary;
  if (!summary.empty() && summary.back() != '\n') os << '\n';
  // The marker pair lets tools/sxmetrics --serving recover the admission /
  // traffic / deadline verdict from a serialized report without parsing
  // the surrounding prose.
  os << "# BEGIN SX_SERVING_EVIDENCE\n" << serving_block;
  if (!serving_block.empty() && serving_block.back() != '\n') os << '\n';
  os << "# END SX_SERVING_EVIDENCE\n";
  return EvidenceItem{"Serving front-end (mixed-criticality admission)",
                      os.str()};
}

EvidenceItem make_observability_evidence(const CertifiablePipeline& pipeline) {
  std::ostringstream os;
  const obs::Registry* reg = pipeline.telemetry();
  const obs::FlightRecorder* fdr = pipeline.flight_recorder();
  if (reg == nullptr) {
    os << "telemetry disabled at deployment\n";
    return EvidenceItem{"Observability (telemetry snapshot)", os.str()};
  }
  os << "static metrics registry: " << reg->counters() << " counters, "
     << reg->gauges() << " gauges, " << reg->histograms()
     << " histograms; all slots allocated at deploy time ("
     << reg->dropped_registrations() << " registrations dropped)\n"
     << "merged counter values are sums over static shard order => bitwise\n"
     << "  identical for every batch_workers setting\n";
  // The marker pair lets tools/sxmetrics recover the exposition from a
  // serialized report without parsing the surrounding prose.
  os << "# BEGIN SX_METRICS\n" << expose_text(*reg) << "# END SX_METRICS\n";
  if (fdr != nullptr) {
    os << "# BEGIN SX_FLIGHT_TRAIL\n"
       << fdr->to_text() << "# END SX_FLIGHT_TRAIL\n";
  }
  return EvidenceItem{"Observability (telemetry snapshot)", os.str()};
}

}  // namespace sx::core
