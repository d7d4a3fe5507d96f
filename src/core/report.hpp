// Certification report generator: bundles every evidence artifact the
// framework produces into one assessor-facing text document.
//
// The report is the deliverable of "qualify and certify DL-based software
// products under bounded effort/cost": model provenance, admissibility at
// the claimed criticality, the GSN safety case, requirement traceability,
// runtime statistics, and any analysis evidence (fault campaigns, MBPTA,
// robustness certificates) attached by the caller.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "trace/requirements.hpp"
#include "verify/range.hpp"

namespace sx::dl {
class BatchRunner;
class KernelPlan;
}

namespace sx::core {

/// One externally produced piece of evidence (a campaign result, an MBPTA
/// report, a robustness certificate...).
struct EvidenceItem {
  std::string title;
  std::string body;  ///< preformatted text
};

struct CertificationReport {
  std::string text;
  bool complete = false;  ///< safety case complete AND requirements covered
};

/// Renders the full report for a deployed pipeline.
/// `requirements` may be null (section omitted).
CertificationReport make_certification_report(
    const CertifiablePipeline& pipeline,
    const trace::RequirementRegistry* requirements,
    const std::vector<EvidenceItem>& evidence);

/// Evidence for the deterministic batch pool: aggregate and per-worker
/// counters (batches, items, busy time) plus the static partition
/// argument. Attach to make_certification_report's evidence list.
EvidenceItem make_batch_runner_evidence(const dl::BatchRunner& runner);

/// Evidence for a deploy-time kernel plan: resolved mode, per-layer step
/// list (wide-panel Dense, direct Conv2d, fused epilogues, reference
/// fallbacks), the deploy-time panel footprint and the arena demand —
/// the "all layout decisions made before operation" argument. Attach to
/// make_certification_report's evidence list.
EvidenceItem make_kernel_plan_evidence(const dl::KernelPlan& plan);

/// Evidence for the int8 deployment (pillar 3): quantization granularity
/// and footprint, the deploy-time quantized kernel plan, the independent
/// byte-arena re-check, runtime requantization-clip counters, and — when
/// the spec demanded static verification — the cross-check of the static
/// saturation-margin verdicts against the measured counters. Throws
/// std::logic_error unless pipeline.backend() == BackendKind::kInt8.
EvidenceItem make_quant_backend_evidence(const CertifiablePipeline& pipeline);

/// Evidence for the static verification pass: verdict, arena re-check and
/// per-layer output intervals (plus int8 saturation margins when present).
/// Attach to make_certification_report's evidence list.
EvidenceItem make_static_verification_evidence(
    const verify::VerificationEvidence& evidence);

/// Evidence for the deploy-time IR pass pipeline: per-pass structured
/// audit facts (dce, fusion legality, liveness arena planning) of the
/// deployed float and/or int8 kernel plans, the arena reuse achieved
/// against the naive ping-pong demand, and — when static verification
/// ran — the independent re-verification verdict of every pass. The
/// machine-readable per-pass lines sit between `# BEGIN SX_IR_PASSES` /
/// `# END SX_IR_PASSES` markers so tools/sxmetrics --ir can recover them
/// from a serialized report. Attach to make_certification_report's
/// evidence list.
EvidenceItem make_ir_evidence(const CertifiablePipeline& pipeline);

/// Evidence for the resolved kernel backend: the requested vs. deployed
/// kernel mode (post resolve_kernel_mode, so SX_KERNEL_REFERENCE cannot
/// misattribute evidence) plus — for kWide — the deploy-time CPU-probe /
/// SX_KERNEL_ISA selection audit and per-plan ISA lines. The machine-
/// readable record sits between `# BEGIN SX_KERNEL_BACKEND` /
/// `# END SX_KERNEL_BACKEND` markers so tools/sxmetrics --kernel can
/// recover it from a serialized report. Attach to
/// make_certification_report's evidence list.
EvidenceItem make_kernel_backend_evidence(const CertifiablePipeline& pipeline);

/// Evidence wrapping a scenario-sweep report (see scenario/scenario.hpp):
/// a human-readable summary followed by the machine-checkable JSON between
/// `# BEGIN SX_SCENARIO_JSON` / `# END SX_SCENARIO_JSON` markers, so
/// tools/sxmetrics --scenario can recover the cell matrix from a serialized
/// certification report. Takes the pre-rendered strings (not the report
/// struct) to keep sx_core free of a dependency on sx_scenario.
EvidenceItem make_scenario_evidence(std::string_view summary,
                                    std::string_view scenario_json);

/// Evidence wrapping a merged fleet campaign (see fleet/fleet.hpp): a
/// human-readable summary followed by the machine-readable bound/root
/// lines between `# BEGIN SX_FLEET_EVIDENCE` / `# END SX_FLEET_EVIDENCE`
/// markers, so tools/sxmetrics --fleet can recover the quantified safety
/// bounds from a serialized certification report. Takes the pre-rendered
/// strings (fleet::summary / fleet::render_fleet_block) to keep sx_core
/// free of a dependency on sx_fleet.
EvidenceItem make_fleet_evidence(std::string_view summary,
                                 std::string_view fleet_block);

/// Evidence wrapping a serving deployment (see serve/server.hpp): a
/// human-readable summary followed by the machine-readable admission /
/// traffic / deadline lines between `# BEGIN SX_SERVING_EVIDENCE` /
/// `# END SX_SERVING_EVIDENCE` markers, so tools/sxmetrics --serving can
/// recover the serving verdict from a serialized certification report.
/// Takes the pre-rendered strings (serve::summary /
/// serve::render_serving_block) to keep sx_core free of a dependency on
/// sx_serve.
EvidenceItem make_serving_evidence(std::string_view summary,
                                   std::string_view serving_block);

/// Telemetry snapshot of a deployed pipeline: the Prometheus-style metric
/// exposition (between `# BEGIN SX_METRICS` / `# END SX_METRICS` markers,
/// recoverable offline by tools/sxmetrics) and the flight-recorder stage
/// trail (between `# BEGIN SX_FLIGHT_TRAIL` / `# END SX_FLIGHT_TRAIL`).
/// Included automatically as report section 7 when telemetry is enabled.
EvidenceItem make_observability_evidence(const CertifiablePipeline& pipeline);

}  // namespace sx::core
