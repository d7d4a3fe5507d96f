// Deploy-time CPU feature probe and the audited kWide ISA selection
// (pillar 4: the platform decides *once*, before the mission, which
// microkernel family runs — and the decision itself becomes evidence).
//
// The probe asks the hardware (__builtin_cpu_supports on x86; everything
// false elsewhere), the selection folds in the SX_KERNEL_ISA operator
// override, and the result is a plain value the deploy path records in
// the audit log and the SX_KERNEL_BACKEND report block. The hot path
// never sees any of this: dl::KernelPlan/QuantKernelPlan resolve the
// selection to per-step function pointers at construction.
//
// Refusal semantics: an override naming an ISA the probe cannot confirm
// (or an unknown token) is *refused* — the selection falls back to the
// portable scalar twin, never to undefined behavior, and the refusal is
// visible in the selection so the audit trail shows both what was asked
// and what actually ran. Because every kWide float variant computes the
// same fixed accumulation tree, and every int8 arm the same exact int32
// sums, a refusal changes timing only, never output.
#pragma once

#include <string>

#include "tensor/kernels.hpp"
#include "tensor/qkernels.hpp"

namespace sx::platform {

/// What the hardware attests to. Only the features the wide kernels can
/// use; extend alongside new kernel families.
struct CpuProbe {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;     ///< 512-bit byte/word ops (vpmovsxbw, vpmaddwd)
  bool avx512vl = false;     ///< EVEX ops on 128/256-bit vectors
  bool avx512_vnni = false;  ///< vpdpbusd (512-bit; 256-bit with VL)
  bool avx_vnni = false;     ///< VEX-encoded vpdpbusd (audited only)
};

/// Runtime probe: __builtin_cpu_supports on x86, all-false on other
/// architectures (where the wide entry points are the scalar twin anyway).
CpuProbe probe_cpu() noexcept;

/// The deploy-time decision, with enough context to audit it.
struct WideIsaSelection {
  tensor::kernels::WideIsa isa = tensor::kernels::WideIsa::kScalar;
  /// The int8 arm that runs beside `isa`.
  tensor::qkernels::QArm int8 = tensor::qkernels::QArm::kScalar;
  bool env_present = false;  ///< SX_KERNEL_ISA was set and non-empty
  bool refused = false;      ///< override named an unavailable/unknown ISA
  char requested[16] = {};   ///< the override token (truncated), for audit
};

/// Pure selection core — a function of the probe and the override string
/// (nullptr/empty == no override), so tests can exercise every
/// probe x env cell without faking CPUID:
///   - no override: the widest probed ISA (avx512f > avx2 > scalar);
///   - override "scalar" / "avx2" / "avx512": honored iff the probe
///     confirms the feature (scalar always does);
///   - override "avx512-novnni": the avx512 arm with VNNI refused, so the
///     int8 kernels run vpmaddwd; honored iff the probe confirms avx512f;
///   - anything else, or an unconfirmed feature: refused -> kScalar.
/// The int8 arm follows the ISA: scalar -> scalar, avx2 -> avx2, avx512
/// -> avx512vnni when avx512_vnni, avx512bw and avx512vl are confirmed
/// and VNNI is not refused, else avx512bw when avx512bw and avx512vl are,
/// else avx2. (avx_vnni is probed and audited; no arm uses the VEX form.)
WideIsaSelection select_wide_isa(const CpuProbe& probe,
                                 const char* env) noexcept;

/// Deploy-time entry point: probe_cpu() + getenv("SX_KERNEL_ISA").
WideIsaSelection select_wide_isa() noexcept;

/// One-line audit payload naming the probe facts, the override, and the
/// outcome, e.g.
///   "probe avx2=1 avx512f=1 env=avx512 selected=avx512 refused=0
///    avx512bw=1 avx512vl=1 avx512_vnni=1 avx_vnni=0 int8=avx512vnni"
/// (one line; the int8 facts follow the original fields).
/// Shared by the pipeline audit entry and the SX_KERNEL_BACKEND report
/// block so both name the same decision.
std::string wide_isa_audit(const CpuProbe& probe,
                           const WideIsaSelection& sel);

}  // namespace sx::platform
