// Kernel-mode enumeration, CPU-probe ISA selection, and the audited
// deploy-time backend record for the wide-SIMD (kWide) backend.
//
// Three contracts:
//   1. Mode plumbing — resolve_kernel_mode / kernel_mode_name /
//      all_kernel_modes stay exhaustive and consistent (the scenario
//      matrix and the evidence records key on these strings).
//   2. Selection — platform::select_wide_isa honors SX_KERNEL_ISA only
//      when the probe confirms the feature, refuses unknown/unavailable
//      tokens to the scalar arm (never UB), and the audit line records
//      both what was asked and what ran.
//   3. Identity — the kWide StaticEngine and BatchRunner are bitwise
//      identical to the reference engine for every selectable ISA, and
//      the pipeline's "kernel-backend" audit entry / SX_KERNEL_BACKEND
//      report block name the *resolved* mode, including under the
//      SX_KERNEL_REFERENCE escape hatch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "engine_pool.hpp"
#include "dl/engine.hpp"
#include "dl/plan.hpp"
#include "platform/cpu_probe.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sx::dl {
namespace {

using tensor::kernels::WideIsa;
using tensor::qkernels::QArm;

::testing::AssertionResult BitEqual(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " != " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return ::testing::AssertionFailure() << "element " << i;
  return ::testing::AssertionSuccess();
}

std::vector<float> run_engine(StaticEngine& e, tensor::ConstTensorView in) {
  std::vector<float> out(e.output_shape().size());
  EXPECT_EQ(e.run(in, out), Status::kOk);
  return out;
}

// --------------------------------------------------------- mode plumbing

TEST(WideKernelMode, NameMappingIsExhaustive) {
  EXPECT_STREQ(kernel_mode_name(KernelMode::kAuto), "auto");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kReference), "reference");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kWide), "wide");
}

TEST(WideKernelMode, AllKernelModesEnumeratesEveryConcreteMode) {
  const auto modes = all_kernel_modes();
  // kReference first: the scenario matrix anchors each backend's twin on
  // the first entry of the shared enumeration.
  ASSERT_GE(modes.size(), 2u);
  EXPECT_EQ(modes[0], KernelMode::kReference);
  std::vector<KernelMode> want = {KernelMode::kReference, KernelMode::kWide};
  ASSERT_EQ(modes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(modes[i], want[i]);
  // No kAuto, no duplicates.
  for (std::size_t i = 0; i < modes.size(); ++i) {
    EXPECT_NE(modes[i], KernelMode::kAuto);
    for (std::size_t j = i + 1; j < modes.size(); ++j)
      EXPECT_NE(modes[i], modes[j]);
  }
}

TEST(WideKernelMode, ResolveNeverOverridesExplicitWide) {
  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "1", 1), 0);
  // The escape hatch applies to kAuto only — an explicitly requested mode
  // is a deliberate deployment decision.
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kWide), KernelMode::kWide);
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kAuto), KernelMode::kReference);
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kWide), KernelMode::kWide);
}

// --------------------------------------------------------- ISA selection

TEST(WideIsaSelect, NoOverridePicksWidestProbedIsa) {
  using platform::CpuProbe;
  using platform::select_wide_isa;
  EXPECT_EQ(select_wide_isa(CpuProbe{false, false}, nullptr).isa,
            WideIsa::kScalar);
  EXPECT_EQ(select_wide_isa(CpuProbe{true, false}, nullptr).isa,
            WideIsa::kAvx2);
  EXPECT_EQ(select_wide_isa(CpuProbe{true, true}, nullptr).isa,
            WideIsa::kAvx512);
  // Empty string == unset.
  const auto s = select_wide_isa(CpuProbe{true, true}, "");
  EXPECT_EQ(s.isa, WideIsa::kAvx512);
  EXPECT_FALSE(s.env_present);
  EXPECT_FALSE(s.refused);
  // The int8 arm follows the ISA and the widest confirmed dot product.
  EXPECT_EQ(select_wide_isa(CpuProbe{false, false}, nullptr).int8,
            QArm::kScalar);
  EXPECT_EQ(select_wide_isa(CpuProbe{true, false}, nullptr).int8,
            QArm::kAvx2);
  EXPECT_EQ(select_wide_isa(CpuProbe{true, true}, nullptr).int8,
            QArm::kAvx2);  // avx512f without BW/VL: vpmaddwd stays 256-bit
  EXPECT_EQ(select_wide_isa(CpuProbe{true, true, true, true}, nullptr).int8,
            QArm::kAvx512Bw);
  EXPECT_EQ(
      select_wide_isa(CpuProbe{true, true, true, true, true}, nullptr).int8,
      QArm::kAvx512Vnni);
  // The VNNI arm needs VL (its requantize runs 256-bit); AVX-VNNI alone
  // selects nothing.
  EXPECT_EQ(
      select_wide_isa(CpuProbe{true, true, true, false, true}, nullptr).int8,
      QArm::kAvx2);
  EXPECT_EQ(select_wide_isa(CpuProbe{true, false, false, false, false, true},
                            nullptr)
                .int8,
            QArm::kAvx2);
}

TEST(WideIsaSelect, OverrideHonoredOnlyWhenProbeConfirms) {
  using platform::CpuProbe;
  using platform::select_wide_isa;
  struct Cell {
    CpuProbe probe;
    const char* env;
    WideIsa want;
    bool refused;
    QArm int8 = QArm::kScalar;
  };
  const CpuProbe vnni{true, true, true, true, true, true};
  const CpuProbe bw{true, true, true, true, false, false};
  const Cell cells[] = {
      // scalar is always available, on any probe.
      {{false, false}, "scalar", WideIsa::kScalar, false},
      {{true, true}, "scalar", WideIsa::kScalar, false},
      // narrowing below the widest probed ISA is a legitimate override.
      {{true, true}, "avx2", WideIsa::kAvx2, false, QArm::kAvx2},
      {{true, true}, "avx512", WideIsa::kAvx512, false, QArm::kAvx2},
      {{true, false}, "avx2", WideIsa::kAvx2, false, QArm::kAvx2},
      {vnni, "avx2", WideIsa::kAvx2, false, QArm::kAvx2},
      {vnni, "avx512", WideIsa::kAvx512, false, QArm::kAvx512Vnni},
      {bw, "avx512", WideIsa::kAvx512, false, QArm::kAvx512Bw},
      // avx512-novnni: the float arm stays avx512, the int8 kernels
      // refuse VNNI and run vpmaddwd.
      {vnni, "avx512-novnni", WideIsa::kAvx512, false, QArm::kAvx512Bw},
      {bw, "avx512-novnni", WideIsa::kAvx512, false, QArm::kAvx512Bw},
      {{true, true}, "avx512-novnni", WideIsa::kAvx512, false, QArm::kAvx2},
      {{true, false}, "avx512-novnni", WideIsa::kScalar, true},
      {{false, false}, "avx512-novnni", WideIsa::kScalar, true},
      {vnni, "novnni", WideIsa::kScalar, true},
      // probe-mismatch: requested feature not attested -> refused, scalar.
      {{false, false}, "avx2", WideIsa::kScalar, true},
      {{false, false}, "avx512", WideIsa::kScalar, true},
      {{true, false}, "avx512", WideIsa::kScalar, true},
      // unknown tokens are refused, never guessed.
      {{true, true}, "neon", WideIsa::kScalar, true},
      {{true, true}, "AVX2", WideIsa::kScalar, true},
  };
  for (const Cell& c : cells) {
    const auto s = select_wide_isa(c.probe, c.env);
    EXPECT_EQ(s.isa, c.want) << "env=" << c.env;
    EXPECT_EQ(s.refused, c.refused) << "env=" << c.env;
    EXPECT_EQ(s.int8, c.int8) << "env=" << c.env;
    EXPECT_TRUE(s.env_present) << "env=" << c.env;
    EXPECT_STREQ(s.requested, c.env);
  }
}

TEST(WideIsaSelect, AuditLineNamesProbeOverrideAndOutcome) {
  using platform::CpuProbe;
  const CpuProbe p{true, false};
  EXPECT_EQ(platform::wide_isa_audit(p, platform::select_wide_isa(p, nullptr)),
            "probe avx2=1 avx512f=0 env=(unset) selected=avx2 refused=0"
            " avx512bw=0 avx512vl=0 avx512_vnni=0 avx_vnni=0 int8=avx2");
  EXPECT_EQ(
      platform::wide_isa_audit(p, platform::select_wide_isa(p, "avx512")),
      "probe avx2=1 avx512f=0 env=avx512 selected=scalar refused=1"
      " avx512bw=0 avx512vl=0 avx512_vnni=0 avx_vnni=0 int8=scalar");
  const CpuProbe v{true, true, true, true, true, true};
  EXPECT_EQ(
      platform::wide_isa_audit(v, platform::select_wide_isa(v, "avx512-novnni")),
      "probe avx2=1 avx512f=1 env=avx512-novnni selected=avx512 refused=0"
      " avx512bw=1 avx512vl=1 avx512_vnni=1 avx_vnni=1 int8=avx512bw");
}

// ------------------------------------------------------- engine identity

TEST(WideEngine, BitwiseIdenticalToReferenceUnderIsaOverrides) {
  const auto& ds = sx::testing::road_data();
  const platform::CpuProbe probe = platform::probe_cpu();
  std::vector<const char*> isas = {"scalar"};
  if (probe.avx2) isas.push_back("avx2");
  if (probe.avx512f) isas.push_back("avx512");

  for (const Model* m : {&sx::testing::trained_mlp(),
                         &sx::testing::trained_cnn()}) {
    StaticEngine ref{*m, {.kernels = KernelMode::kReference}};
    for (const char* isa : isas) {
      ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
      StaticEngine wide{*m, {.kernels = KernelMode::kWide}};
      ASSERT_NE(wide.plan(), nullptr);
      EXPECT_EQ(wide.kernel_mode(), KernelMode::kWide);
      EXPECT_FALSE(wide.plan()->isa_selection().refused);
      EXPECT_STREQ(tensor::kernels::wide_isa_name(
                       wide.plan()->isa_selection().isa),
                   isa);
      for (std::size_t i = 0; i < 16; ++i) {
        const auto in = ds.samples[i].input.view();
        EXPECT_TRUE(BitEqual(run_engine(wide, in), run_engine(ref, in)))
            << "isa=" << isa << " sample " << i;
      }
    }
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

TEST(WideEngine, RefusedOverrideFallsBackToScalarAndStaysIdentical) {
  // An operator override naming an ISA this host cannot attest must not
  // abort deployment, must not execute unavailable instructions, and must
  // keep the output bits: the plan records the refusal and runs the
  // scalar arm.
  ASSERT_EQ(setenv("SX_KERNEL_ISA", "not-an-isa", 1), 0);
  const Model& m = sx::testing::trained_mlp();
  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine wide{m, {.kernels = KernelMode::kWide}};
  ASSERT_NE(wide.plan(), nullptr);
  EXPECT_TRUE(wide.plan()->isa_selection().refused);
  EXPECT_EQ(wide.plan()->isa_selection().isa, WideIsa::kScalar);
  EXPECT_NE(wide.plan()->summary().find("override refused"),
            std::string::npos);
  const auto in = sx::testing::road_data().samples[0].input.view();
  EXPECT_TRUE(BitEqual(run_engine(wide, in), run_engine(ref, in)));
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

TEST(WideEngine, PanelSnapshotIsStaleUntilRepack) {
  // kWide packs weight panels at deploy time, while the reference loops
  // read the live weights; SEU campaigns that mutate live weights must
  // call repack() to resync the snapshot.
  Model m = sx::testing::trained_mlp();
  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine wide{m, {.kernels = KernelMode::kWide}};

  const auto in = sx::testing::road_data().samples[2].input.view();
  const auto before = run_engine(ref, in);
  ASSERT_TRUE(BitEqual(run_engine(wide, in), before));

  auto& dense = static_cast<Dense&>(m.layer(1));
  dense.weights()[0] += 0.25f;
  const auto after = run_engine(ref, in);
  ASSERT_FALSE(BitEqual(after, before));

  EXPECT_TRUE(BitEqual(run_engine(wide, in), before));  // stale snapshot
  wide.repack();
  EXPECT_TRUE(BitEqual(run_engine(wide, in), after));  // resynced
}

TEST(WideEngine, ConvWeightFaultReachesPlanWithoutRepack) {
  // The direct conv reads the model's live weights, so an SEU in a conv
  // weight reaches the next planned run with no repack — bit for bit what
  // the reference loops compute on the faulted model.
  Model m = sx::testing::trained_cnn();
  ASSERT_EQ(m.layer(0).kind(), LayerKind::kConv2d);
  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine wide{m, {.kernels = KernelMode::kWide}};

  const auto in = sx::testing::road_data().samples[2].input.view();
  const auto before = run_engine(ref, in);
  ASSERT_TRUE(BitEqual(run_engine(wide, in), before));

  m.layer(0).params()[4] += 0.5f;  // centre tap of channel 0
  const auto after = run_engine(ref, in);
  ASSERT_FALSE(BitEqual(after, before));
  EXPECT_TRUE(BitEqual(run_engine(wide, in), after));  // no repack
}

TEST(WideBatch, WorkerCountsBitwiseIdenticalToReference) {
  const Model& m = sx::testing::trained_cnn();
  const auto& ds = sx::testing::road_data();
  const std::size_t n = 16;
  const std::size_t out_size = m.output_shape().size();

  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  std::vector<float> expected(n * out_size);
  std::vector<float> flat(n * m.input_shape().size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = ds.samples[i].input.data();
    std::copy(src.begin(), src.end(),
              flat.begin() + i * m.input_shape().size());
    ASSERT_EQ(ref.run(ds.samples[i].input.view(),
                      std::span<float>(expected).subspan(i * out_size,
                                                         out_size)),
              Status::kOk);
  }

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    sx::testing::EnginePool pool{m, workers, {.kernels = KernelMode::kWide}};
    ASSERT_NE(pool.engine(0).plan(), nullptr);
    std::vector<float> out(n * out_size, -1.0f);
    std::vector<Status> st(n, Status::kInvalidArgument);
    pool.run(flat, out, st);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(st[i], Status::kOk);
    EXPECT_TRUE(BitEqual(out, expected)) << "wide x " << workers
                                         << " workers";
  }
}

// ------------------------------------------- audited backend record

const trace::AuditEntry* find_entry(const trace::AuditLog& log,
                                    const std::string& actor) {
  for (const auto& e : log.entries())
    if (e.actor == actor) return &e;
  return nullptr;
}

TEST(WideBackendRecord, AuditEntryNamesResolvedModeAndProbe) {
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  cfg.kernel_mode = KernelMode::kWide;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};

  const auto* e = find_entry(p.audit(), "kernel-backend");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, p.kernel_backend());
  EXPECT_NE(e->payload.find("requested=wide resolved=wide"),
            std::string::npos)
      << e->payload;
  EXPECT_NE(e->payload.find("probe avx2="), std::string::npos) << e->payload;
  EXPECT_NE(e->payload.find("selected="), std::string::npos) << e->payload;

  const core::EvidenceItem item = core::make_kernel_backend_evidence(p);
  EXPECT_NE(item.body.find("# BEGIN SX_KERNEL_BACKEND"), std::string::npos);
  EXPECT_NE(item.body.find(p.kernel_backend()), std::string::npos);
  EXPECT_NE(item.body.find("plan=float mode=wide isa="), std::string::npos)
      << item.body;
  EXPECT_NE(item.body.find("# END SX_KERNEL_BACKEND"), std::string::npos);
}

TEST(WideBackendRecord, Int8BackendForwardsKernelModeToQuantChannel) {
  // One knob per pipeline: kernel_mode drives the quantized channel on
  // the int8 backend, so the record names the mode that ran.
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  cfg.backend = core::BackendKind::kInt8;
  cfg.kernel_mode = KernelMode::kWide;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};

  const auto* e = find_entry(p.audit(), "kernel-backend");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->payload.find("requested=wide resolved=wide"),
            std::string::npos)
      << e->payload;
  EXPECT_NE(e->payload.find("probe avx2="), std::string::npos) << e->payload;

  ASSERT_NE(p.channel(), nullptr);
  const dl::PlanEvidence* plan = p.channel()->plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->elem(), dl::ElemType::kInt8);

  const core::EvidenceItem item = core::make_kernel_backend_evidence(p);
  EXPECT_NE(item.body.find("plan=int8 mode=wide isa="), std::string::npos)
      << item.body;
  const std::string arm =
      tensor::qkernels::qarm_name(plan->isa_selection().int8);
  EXPECT_NE(item.body.find(" int8=" + arm + "\n"), std::string::npos)
      << item.body;
}

TEST(WideBackendRecord, RedundantPatternsRecordTheirReplicaPlan) {
  // DMR, TMR and diverse-TMR deploy every replica at the pipeline's kernel
  // mode and the record derives from replica 0's plan: SIL3/SIL4 audits
  // carry the kernel-plan entry and one ir-pass entry per pass, and a
  // kReference SIL3 deployment runs and records the reference loops.
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);
  for (const auto crit : {core::Criticality::kSil3, core::Criticality::kSil4}) {
    core::PipelineConfig cfg;
    cfg.criticality = crit;
    cfg.timing_budget = 1'000'000;
    core::CertifiablePipeline p{sx::testing::trained_mlp(),
                                sx::testing::road_data(), cfg};
    ASSERT_NE(p.channel(), nullptr);
    const PlanEvidence* plan = p.channel()->plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->elem(), ElemType::kFloat32);
    const auto* e = find_entry(p.audit(), "kernel-plan");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->payload, plan->summary());
    std::size_t passes = 0;
    for (const auto& entry : p.audit().entries())
      passes += entry.actor == "ir-pass" ? 1 : 0;
    EXPECT_EQ(passes, plan->pass_evidence().size());
    EXPECT_GT(passes, 0u);
    EXPECT_NE(p.kernel_backend().find("requested=auto resolved=wide"),
              std::string::npos)
        << p.kernel_backend();
    EXPECT_NE(core::make_kernel_backend_evidence(p).body.find(
                  "plan=float mode=wide isa="),
              std::string::npos);
  }

  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil3;
  cfg.timing_budget = 1'000'000;
  cfg.kernel_mode = KernelMode::kReference;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  ASSERT_NE(p.channel(), nullptr);
  EXPECT_EQ(p.channel()->plan(), nullptr);
  for (const auto& r : p.channel()->replicas())
    EXPECT_EQ(r.engine().plan(), nullptr);
  EXPECT_EQ(find_entry(p.audit(), "kernel-plan"), nullptr);
  EXPECT_NE(p.kernel_backend().find("requested=reference resolved=reference"),
            std::string::npos)
      << p.kernel_backend();
}

TEST(WideBackendRecord, EscapeHatchRecordsResolvedReferenceMode) {
  // SX_KERNEL_REFERENCE demotes kAuto to the reference loops; the audit
  // record must attribute the evidence to what actually ran, not to the
  // requested mode.
  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "1", 1), 0);
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);

  const auto* e = find_entry(p.audit(), "kernel-backend");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->payload.find("requested=auto resolved=reference"),
            std::string::npos)
      << e->payload;
  // No wide plan deployed -> no probe clause.
  EXPECT_EQ(e->payload.find("probe"), std::string::npos) << e->payload;
}

TEST(WideBackendRecord, DefaultPipelineRecordsProbedDefault) {
  // The default deployment (kAuto) runs the wide family on every host;
  // the record carries the probe audit that picked its arm.
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
  const platform::CpuProbe probe = platform::probe_cpu();
  const platform::WideIsaSelection sel =
      platform::select_wide_isa(probe, nullptr);
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  EXPECT_EQ(p.kernel_backend(), "requested=auto resolved=wide; " +
                                    platform::wide_isa_audit(probe, sel));
  if (probe.avx512f) {
    EXPECT_EQ(p.kernel_backend().rfind(
                  "requested=auto resolved=wide; probe avx2=1 avx512f=1 "
                  "env=(unset) selected=avx512 refused=0 avx512bw=",
                  0),
              0u);
  }

  // A scalar override keeps kAuto on the wide family's scalar arm, and
  // the record says so.
  ASSERT_EQ(setenv("SX_KERNEL_ISA", "scalar", 1), 0);
  core::CertifiablePipeline scalar{sx::testing::trained_mlp(),
                                   sx::testing::road_data(), cfg};
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
  EXPECT_EQ(scalar.kernel_backend(),
            "requested=auto resolved=wide; " +
                platform::wide_isa_audit(
                    probe, platform::select_wide_isa(probe, "scalar")));
  EXPECT_NE(scalar.kernel_backend().find("env=scalar selected=scalar"),
            std::string::npos);
}

}  // namespace
}  // namespace sx::dl
