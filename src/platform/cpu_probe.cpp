#include "platform/cpu_probe.hpp"

#include <cstdlib>
#include <cstring>

namespace sx::platform {

namespace k = tensor::kernels;
namespace qk = tensor::qkernels;

namespace {

qk::QArm int8_arm(const CpuProbe& p, k::WideIsa isa, bool vnni) noexcept {
  switch (isa) {
    case k::WideIsa::kScalar: return qk::QArm::kScalar;
    case k::WideIsa::kAvx2: return qk::QArm::kAvx2;
    case k::WideIsa::kAvx512: break;
  }
  if (!p.avx512bw || !p.avx512vl) return qk::QArm::kAvx2;
  return vnni && p.avx512_vnni ? qk::QArm::kAvx512Vnni : qk::QArm::kAvx512Bw;
}

void append_flag(std::string& s, const char* name, bool v) {
  s += ' ';
  s += name;
  s += '=';
  s += v ? '1' : '0';
}

}  // namespace

CpuProbe probe_cpu() noexcept {
  CpuProbe p;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  p.avx2 = __builtin_cpu_supports("avx2") != 0;
  p.avx512f = __builtin_cpu_supports("avx512f") != 0;
  p.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  p.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
  p.avx512_vnni = __builtin_cpu_supports("avx512vnni") != 0;
  p.avx_vnni = __builtin_cpu_supports("avxvnni") != 0;
#endif
  return p;
}

WideIsaSelection select_wide_isa(const CpuProbe& probe,
                                 const char* env) noexcept {
  WideIsaSelection sel;
  if (env == nullptr || env[0] == '\0') {
    // No override: widest confirmed ISA.
    sel.isa = probe.avx512f ? k::WideIsa::kAvx512
              : probe.avx2 ? k::WideIsa::kAvx2
                           : k::WideIsa::kScalar;
    sel.int8 = int8_arm(probe, sel.isa, /*vnni=*/true);
    return sel;
  }
  sel.env_present = true;
  std::strncpy(sel.requested, env, sizeof(sel.requested) - 1);
  bool vnni = true;
  if (std::strcmp(env, "scalar") == 0) {
    sel.isa = k::WideIsa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0 && probe.avx2) {
    sel.isa = k::WideIsa::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0 && probe.avx512f) {
    sel.isa = k::WideIsa::kAvx512;
  } else if (std::strcmp(env, "avx512-novnni") == 0 && probe.avx512f) {
    sel.isa = k::WideIsa::kAvx512;
    vnni = false;
  } else {
    // Unknown token or unconfirmed feature: refuse, run the portable twin.
    sel.refused = true;
    sel.isa = k::WideIsa::kScalar;
  }
  sel.int8 = int8_arm(probe, sel.isa, vnni);
  return sel;
}

WideIsaSelection select_wide_isa() noexcept {
  return select_wide_isa(probe_cpu(), std::getenv("SX_KERNEL_ISA"));
}

std::string wide_isa_audit(const CpuProbe& probe,
                           const WideIsaSelection& sel) {
  // One allocation: growing the line by += would reallocate it through
  // several buffers at deploy time.
  std::string s;
  s.reserve(192);
  s += "probe avx2=";
  s += probe.avx2 ? '1' : '0';
  s += " avx512f=";
  s += probe.avx512f ? '1' : '0';
  s += " env=";
  s += sel.env_present ? sel.requested : "(unset)";
  s += " selected=";
  s += k::wide_isa_name(sel.isa);
  s += " refused=";
  s += sel.refused ? '1' : '0';
  append_flag(s, "avx512bw", probe.avx512bw);
  append_flag(s, "avx512vl", probe.avx512vl);
  append_flag(s, "avx512_vnni", probe.avx512_vnni);
  append_flag(s, "avx_vnni", probe.avx_vnni);
  s += " int8=";
  s += qk::qarm_name(sel.int8);
  return s;
}

}  // namespace sx::platform
