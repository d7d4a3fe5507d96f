// Seeded FUSA-violation fixture for the wide-SIMD (kWide) kernel files.
// NEVER compiled or linked — only scanned by the `sxlint_wide_fixture`
// CTest entry. The `tensor/` directory component makes every file here a
// kernel hot path, exactly like the real kernels_wide.cpp /
// qkernels_wide.cpp: dynamic allocation, container growth and console I/O
// are forbidden there, so the linter must flag the idioms below if they
// ever leak into the wide microkernels.
#include <cstdio>
#include <memory>
#include <vector>

namespace fixture {

// hot-path-alloc: allocating a lane panel per call instead of packing it
// once at deploy time into plan-owned storage.
std::vector<float> pack_panel_per_call(const float* w, unsigned n) {
  std::vector<float> panel;
  panel.resize(n);
  for (unsigned i = 0; i < n; ++i) panel[i] = w[i];
  return panel;
}

// hot-path-alloc: per-run scratch for a conv row tail.
std::unique_ptr<float[]> tail_scratch(unsigned taps) {
  return std::make_unique<float[]>(taps);
}

// hot-path-alloc (and heap-expr): raw new inside a microkernel sweep.
float* widen_accumulators(unsigned lanes) { return new float[lanes]; }

// console-io: probe diagnostics belong in the audit log, not on stderr.
void report_probe(bool avx2) {
  std::fprintf(stderr, "wide probe avx2=%d\n", avx2 ? 1 : 0);
}

// A waived finding: deploy-time panel storage is allowed to allocate, and
// the marker must route this into the "waived" counter.
std::unique_ptr<float[]> deploy_time_panel(unsigned n) {
  return std::make_unique<float[]>(n);  // sxlint: allow(hot-path-alloc)
}

// Not findings: names merely containing banned tokens, and literals that
// talk about them, must stay silent.
void resize_lanes_noop() {}
const char* kDoc = "the wide kernels never push_back() or new[] per run";

}  // namespace fixture
