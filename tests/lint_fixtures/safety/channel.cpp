// Seeded FUSA-violation fixture for sxlint's hot-path-alloc rule. NEVER
// compiled or linked — only scanned by the `sxlint_seeded_fixture` CTest
// entry. A safety/channel.* file holds every pattern's infer(), which runs
// once per decision under the zero-allocation contract: vote buffers are
// sized when the channel is deployed.
#include <vector>

namespace fixture {

// hot-path-alloc: growing the vote buffer on every inference instead of
// sizing it once at deploy time.
float vote(std::vector<float>& scratch, const float* a, const float* b,
           unsigned n) {
  scratch.resize(n);
  float acc = 0.0f;
  for (unsigned i = 0; i < n; ++i) {
    scratch[i] = a[i] < b[i] ? a[i] : b[i];
    acc += scratch[i];
  }
  return acc;
}

}  // namespace fixture
