// Seeded FUSA-violation fixture for sxlint's hot-path-alloc rule. NEVER
// compiled or linked — only scanned by the `sxlint_seeded_fixture` CTest
// entry. A supervise/tap_scorer.* file is the per-decision trust scorer,
// under the same zero-allocation contract as the kernel files: its buffers
// are sized at deploy time.
#include <vector>

namespace fixture {

// hot-path-alloc: sizing the feature buffer on every score instead of once.
double score(std::vector<float>& feat, unsigned dim) {
  feat.resize(dim);
  double acc = 0.0;
  for (float v : feat) acc += static_cast<double>(v);
  return acc;
}

}  // namespace fixture
