// Seeded FUSA-violation fixture for sxlint's hot-path-alloc rule on the
// quantized runtime. NEVER compiled or linked — only scanned by the
// `sxlint_quant_fixture` CTest entry. The `dl/` directory component plus
// the `quant` stem make this file count as a kernel hot path (the same
// contract src/dl/quant.cpp and src/dl/qplan.cpp are held to), where
// dynamic allocation and container growth are forbidden outside the
// deploy-time plan.
#include <memory>
#include <vector>

namespace fixture {

// hot-path-alloc: growing the saturation-counter vector per inference
// instead of sizing it at quantize() time.
void count_clip(std::vector<unsigned long long>& sats, unsigned layer) {
  while (sats.size() <= layer) sats.push_back(0);
  ++sats[layer];
}

// hot-path-alloc: resizing the ping-pong activation buffers inside run().
void reshape_scratch(std::vector<signed char>& ping,
                     std::vector<signed char>& pong, unsigned n) {
  ping.resize(n);
  pong.resize(n);
}

// hot-path-alloc: allocating a gathered column per conv invocation instead
// of carving it from the planned byte arena.
std::unique_ptr<signed char[]> gather_column(unsigned taps) {
  return std::make_unique<signed char[]>(taps);
}

// hot-path-alloc (and heap-expr): raw new for a weight panel at run time.
signed char* pack_panel_late(unsigned bytes) { return new signed char[bytes]; }

// A waived finding: the marker must suppress this one (it contributes to
// the "waived" counter, not the findings list).
std::unique_ptr<int> deploy_time_slot() {
  return std::make_unique<int>(0);  // sxlint: allow(hot-path-alloc)
}

// Not findings: identifiers containing a banned name and string literals
// mentioning growth calls must stay silent.
void resize_noop() {}
const char* kDoc = "never call resize() or push_back() in the int8 path";

}  // namespace fixture
