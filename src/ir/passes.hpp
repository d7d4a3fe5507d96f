#pragma once
// Deterministic static-analysis passes over ir::Program.
//
// Pass order (fixed — the audit evidence and the verify-side re-derivation
// both assume it):
//   1. dce      — identity forwarding (flatten is a bit-copy; relu after
//                 relu is idempotent) followed by backward reachability
//                 from the program output; unreachable ops are killed.
//   2. fusion   — epilogue-fusion legality decided from single-use
//                 dataflow facts: a dense/conv producer whose output has
//                 exactly one live consumer, an activation, absorbs it.
//   3. liveness — buffer-lifetime analysis: every surviving value gets a
//                 live interval [def, last-use] over the execution order,
//                 and non-interfering intervals share arena offsets via
//                 deterministic first-fit, shrinking total demand from the
//                 ping-pong worst case toward the max live set.
//
// Every pass returns structured PassEvidence (name, facts used, bytes
// saved, layers removed/fused) that callers append to the AuditLog; the
// SIL3/4 pre-flight gate re-derives all of it independently (see
// verify/range) and refuses the plan on any mismatch.
//
// Negative testing: `optimize` consults the SX_IR_PASS_FAULT environment
// variable at configuration time (mirroring SX_KERNEL_REFERENCE) and, when
// set, deliberately corrupts its result so tests can prove the verify gate
// refuses unsound transformations:
//   drop-op      kill the last live op (unsound elimination)
//   bogus-fuse   fuse a producer with a non-activation consumer
//   shrink-arena under-report total_elems by one
//   overlap      alias an op's output slot onto its live input slot
#include <cstddef>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace sx::ir {

struct PassOptions {
  /// Float kernels fuse relu/sigmoid/tanh epilogues; the int8 requantize
  /// path only folds relu.
  bool fuse_sigmoid_tanh = true;
  /// Keep the activation feeding this layer materialized (and the fusion
  /// that would consume it blocked) so a supervisor can tap it.
  std::size_t pin_layer = kNone;
};

/// Structured audit evidence emitted by one pass.
struct PassEvidence {
  std::string pass;
  std::string facts;  ///< dataflow facts the transformation relied on
  std::size_t layers_removed = 0;
  std::size_t layers_fused = 0;
  std::size_t bytes_saved = 0;
  std::string summary() const;  ///< one machine-parseable line
};

/// Arena addresses for one op; offsets are element counts into the base
/// block, kNone meaning "no slot" (dead op, or external input buffer).
struct ArenaAssignment {
  std::size_t in_offset = kNone;
  std::size_t out_offset = kNone;
};

/// Result of the liveness pass: a colored arena layout.
struct ArenaLayout {
  std::size_t total_elems = 0;  ///< arena demand after interval sharing
  std::size_t naive_elems = 0;  ///< ping-pong worst case it replaces
  std::size_t input_offset = kNone;  ///< in-arena input slot (quant)
  std::vector<std::size_t> value_offset;  ///< by value id; kNone = none
  std::vector<ArenaAssignment> per_op;    ///< by op id
};

PassEvidence run_dce(Program& p);
PassEvidence run_fusion(Program& p, const PassOptions& opts);
ArenaLayout plan_arena(const Program& p);

struct OptimizeResult {
  std::vector<PassEvidence> passes;
  ArenaLayout layout;
};

/// Runs the full pipeline (dce, fusion, liveness) in the fixed order and
/// returns the per-pass evidence plus the arena layout.
OptimizeResult optimize(Program& p, const PassOptions& opts = {});

}  // namespace sx::ir
