// Lowering from dl models to the deploy-time program IR (src/ir).
//
// This is the one place the dl and ir layers meet: sx_ir stays a pure
// graph library with no dl dependency, and everything that knows about
// Layer/QLayerView shapes or element widths lives here.
// The lowered Program is the input to ir::optimize (dce, fusion legality,
// liveness arena coloring); KernelPlan/QuantKernelPlan then build their
// executable steps from the surviving ops, and verify/range independently
// re-derives what the optimized Program must look like straight from the
// model — never through this lowering's output — so a corrupted pass
// result cannot hide.
#pragma once

#include "dl/model.hpp"
#include "dl/quant.hpp"
#include "ir/program.hpp"

namespace sx::dl {

/// IR op kind for a model layer kind.
ir::OpKind lower_kind(LayerKind k) noexcept;

/// Lowers a float model: elem_bytes = 4, input read from the caller's
/// buffer (no in-arena input slot).
ir::Program lower(const Model& model);

/// Lowers a quantized model: elem_bytes = 1 and input_in_arena = true —
/// the quant engine stages the quantized input inside its byte arena, so
/// the input value needs an arena slot of its own.
ir::Program lower(const QuantizedModel& model);

}  // namespace sx::dl
