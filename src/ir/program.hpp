#pragma once
// Deploy-time program IR for whole-model static analysis.
//
// `Program` is an SSA-like view of a sequential model: every activation
// buffer is a `Value` with one defining `Op` and an explicit use list, so
// optimization passes (ir/passes.hpp) reason from dataflow facts — single
// use, reachability, live ranges — instead of per-layer heuristics. The IR
// is a *pure graph library*: it knows element counts and op kinds, never
// dl:: types, so sx_dl can depend on it without a cycle (lowering lives in
// dl/lower.hpp) and verify/range can validate a Program against the source
// model independently.
//
// Invariants maintained by the builder and required by the passes:
//   - ops are appended in topological (execution) order; an op's input
//     value is defined by an earlier op or is the program input;
//   - every value has exactly one definition (def_op, or the program
//     input when def_op == kNone);
//   - passes never erase ops — they clear `live` and rewire, so op/value
//     ids stay stable and audit evidence can name them.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sx::ir {

/// Sentinel for "no id" (no defining op, no fused layer, no arena slot).
inline constexpr std::size_t kNone = ~std::size_t{0};

enum class OpKind : std::uint8_t {
  kDense,
  kConv2d,
  kRelu,
  kSigmoid,
  kTanh,
  kMaxPool2d,
  kAvgPool2d,
  kFlatten,
  kSoftmax,
  kBatchNorm,
};

const char* to_string(OpKind k) noexcept;

/// Activations a planned producer can absorb as a fused epilogue.
bool is_activation(OpKind k) noexcept;

/// Producers that accept a fused epilogue (planned matmul/conv kernels).
bool is_fusion_producer(OpKind k) noexcept;

/// A tensor value: one producer, explicit consumers.
struct Value {
  std::size_t id = 0;
  std::size_t elems = 0;          ///< element count (elem_bytes each)
  std::size_t def_op = kNone;     ///< defining op; kNone = program input
  std::vector<std::size_t> uses;  ///< ids of live ops reading this value
};

/// One executable operation lowered from a model layer.
struct Op {
  std::size_t id = 0;
  OpKind kind{};
  std::size_t layer = 0;           ///< source model layer index
  std::size_t input = 0;           ///< value id read
  std::size_t output = 0;          ///< value id written
  std::size_t fused_layer = kNone; ///< activation layer folded into this op
  OpKind fused_kind{};             ///< valid iff fused_layer != kNone
  bool live = true;
};

struct Program {
  std::size_t elem_bytes = 4;   ///< 4 = float32, 1 = int8
  std::size_t layer_count = 0;  ///< layers in the source model
  bool input_in_arena = false;  ///< quant engines stage the input in-arena
  std::size_t input_value = kNone;
  std::size_t output_value = kNone;
  std::vector<Value> values;
  std::vector<Op> ops;

  /// Declares the program input value; returns its id.
  std::size_t set_input(std::size_t elems);

  /// Appends an op consuming `in_value` and defining a fresh output value
  /// of `out_elems`; returns the new op's id.
  std::size_t add_op(OpKind kind, std::size_t layer, std::size_t in_value,
                     std::size_t out_elems);

  std::size_t live_op_count() const noexcept;

  /// The source model layer whose activation an op's output carries:
  /// the fused activation layer when present, the op's own layer else.
  std::size_t last_layer(const Op& op) const noexcept {
    return op.fused_layer != kNone ? op.fused_layer : op.layer;
  }

  /// Recomputes every value's use list from the live ops.
  void rebuild_uses();

  /// Structural self-check (ids in range, single definition, topological
  /// order, uses consistent). Returns true when the graph is well-formed.
  bool well_formed() const noexcept;

  /// Debug/audit dump: one line per live op.
  std::string to_text() const;
};

}  // namespace sx::ir
