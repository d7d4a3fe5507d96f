#include "dl/lower.hpp"

namespace sx::dl {

ir::OpKind lower_kind(LayerKind kind) noexcept {
  switch (kind) {
    case LayerKind::kDense: return ir::OpKind::kDense;
    case LayerKind::kConv2d: return ir::OpKind::kConv2d;
    case LayerKind::kRelu: return ir::OpKind::kRelu;
    case LayerKind::kSigmoid: return ir::OpKind::kSigmoid;
    case LayerKind::kTanh: return ir::OpKind::kTanh;
    case LayerKind::kMaxPool2d: return ir::OpKind::kMaxPool2d;
    case LayerKind::kAvgPool2d: return ir::OpKind::kAvgPool2d;
    case LayerKind::kFlatten: return ir::OpKind::kFlatten;
    case LayerKind::kSoftmax: return ir::OpKind::kSoftmax;
    case LayerKind::kBatchNorm: return ir::OpKind::kBatchNorm;
  }
  return ir::OpKind::kFlatten;
}

namespace {

/// One op per layer of a sequential model; `kind(i)` is layer i's kind.
template <typename M, typename KindOf>
ir::Program lower_chain(const M& model, std::size_t elem_bytes,
                        bool input_in_arena, KindOf kind) {
  ir::Program p;
  p.elem_bytes = elem_bytes;
  p.layer_count = model.layer_count();
  p.input_in_arena = input_in_arena;
  std::size_t cur = p.set_input(model.input_shape().size());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const std::size_t op = p.add_op(lower_kind(kind(i)), i, cur,
                                    model.activation_shape(i).size());
    cur = p.ops[op].output;
  }
  return p;
}

}  // namespace

ir::Program lower(const Model& model) {
  return lower_chain(model, 4, false,
                     [&](std::size_t i) { return model.layer(i).kind(); });
}

ir::Program lower(const QuantizedModel& model) {
  return lower_chain(model, 1, true,
                     [&](std::size_t i) { return model.layer_view(i).kind; });
}

}  // namespace sx::dl
