#include "dl/lower.hpp"

#include "tensor/kernels.hpp"

namespace sx::dl {

namespace k = tensor::kernels;

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

/// Ragged im2col column of an int8 conv layer — the same scratch the int8
/// plan gathers into at run time.
std::size_t conv_scratch(const Shape& in, std::size_t out_c, std::size_t kk,
                         std::size_t stride, std::size_t pad,
                         std::size_t in_c) {
  k::Conv2dGeom g;
  g.in_c = in_c;
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.out_c = out_c;
  g.k = kk;
  g.stride = stride;
  g.pad = pad;
  return k::im2col_entries(g);
}

}  // namespace

ir::Program lower(const Model& model) {
  // Float convs run the direct kernel straight off their input slot, so no
  // op carries scratch.
  ir::Program p;
  p.elem_bytes = 4;
  p.layer_count = model.layer_count();
  p.input_in_arena = false;
  std::size_t cur = p.set_input(model.input_shape().size());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const std::size_t op = p.add_op(lower_kind(model.layer(i).kind()), i, cur,
                                    model.activation_shape(i).size());
    cur = p.ops[op].output;
  }
  return p;
}

ir::Program lower(const QuantizedModel& model) {
  ir::Program p;
  p.elem_bytes = 1;
  p.layer_count = model.layer_count();
  p.input_in_arena = true;
  std::size_t cur = p.set_input(model.input_shape().size());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const QuantizedModel::QLayerView v = model.layer_view(i);
    std::size_t scratch = 0;
    if (v.kind == LayerKind::kConv2d) {
      const Shape& in =
          i == 0 ? model.input_shape() : model.activation_shape(i - 1);
      scratch = conv_scratch(in, v.out_c, v.k, v.stride, v.pad, v.in_c);
    }
    const std::size_t op =
        p.add_op(lower_kind(v.kind), i, cur,
                 model.activation_shape(i).size(), scratch);
    cur = p.ops[op].output;
  }
  return p;
}

}  // namespace sx::dl
