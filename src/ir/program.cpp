#include "ir/program.hpp"

#include <sstream>

namespace sx::ir {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kDense: return "dense";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kRelu: return "relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kMaxPool2d: return "maxpool2d";
    case OpKind::kAvgPool2d: return "avgpool2d";
    case OpKind::kFlatten: return "flatten";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kBatchNorm: return "batchnorm";
  }
  return "?";
}

bool is_activation(OpKind k) noexcept {
  return k == OpKind::kRelu || k == OpKind::kSigmoid || k == OpKind::kTanh;
}

bool is_fusion_producer(OpKind k) noexcept {
  return k == OpKind::kDense || k == OpKind::kConv2d;
}

std::size_t Program::set_input(std::size_t elems) {
  Value v;
  v.id = values.size();
  v.elems = elems;
  v.def_op = kNone;
  values.push_back(v);
  input_value = v.id;
  if (output_value == kNone) output_value = v.id;
  return v.id;
}

std::size_t Program::add_op(OpKind kind, std::size_t layer,
                            std::size_t in_value, std::size_t out_elems) {
  Op op;
  op.id = ops.size();
  op.kind = kind;
  op.layer = layer;
  op.input = in_value;
  Value out;
  out.id = values.size();
  out.elems = out_elems;
  out.def_op = op.id;
  op.output = out.id;
  values[in_value].uses.push_back(op.id);
  values.push_back(out);
  ops.push_back(op);
  output_value = out.id;
  return op.id;
}

std::size_t Program::live_op_count() const noexcept {
  std::size_t n = 0;
  for (const auto& op : ops)
    if (op.live) ++n;
  return n;
}

void Program::rebuild_uses() {
  for (auto& v : values) v.uses.clear();
  for (const auto& op : ops)
    if (op.live) values[op.input].uses.push_back(op.id);
}

bool Program::well_formed() const noexcept {
  if (input_value >= values.size() || output_value >= values.size())
    return false;
  if (values[input_value].def_op != kNone) return false;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i].id != i) return false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.id != i) return false;
    if (!op.live) continue;
    if (op.input >= values.size() || op.output >= values.size()) return false;
    if (values[op.output].def_op != op.id) return false;
    // Topological order: the input is the program input or defined earlier.
    const std::size_t def = values[op.input].def_op;
    if (def != kNone && def >= i) return false;
    if (def != kNone && !ops[def].live) return false;
    if (op.layer >= layer_count) return false;
    if (op.fused_layer != kNone &&
        (op.fused_layer >= layer_count || op.fused_layer <= op.layer))
      return false;
  }
  // Uses must point back at live consumers of the value.
  for (const auto& v : values)
    for (const std::size_t u : v.uses)
      if (u >= ops.size() || !ops[u].live || ops[u].input != v.id)
        return false;
  return true;
}

std::string Program::to_text() const {
  std::ostringstream out;
  out << "ir.program elem_bytes=" << elem_bytes
      << " layers=" << layer_count << " live_ops=" << live_op_count()
      << "\n";
  for (const auto& op : ops) {
    if (!op.live) continue;
    out << "  op" << op.id << " " << to_string(op.kind) << " layer="
        << op.layer;
    if (op.fused_layer != kNone)
      out << "+" << to_string(op.fused_kind) << "@" << op.fused_layer;
    out << " v" << op.input << "(" << values[op.input].elems << ") -> v"
        << op.output << "(" << values[op.output].elems << ")";
    out << "\n";
  }
  return out.str();
}

}  // namespace sx::ir
