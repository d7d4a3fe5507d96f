#include "dl/plan.hpp"

#include <cstdlib>
#include <sstream>

#include "dl/lower.hpp"

namespace sx::dl {

namespace k = tensor::kernels;

KernelMode resolve_kernel_mode(KernelMode requested,
                               bool reference_forced) noexcept {
  if (requested != KernelMode::kAuto) return requested;
  return reference_forced ? KernelMode::kReference : KernelMode::kWide;
}

KernelMode resolve_kernel_mode(KernelMode requested) noexcept {
  if (requested != KernelMode::kAuto) return requested;
  // Escape hatch for differential testing and certification audits: a set,
  // non-"0" SX_KERNEL_REFERENCE forces the original per-layer loops.
  // Resolved at configuration time only; the hot path never reads the
  // environment.
  const char* env = std::getenv("SX_KERNEL_REFERENCE");
  const bool forced =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  return resolve_kernel_mode(requested, forced);
}

const char* kernel_mode_name(KernelMode mode) noexcept {
  switch (mode) {
    case KernelMode::kAuto: return "auto";
    case KernelMode::kReference: return "reference";
    case KernelMode::kWide: return "wide";
  }
  return "unknown";
}

std::span<const KernelMode> all_kernel_modes() noexcept {
  // kReference first: differential consumers (the scenario identity
  // matrix) treat the first entry as the twin anchor.
  static constexpr KernelMode kModes[] = {KernelMode::kReference,
                                          KernelMode::kWide};
  return kModes;
}

namespace {

k::Epilogue fused_epilogue(ir::OpKind kind) noexcept {
  switch (kind) {
    case ir::OpKind::kRelu: return k::Epilogue::kRelu;
    case ir::OpKind::kSigmoid: return k::Epilogue::kSigmoid;
    case ir::OpKind::kTanh: return k::Epilogue::kTanh;
    default: return k::Epilogue::kNone;  // unsound fused kind: the verify
                                         // gate refuses the plan before any
                                         // engine runs it
  }
}

/// Static geometry of conv layer i (input shape = activation before it).
k::Conv2dGeom conv_geom(const Model& m, std::size_t i, const Conv2d& c) {
  const Shape& in = i == 0 ? m.input_shape() : m.activation_shape(i - 1);
  k::Conv2dGeom g;
  g.in_c = c.in_channels();
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.out_c = c.out_channels();
  g.k = c.kernel();
  g.stride = c.stride();
  g.pad = c.padding();
  return g;
}

}  // namespace

const char* elem_name(ElemType elem) noexcept {
  return elem == ElemType::kInt8 ? "int8" : "float";
}

PlanEvidence::PlanEvidence(ElemType elem, ir::Program program,
                           const ir::PassOptions& opts)
    : elem_(elem), probe_(platform::probe_cpu()), program_(std::move(program)) {
  // The one and only probe: configuration time, before any step exists.
  // The decision is kept for the audit trail (isa_selection()); the hot
  // path only ever sees the function pointers the derived plan resolves.
  isa_sel_ = platform::select_wide_isa(probe_, std::getenv("SX_KERNEL_ISA"));
  // Static-analysis pass pipeline over the lowered IR: dce, fusion
  // legality, liveness arena coloring. The per-pass audit evidence is
  // retained for the AuditLog and the verify gate re-derives all of it.
  ir::OptimizeResult opt = ir::optimize(program_, opts);
  layout_ = std::move(opt.layout);
  passes_ = std::move(opt.passes);
  output_offset_ = layout_.value_offset[program_.output_value];
  for (const ir::PassEvidence& pe : passes_) removed_ += pe.layers_removed;
}

KernelPlan::KernelPlan(const Model& model, std::size_t pin_tap_layer)
    : PlanEvidence(ElemType::kFloat32, lower(model),
                   ir::PassOptions{.fuse_sigmoid_tanh = true,
                                   .pin_layer = pin_tap_layer}),
      model_(&model),
      pin_tap_layer_(pin_tap_layer) {
  // Pass 1 over the surviving ops: size the deploy-time Dense panels.
  for (const ir::Op& op : program_.ops) {
    if (!op.live || op.kind != ir::OpKind::kDense) continue;
    const auto& d = static_cast<const Dense&>(model.layer(op.layer));
    panel_floats_ += k::wide_dense_panel_floats(d.out_dim(), d.in_dim());
  }

  // Configuration-time storage, allocated exactly once per deployment;
  // the hot path only ever reads it.
  const std::size_t live = program_.live_op_count();
  if (live != 0)
    steps_ = std::make_unique<KernelStep[]>(live);  // sxlint: allow(hot-path-alloc) deploy-time plan storage
  if (panel_floats_ != 0)
    panels_ = tensor::make_aligned_storage<float>(panel_floats_);

  // Pass 2: one executable step per surviving op, carrying its liveness
  // arena assignment and fused epilogue.
  std::size_t pf = 0;
  std::size_t prev_last = 0;
  for (const ir::Op& op : program_.ops) {
    if (!op.live) continue;
    KernelStep& s = steps_[step_count_++];
    s.first_layer = op.layer;
    s.last_layer = program_.last_layer(op);
    s.tap_first = step_count_ == 1 ? 0 : prev_last + 1;
    prev_last = s.last_layer;
    s.in_elems = program_.values[op.input].elems;
    s.out_elems = program_.values[op.output].elems;
    s.in_shape = op.layer == 0 ? model.input_shape()
                               : model.activation_shape(op.layer - 1);
    s.out_shape = model.activation_shape(s.last_layer);
    const ir::ArenaAssignment& slot = layout_.per_op[op.id];
    s.in_offset = slot.in_offset;
    s.out_offset = slot.out_offset;
    if (op.fused_layer != ir::kNone) {
      s.epilogue = fused_epilogue(op.fused_kind);
      ++fused_;
    }

    if (op.kind == ir::OpKind::kDense) {
      const auto& d = static_cast<const Dense&>(model.layer(op.layer));
      s.kind = KernelStep::Kind::kDense;
      s.rows = d.out_dim();
      s.cols = d.in_dim();
      s.weights = d.weights().data();
      s.bias = d.bias().data();
      float* panel = panels_.get() + pf;
      k::pack_wide_dense_panel(s.weights, s.rows, s.cols, panel);
      s.panel = panel;
      pf += k::wide_dense_panel_floats(s.rows, s.cols);
      // Branch-free hot path: the kernel entry point is decided here,
      // once, for the plan's whole lifetime.
      s.dense_fn = k::wide_dense_kernel(isa_sel_.isa);
      ++planned_dense_;
    } else if (op.kind == ir::OpKind::kConv2d) {
      const auto& c = static_cast<const Conv2d&>(model.layer(op.layer));
      s.kind = KernelStep::Kind::kConv2d;
      s.conv = conv_geom(model, op.layer, c);
      s.weights = c.weights().data();
      s.bias = c.bias().data();
      s.conv_fn = k::wide_conv_kernel(isa_sel_.isa);
      ++planned_conv_;
    } else if (op.kind == ir::OpKind::kMaxPool2d) {
      s.kind = KernelStep::Kind::kMaxPool;
      s.window = static_cast<const MaxPool2d&>(model.layer(op.layer)).window();
      ++planned_pools_;
    } else {
      s.kind = KernelStep::Kind::kReference;
      s.ref_layer = &model.layer(op.layer);
      ++reference_;
    }
  }
  final_tap_first_ =
      step_count_ != 0 ? steps_[step_count_ - 1].last_layer + 1 : 0;
}

void KernelPlan::repack() noexcept {
  for (std::size_t i = 0; i < step_count_; ++i) {
    KernelStep& s = steps_[i];
    if (s.kind == KernelStep::Kind::kDense)
      k::pack_wide_dense_panel(s.weights, s.rows, s.cols,
                               const_cast<float*>(s.panel));
  }
}

std::string KernelPlan::summary() const {
  std::ostringstream os;
  os << "mode=" << kernel_mode_name(KernelMode::kWide)
     << " steps=" << step_count_ << "/" << model_->layer_count()
     << " layers (dense=" << planned_dense_ << " conv=" << planned_conv_
     << " pool=" << planned_pools_ << " fused-act=" << fused_
     << " removed=" << removed_ << " reference=" << reference_
     << "), arena=" << layout_.total_elems << "/" << layout_.naive_elems
     << " floats, panels=" << panel_floats_
     << " floats, isa=" << k::wide_isa_name(isa_sel_.isa);
  if (isa_sel_.refused) os << " (override refused)";
  return os.str();
}

}  // namespace sx::dl
