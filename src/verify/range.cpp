#include "verify/range.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

namespace sx::verify {
namespace {

using tensor::Shape;
using tensor::Tensor;

bool all_finite(std::span<const float> xs) noexcept {
  for (float v : xs)
    if (!std::isfinite(v)) return false;
  return true;
}

/// NaN sources that exist before any propagation: non-finite parameters or
/// frozen statistics, and BatchNorm channels whose variance + epsilon is not
/// strictly positive (sqrt of a non-positive number on the forward path).
bool params_nan_safe(const dl::Model& model) {
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const dl::Layer& l = model.layer(i);
    if (!all_finite(l.params())) return false;
    if (l.kind() == dl::LayerKind::kBatchNorm) {
      const auto& bn = static_cast<const dl::BatchNorm&>(l);
      if (!all_finite(bn.running_mean()) || !all_finite(bn.running_var()))
        return false;
      for (const float v : bn.running_var())
        if (!(v + bn.epsilon() > 0.0f)) return false;
    }
  }
  return true;
}

LayerRangeSummary summarize(std::size_t index, dl::LayerKind kind,
                            const IntervalTensor& iv) {
  LayerRangeSummary s;
  s.index = index;
  s.kind = kind;
  s.min_lo = iv.lo.at(0);
  s.max_hi = iv.hi.at(0);
  s.max_width = 0.0f;
  for (std::size_t i = 0; i < iv.lo.size(); ++i) {
    const float lo = iv.lo.at(i), hi = iv.hi.at(i);
    s.min_lo = std::min(s.min_lo, lo);
    s.max_hi = std::max(s.max_hi, hi);
    s.max_width = std::max(s.max_width, hi - lo);
    if (!std::isfinite(lo) || !std::isfinite(hi)) s.finite = false;
  }
  return s;
}

float interval_absmax(const IntervalTensor& iv) noexcept {
  float m = 0.0f;
  for (std::size_t i = 0; i < iv.lo.size(); ++i)
    m = std::max(m, std::max(std::fabs(iv.lo.at(i)), std::fabs(iv.hi.at(i))));
  return m;
}

}  // namespace

void VerificationEvidence::set_engines(std::vector<EngineCheck> checks) {
  engines = std::move(checks);
  verdict.arena_consistent = !engines.empty();
  verdict.ir_sound = !engines.empty();
  for (const EngineCheck& e : engines) {
    verdict.arena_consistent = verdict.arena_consistent && e.arena_consistent();
    verdict.ir_sound = verdict.ir_sound && e.ir.passed();
  }
}

std::string VerificationEvidence::verdict_line() const {
  std::ostringstream os;
  os << (verdict.passed() ? "PASS" : "FAIL")
     << " bounded=" << (verdict.output_bounded ? 1 : 0)
     << " nan_free=" << (verdict.nan_free ? 1 : 0)
     << " arena=" << (verdict.arena_consistent ? 1 : 0)
     << " ir=" << (verdict.ir_sound ? 1 : 0) << " engines=" << engines.size()
     << " output=[" << output_lo << "," << output_hi << "]";
  return os.str();
}

std::string VerificationEvidence::to_text() const {
  const auto sound = [](bool b) { return b ? "OK" : "UNSOUND"; };
  std::ostringstream os;
  os << "verdict: " << verdict_line() << "\n";
  for (const EngineCheck& e : engines) {
    const bool int8 = e.elem == dl::ElemType::kInt8;
    const char* unit = int8 ? "bytes" : "floats";
    os << "engine " << e.channel << "." << e.replica << " "
       << dl::elem_name(e.elem) << " arena plan: required=" << e.required
       << " " << unit << " (shape-derived), planned=" << e.planned << " "
       << unit << " => " << (e.arena_consistent() ? "CONSISTENT" : "MISMATCH")
       << "\n";
    if (!e.ir.checked) continue;
    os << "  " << (int8 ? "int8 " : "")
       << "ir passes: structure=" << sound(e.ir.structure_sound)
       << " elimination=" << sound(e.ir.elimination_sound)
       << " fusion=" << sound(e.ir.fusion_sound)
       << " layout=" << sound(e.ir.layout_sound);
    if (int8) os << " bound=" << sound(e.ir.bound_sound);
    os << "; arena rederived=" << e.ir.rederived_elems
       << " planned=" << e.ir.planned_elems << " " << (int8 ? "bytes" : "elems")
       << ", removed=" << e.ir.layers_removed
       << " fused=" << e.ir.layers_fused << "\n";
  }
  os << "per-layer output intervals (ODD-bounded abstract interpretation):\n";
  os << std::setprecision(4);
  for (const auto& l : layers) {
    os << "  layer " << l.index << " " << dl::to_string(l.kind) << ": ["
       << l.min_lo << ", " << l.max_hi << "] width<=" << l.max_width
       << (l.finite ? "" : "  ** NON-FINITE **") << "\n";
  }
  if (!quant.empty()) {
    os << "int8 saturation margins (static bound vs scale*127):\n";
    for (const auto& q : quant) {
      os << "  layer " << q.layer << " " << dl::to_string(q.kind)
         << ": |act|<=" << q.static_absmax << " representable<="
         << q.representable_absmax
         << (q.saturation_possible ? "  saturation POSSIBLE"
                                   : "  headroom OK")
         << "\n";
    }
  }
  return os.str();
}

IntervalTensor odd_input_interval(const tensor::Shape& input_shape,
                                  const trace::OddSpec& odd) {
  if (!(odd.value_min <= odd.value_max))
    throw std::invalid_argument("odd_input_interval: empty value envelope");
  IntervalTensor iv{Tensor{input_shape}, Tensor{input_shape}};
  iv.lo.fill(odd.value_min);
  iv.hi.fill(odd.value_max);
  return iv;
}

std::vector<IntervalTensor> analyze_ranges(const dl::Model& model,
                                           const IntervalTensor& input) {
  if (input.lo.shape() != model.input_shape() ||
      input.hi.shape() != model.input_shape())
    throw std::invalid_argument("analyze_ranges: input shape mismatch");
  std::vector<IntervalTensor> out;
  out.reserve(model.layer_count() + 1);
  out.push_back(IntervalTensor{input.lo, input.hi});
  for (std::size_t i = 0; i < model.layer_count(); ++i)
    out.push_back(propagate_interval(model.layer(i), out.back(),
                                     model.activation_shape(i)));
  return out;
}

namespace {

constexpr std::size_t kNoIdx = ~std::size_t{0};

/// One source-model layer as the checker sees it: kind and output
/// element count.
struct ChainLayer {
  dl::LayerKind kind{};
  std::size_t out_elems = 0;
};

std::vector<ChainLayer> float_chain(const dl::Model& model) {
  std::vector<ChainLayer> layers;
  layers.reserve(model.layer_count());
  Shape shape = model.input_shape();
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    shape = model.layer(i).output_shape(shape);
    layers.push_back({model.layer(i).kind(), shape.size()});
  }
  return layers;
}

std::vector<ChainLayer> quant_chain(const dl::QuantizedModel& q) {
  std::vector<ChainLayer> layers;
  layers.reserve(q.layer_count());
  for (std::size_t i = 0; i < q.layer_count(); ++i)
    layers.push_back({q.layer_view(i).kind, q.activation_shape(i).size()});
  return layers;
}

/// The reference loops' arena: two ping-pong buffers, each sized for the
/// largest activation, input included (elements: floats, or int8 bytes).
std::size_t ping_pong_demand(std::size_t input_elems,
                             const std::vector<ChainLayer>& layers) {
  std::size_t max_activation = input_elems;
  for (const ChainLayer& l : layers)
    max_activation = std::max(max_activation, l.out_elems);
  return 2 * max_activation;
}

/// One surviving operation of the checker's independent re-derivation.
struct DerivedOp {
  dl::LayerKind kind{};
  std::size_t layer = 0;
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;
  std::size_t fused_layer = kNoIdx;
  dl::LayerKind fused_kind{};
};

struct DerivedPlan {
  std::size_t input_elems = 0;
  bool input_in_arena = false;
  std::vector<DerivedOp> ops;  ///< surviving ops in execution order
  std::size_t total_elems = 0; ///< first-fit liveness arena total
  std::size_t removed = 0;     ///< layers a sound dce pass eliminates
  std::size_t fused = 0;       ///< fusions the dataflow facts admit
};

/// Re-runs the whole static-analysis chain from the model layers alone:
/// which layers are bit identities (flatten; relu over an already
/// rectified value), which producer/activation pairs the single-use
/// dataflow facts let fuse (honoring a pinned tap layer), and the
/// deterministic first-fit coloring of the surviving value lifetimes.
/// This mirrors the documented pass contracts without executing any
/// src/ir code, so a corrupted pass result cannot corrupt the checker.
DerivedPlan derive_plan(std::size_t input_elems, bool input_in_arena,
                        const std::vector<ChainLayer>& layers,
                        bool fuse_sigmoid_tanh, std::size_t pin_layer) {
  DerivedPlan d;
  d.input_elems = input_elems;
  d.input_in_arena = input_in_arena;

  // Elimination facts: a flatten is a verbatim copy; a relu whose
  // (surviving) producer is itself a relu is idempotent. On a sequential
  // chain everything else is reachable from the output.
  std::size_t cur_elems = input_elems;
  bool have_def = false;
  dl::LayerKind def_kind{};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ChainLayer& l = layers[i];
    const bool identity =
        l.kind == dl::LayerKind::kFlatten ||
        (l.kind == dl::LayerKind::kRelu && have_def &&
         def_kind == dl::LayerKind::kRelu);
    if (identity) {
      ++d.removed;
      continue;
    }
    DerivedOp op;
    op.kind = l.kind;
    op.layer = i;
    op.in_elems = cur_elems;
    op.out_elems = l.out_elems;
    d.ops.push_back(op);
    cur_elems = l.out_elems;
    have_def = true;
    def_kind = l.kind;
  }

  // Fusion legality: a dense/conv producer whose output's single reader
  // is the immediately following activation absorbs it — unless a pinned
  // tap needs the pre-activation value materialized.
  for (std::size_t j = 0; j + 1 < d.ops.size();) {
    const bool producer = d.ops[j].kind == dl::LayerKind::kDense ||
                          d.ops[j].kind == dl::LayerKind::kConv2d;
    const dl::LayerKind ck = d.ops[j + 1].kind;
    const bool act = ck == dl::LayerKind::kRelu ||
                     (fuse_sigmoid_tanh && (ck == dl::LayerKind::kSigmoid ||
                                            ck == dl::LayerKind::kTanh));
    const bool pinned = pin_layer != kNoIdx && d.ops[j].layer < pin_layer &&
                        pin_layer <= d.ops[j + 1].layer;
    if (producer && act && !pinned && d.ops[j].fused_layer == kNoIdx) {
      d.ops[j].fused_layer = d.ops[j + 1].layer;
      d.ops[j].fused_kind = ck;
      d.ops[j].out_elems = d.ops[j + 1].out_elems;
      d.ops.erase(d.ops.begin() + j + 1);
      ++d.fused;
    }
    ++j;
  }

  // Liveness coloring: value lifetimes over execution positions, placed
  // by deterministic first-fit in the contractual order (per op its
  // output, then the in-arena input).
  struct Placed {
    std::size_t off, elems, b, e;
  };
  std::vector<Placed> placed;
  auto place = [&](std::size_t elems, std::size_t b, std::size_t e) {
    std::size_t off = 0;
    bool moved = true;
    while (moved) {
      moved = false;
      for (const Placed& a : placed) {
        if (b > a.e || a.b > e) continue;  // lifetimes disjoint
        if (off < a.off + a.elems && a.off < off + elems) {
          off = a.off + a.elems;
          moved = true;
        }
      }
    }
    placed.push_back({off, elems, b, e});
    d.total_elems = std::max(d.total_elems, off + elems);
    return off;
  };
  const std::size_t m = d.ops.size();
  for (std::size_t j = 0; j < m; ++j)
    place(d.ops[j].out_elems, j, j + 1 < m ? j + 1 : j);
  if (input_in_arena) place(input_elems, 0, 0);
  return d;
}

/// The checker's own LayerKind -> OpKind expectation (never dl/lower).
ir::OpKind expected_opkind(dl::LayerKind k) noexcept {
  switch (k) {
    case dl::LayerKind::kDense: return ir::OpKind::kDense;
    case dl::LayerKind::kConv2d: return ir::OpKind::kConv2d;
    case dl::LayerKind::kRelu: return ir::OpKind::kRelu;
    case dl::LayerKind::kSigmoid: return ir::OpKind::kSigmoid;
    case dl::LayerKind::kTanh: return ir::OpKind::kTanh;
    case dl::LayerKind::kMaxPool2d: return ir::OpKind::kMaxPool2d;
    case dl::LayerKind::kAvgPool2d: return ir::OpKind::kAvgPool2d;
    case dl::LayerKind::kFlatten: return ir::OpKind::kFlatten;
    case dl::LayerKind::kSoftmax: return ir::OpKind::kSoftmax;
    case dl::LayerKind::kBatchNorm: return ir::OpKind::kBatchNorm;
  }
  return ir::OpKind::kFlatten;
}

/// Compares a plan's optimized program + arena layout against the
/// independent re-derivation, axis by axis.
IrCheck check_against(const ir::Program& p, const ir::ArenaLayout& layout,
                      const DerivedPlan& d, std::size_t model_layers,
                      std::size_t output_elems) {
  IrCheck c;
  c.checked = true;
  c.rederived_elems = d.total_elems;
  c.planned_elems = layout.total_elems;
  c.layers_removed = d.removed;
  c.layers_fused = d.fused;

  // Structure: a well-formed graph whose envelope matches the model.
  c.structure_sound =
      p.well_formed() && p.layer_count == model_layers &&
      p.input_in_arena == d.input_in_arena && p.input_value != ir::kNone &&
      p.values[p.input_value].elems == d.input_elems &&
      p.output_value != ir::kNone &&
      p.values[p.output_value].elems == output_elems;

  // Elimination: the surviving ops must be exactly the re-derived set, in
  // execution order, with matching shapes.
  std::vector<const ir::Op*> live;
  for (const ir::Op& op : p.ops)
    if (op.live) live.push_back(&op);
  bool elim = live.size() == d.ops.size();
  if (elim) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      const ir::Op& op = *live[i];
      const DerivedOp& e = d.ops[i];
      if (op.layer != e.layer || op.kind != expected_opkind(e.kind) ||
          p.values[op.input].elems != e.in_elems ||
          p.values[op.output].elems != e.out_elems)
        elim = false;
    }
  }
  c.elimination_sound = elim;

  // Fusion: annotations are judged per layer, not per position, so a
  // forged fused-epilogue marker is reported on this axis even when the
  // surviving set already disagrees (elimination unsound). Live ops whose
  // layer the re-derivation does not know are elimination's problem.
  bool fus = true;
  std::map<std::size_t, const DerivedOp*> by_layer;
  for (const DerivedOp& e : d.ops) by_layer[e.layer] = &e;
  for (const ir::Op* op : live) {
    const auto it = by_layer.find(op->layer);
    if (it == by_layer.end()) continue;
    const DerivedOp& e = *it->second;
    const bool efused = e.fused_layer != kNoIdx;
    if ((op->fused_layer != ir::kNone) != efused ||
        (efused && (op->fused_layer != e.fused_layer ||
                    op->fused_kind != expected_opkind(e.fused_kind))))
      fus = false;
  }
  c.fusion_sound = fus;

  // Layout: the claimed total must equal the re-derived first-fit total,
  // every assigned block must fit under it, inputs must chain, and no two
  // lifetime-overlapping blocks may share space (pairwise interference
  // over the plan's own offsets — an under-reported total or an aliased
  // slot fails here even though the per-op offsets look individually
  // plausible). With elimination unsound the offsets have no op set to be
  // validated against, so layout is conservatively unsound too.
  bool lay = elim && layout.total_elems == d.total_elems;
  if (lay) {
    struct Block {
      std::size_t off, elems, b, e;
    };
    std::vector<Block> blocks;
    if (d.input_in_arena) {
      if (layout.input_offset == ir::kNone)
        lay = false;
      else
        blocks.push_back({layout.input_offset, d.input_elems, 0, 0});
    }
    const std::size_t m = d.ops.size();
    for (std::size_t i = 0; lay && i < m; ++i) {
      const ir::ArenaAssignment& slot = layout.per_op[live[i]->id];
      const std::size_t expected_in =
          i == 0 ? (d.input_in_arena ? layout.input_offset : ir::kNone)
                 : layout.per_op[live[i - 1]->id].out_offset;
      if (slot.in_offset != expected_in) lay = false;
      if (slot.out_offset == ir::kNone) {
        lay = false;
        break;
      }
      blocks.push_back(
          {slot.out_offset, d.ops[i].out_elems, i, i + 1 < m ? i + 1 : i});
    }
    for (std::size_t i = 0; lay && i < blocks.size(); ++i) {
      if (blocks[i].off + blocks[i].elems > layout.total_elems) lay = false;
      for (std::size_t j = i + 1; lay && j < blocks.size(); ++j) {
        const Block& a = blocks[i];
        const Block& b = blocks[j];
        if (a.b > b.e || b.b > a.e) continue;  // lifetimes disjoint
        if (a.off < b.off + b.elems && b.off < a.off + a.elems)
          lay = false;  // shared bytes while both alive
      }
    }
  }
  c.layout_sound = lay;
  return c;
}

}  // namespace

IrCheck check_ir(const dl::Model& model, const dl::KernelPlan& plan) {
  const DerivedPlan d =
      derive_plan(model.input_shape().size(), /*input_in_arena=*/false,
                  float_chain(model), /*fuse_sigmoid_tanh=*/true,
                  plan.pin_tap_layer());
  return check_against(plan.program(), plan.layout(), d,
                       model.layer_count(), model.output_shape().size());
}

IrCheck check_ir(const dl::QuantizedModel& quantized,
                 const dl::QuantKernelPlan& plan) {
  const DerivedPlan d =
      derive_plan(quantized.input_shape().size(), /*input_in_arena=*/true,
                  quant_chain(quantized), /*fuse_sigmoid_tanh=*/false,
                  kNoIdx);
  IrCheck c = check_against(plan.program(), plan.layout(), d,
                            quantized.layer_count(),
                            quantized.output_shape().size());
  // No-overflow evidence, re-derived from the layer itself: the SIMD arms
  // regroup int32 partial sums of u8-shifted activations (0..255) times
  // int8 weights, exact only while k_len * 255 * 128 stays below 2^31.
  namespace qk = tensor::qkernels;
  constexpr std::uint64_t kInt32Limit = std::uint64_t{1} << 31;
  for (const dl::QuantKernelStep& s : plan.steps()) {
    using Kind = dl::QuantKernelStep::Kind;
    if (s.kind == Kind::kReference || s.kind == Kind::kMaxPool) continue;
    if (s.first_layer >= quantized.layer_count()) {
      c.bound_sound = false;
      continue;
    }
    const dl::QuantizedModel::QLayerView v =
        quantized.layer_view(s.first_layer);
    std::uint64_t k_len = 0;
    bool scalar = false;
    if (s.kind == Kind::kDense && v.kind == dl::LayerKind::kDense) {
      k_len = v.in_dim;
      scalar = s.dense_fn == qk::wide_qdense_kernel(qk::QArm::kScalar);
    } else if (s.kind == Kind::kConv2d && v.kind == dl::LayerKind::kConv2d) {
      k_len = static_cast<std::uint64_t>(v.in_c) * v.k * v.k;
      scalar = s.conv_fn == qk::wide_qconv_kernel(qk::QArm::kScalar);
    } else {
      c.bound_sound = false;
      continue;
    }
    const std::uint64_t bound = k_len * 255u * 128u;
    if (s.mac_bound != bound || (bound >= kInt32Limit && !scalar))
      c.bound_sound = false;
  }
  return c;
}

namespace {

/// check_engine for either element type: `Plan` is the plan class an
/// engine of `elem` runs, `chain` the model's layer chain.
template <class Plan, class M>
EngineCheck check_engine_of(const M& model, const dl::Engine& engine,
                            dl::ElemType elem,
                            std::vector<ChainLayer> (*chain)(const M&)) {
  if (engine.elem() != elem)
    throw std::invalid_argument(
        "check_engine: the engine's element type is not the model's");
  EngineCheck c;
  c.elem = elem;
  c.planned = engine.arena_capacity();
  // A planned engine's demand is the first-fit total check_ir re-derives
  // with the plan's own pin (int8: with the in-arena input slot, and the
  // no-overflow bounds alongside).
  if (const auto* plan = dynamic_cast<const Plan*>(engine.plan())) {
    c.ir = check_ir(model, *plan);
    c.required = c.ir.rederived_elems;
  } else {
    c.required = ping_pong_demand(model.input_shape().size(), chain(model));
  }
  return c;
}

}  // namespace

EngineCheck check_engine(const dl::Model& model, const dl::Engine& engine) {
  return check_engine_of<dl::KernelPlan>(model, engine,
                                         dl::ElemType::kFloat32, float_chain);
}

EngineCheck check_engine(const dl::QuantizedModel& quantized,
                         const dl::Engine& engine) {
  return check_engine_of<dl::QuantKernelPlan>(
      quantized, engine, dl::ElemType::kInt8, quant_chain);
}

VerificationEvidence verify_model(const dl::Model& model,
                                  const trace::OddSpec& odd,
                                  std::vector<EngineCheck> engines) {
  VerificationEvidence ev;
  ev.set_engines(std::move(engines));
  ev.verdict.nan_free = params_nan_safe(model);

  const auto ranges =
      analyze_ranges(model, odd_input_interval(model.input_shape(), odd));
  ev.layers.reserve(model.layer_count());
  bool bounded = true;
  bool propagated_clean = true;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    LayerRangeSummary s =
        summarize(i, model.layer(i).kind(), ranges[i + 1]);
    bounded = bounded && s.finite;
    propagated_clean = propagated_clean && ranges[i + 1].well_formed();
    ev.layers.push_back(s);
  }
  ev.verdict.output_bounded = bounded;
  // A malformed interval (lo > hi, or NaN) anywhere means the abstract
  // state lost soundness — treat it as NaN-reachable, never as a pass.
  ev.verdict.nan_free = ev.verdict.nan_free && propagated_clean;

  const IntervalTensor& out = ranges.back();
  ev.output_lo = out.lo.at(0);
  ev.output_hi = out.hi.at(0);
  for (std::size_t i = 0; i < out.lo.size(); ++i) {
    ev.output_lo = std::min(ev.output_lo, out.lo.at(i));
    ev.output_hi = std::max(ev.output_hi, out.hi.at(i));
  }
  return ev;
}

std::vector<QuantSaturationCheck> check_quant_saturation(
    const dl::Model& model, const dl::QuantizedModel& quantized,
    const trace::OddSpec& odd) {
  if (model.layer_count() != quantized.layer_count())
    throw std::invalid_argument(
        "check_quant_saturation: layer count mismatch (pass the folded "
        "float model the quantized model was produced from)");
  const auto ranges =
      analyze_ranges(model, odd_input_interval(model.input_shape(), odd));
  std::vector<QuantSaturationCheck> checks;
  checks.reserve(model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    QuantSaturationCheck q;
    q.layer = i;
    q.kind = model.layer(i).kind();
    q.static_absmax = interval_absmax(ranges[i + 1]);
    q.representable_absmax = quantized.activation_scale(i) * 127.0f;
    q.saturation_possible = q.static_absmax > q.representable_absmax;
    checks.push_back(q);
  }
  return checks;
}

SaturationCrossCheck cross_check_saturation(
    const std::vector<QuantSaturationCheck>& checks,
    std::span<const std::uint64_t> measured) {
  if (checks.size() != measured.size())
    throw std::invalid_argument(
        "cross_check_saturation: checks and measured counters must cover "
        "the same layers");
  SaturationCrossCheck x;
  x.layers_checked = checks.size();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    x.measured_total += measured[i];
    if (checks[i].saturation_possible) {
      ++x.flagged;
    } else {
      ++x.statically_safe;
      if (measured[i] != 0) ++x.violations;
    }
  }
  x.consistent = x.violations == 0;
  return x;
}

}  // namespace sx::verify
