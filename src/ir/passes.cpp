#include "ir/passes.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace sx::ir {
namespace {

/// Follows a value-forwarding map to its root. The map only ever points
/// "backwards" (an op's output to its input), so the walk is bounded by
/// the chain length.
std::size_t resolve(const std::vector<std::size_t>& fwd, std::size_t v) {
  while (fwd[v] != v) v = fwd[v];
  return v;
}

}  // namespace

std::string PassEvidence::summary() const {
  std::ostringstream out;
  out << "pass=" << pass << " layers_removed=" << layers_removed
      << " layers_fused=" << layers_fused << " bytes_saved=" << bytes_saved
      << " | " << facts;
  return out.str();
}

PassEvidence run_dce(Program& p) {
  PassEvidence ev;
  ev.pass = "dce";
  // Phase 1 — identity forwarding: rewire consumers of a bit-identical
  // op's output to read its input instead. Flatten is a verbatim copy;
  // relu applied to an already-rectified value is idempotent, so a relu
  // whose (resolved) input is defined by another relu forwards too.
  std::vector<std::size_t> fwd(p.values.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) fwd[i] = i;
  std::size_t forwarded = 0;
  for (auto& op : p.ops) {
    if (!op.live) continue;
    op.input = resolve(fwd, op.input);
    bool identity = false;
    if (op.kind == OpKind::kFlatten) {
      identity = true;
    } else if (op.kind == OpKind::kRelu) {
      const std::size_t def = p.values[op.input].def_op;
      identity = def != kNone && p.ops[def].kind == OpKind::kRelu;
    }
    if (identity) {
      fwd[op.output] = op.input;
      ++forwarded;
    }
  }
  p.output_value = resolve(fwd, p.output_value);
  // Phase 2 — backward reachability from the program output: walk the
  // def-chain; every op not on it is dead (the forwarded identities end
  // up here because nothing reads their outputs any more).
  std::vector<bool> needed(p.ops.size(), false);
  std::size_t v = p.output_value;
  while (p.values[v].def_op != kNone) {
    const Op& d = p.ops[p.values[v].def_op];
    if (needed[d.id]) break;  // defensive: a cycle would be malformed
    needed[d.id] = true;
    v = d.input;
  }
  std::size_t removed = 0;
  std::size_t bytes = 0;
  for (auto& op : p.ops) {
    if (!op.live || needed[op.id]) continue;
    op.live = false;
    ++removed;
    bytes += p.values[op.output].elems * p.elem_bytes;
  }
  p.rebuild_uses();
  std::ostringstream facts;
  facts << "identity-forwarded " << forwarded
        << " op(s) (flatten bit-copy, relu-after-relu idempotent); "
        << "backward reachability from v" << p.output_value << " kept "
        << p.live_op_count() << " op(s)";
  ev.facts = facts.str();
  ev.layers_removed = removed;
  ev.bytes_saved = bytes;
  return ev;
}

PassEvidence run_fusion(Program& p, const PassOptions& opts) {
  PassEvidence ev;
  ev.pass = "fusion";
  std::size_t fused = 0;
  std::size_t bytes = 0;
  for (auto& op : p.ops) {
    if (!op.live || !is_fusion_producer(op.kind)) continue;
    if (op.fused_layer != kNone) continue;
    const Value& out = p.values[op.output];
    // Legality is a dataflow fact: the pre-activation value must have
    // exactly one live reader (an activation) and must not be the program
    // output or a pinned tap point — fusing destroys its materialization.
    if (out.uses.size() != 1) continue;
    if (op.output == p.output_value) continue;
    Op& c = p.ops[out.uses[0]];
    if (!is_activation(c.kind)) continue;
    if (!opts.fuse_sigmoid_tanh && c.kind != OpKind::kRelu) continue;
    if (opts.pin_layer != kNone && op.layer < opts.pin_layer &&
        opts.pin_layer <= c.layer)
      continue;  // the tap at pin_layer reads the pre-activation chain
    op.fused_layer = c.layer;
    op.fused_kind = c.kind;
    bytes += out.elems * p.elem_bytes;
    op.output = c.output;
    p.values[c.output].def_op = op.id;
    c.live = false;
    ++fused;
  }
  p.rebuild_uses();
  std::ostringstream facts;
  facts << "single-use def/use chains; producers dense/conv; epilogues relu";
  if (opts.fuse_sigmoid_tanh) facts << "/sigmoid/tanh";
  if (opts.pin_layer != kNone)
    facts << "; tap at layer " << opts.pin_layer << " pinned";
  ev.facts = facts.str();
  ev.layers_fused = fused;
  ev.bytes_saved = bytes;
  return ev;
}

ArenaLayout plan_arena(const Program& p) {
  ArenaLayout layout;
  layout.value_offset.assign(p.values.size(), kNone);
  layout.per_op.assign(p.ops.size(), ArenaAssignment{});

  std::vector<std::size_t> exec;  // live op ids in execution order
  for (const auto& op : p.ops)
    if (op.live) exec.push_back(op.id);
  std::vector<std::size_t> pos_of(p.ops.size(), kNone);
  for (std::size_t i = 0; i < exec.size(); ++i) pos_of[exec[i]] = i;

  // Live interval of a value over execution positions: defined at its
  // def op's position (position 0 for the program input), last read at
  // the max position among its uses.
  auto live_range = [&](const Value& v, std::size_t& begin,
                        std::size_t& end) {
    begin = v.def_op == kNone ? 0 : pos_of[v.def_op];
    end = begin;
    for (const std::size_t u : v.uses) end = std::max(end, pos_of[u]);
  };

  // Deterministic first-fit over interval-interference: a candidate
  // offset starts at 0 and bumps past every placed block whose interval
  // intersects ours, until stable — which yields the minimal feasible
  // offset independent of scan order.
  struct Placed {
    std::size_t offset, elems, begin, end;
  };
  std::vector<Placed> placed;
  auto place = [&](std::size_t elems, std::size_t begin, std::size_t end) {
    std::size_t offset = 0;
    bool moved = true;
    while (moved) {
      moved = false;
      for (const auto& a : placed) {
        if (begin > a.end || a.begin > end) continue;  // time-disjoint
        if (offset < a.offset + a.elems && a.offset < offset + elems) {
          offset = a.offset + a.elems;
          moved = true;
        }
      }
    }
    placed.push_back({offset, elems, begin, end});
    layout.total_elems = std::max(layout.total_elems, offset + elems);
    return offset;
  };

  // Placement order is part of the contract (verify re-derives it): per
  // exec op its output value, then the in-arena input slot. The input
  // lives at position 0 only, so placed last it fills a gap beside the
  // first op's output instead of pushing every later block up.
  for (const std::size_t id : exec) {
    const Op& op = p.ops[id];
    std::size_t b, e;
    live_range(p.values[op.output], b, e);
    layout.value_offset[op.output] = place(p.values[op.output].elems, b, e);
  }
  if (p.input_in_arena && p.input_value != kNone) {
    std::size_t b, e;
    live_range(p.values[p.input_value], b, e);
    layout.input_offset = place(p.values[p.input_value].elems, b, e);
    layout.value_offset[p.input_value] = layout.input_offset;
  }
  for (const std::size_t id : exec) {
    const Op& op = p.ops[id];
    ArenaAssignment& slot = layout.per_op[op.id];
    slot.out_offset = layout.value_offset[op.output];
    slot.in_offset = layout.value_offset[op.input];  // kNone when external
  }

  // The ping-pong worst case this layout replaces: two copies of the
  // largest value (input included).
  std::size_t max_value = p.input_value != kNone
                              ? p.values[p.input_value].elems
                              : 0;
  for (const auto& op : p.ops)
    if (op.live) max_value = std::max(max_value, p.values[op.output].elems);
  layout.naive_elems = 2 * max_value;
  return layout;
}

namespace {

/// SX_IR_PASS_FAULT: configuration-time fault injection into the pass
/// results, for proving the verify gate refuses unsound transformations.
/// Applied only here — lowering and the verify-side re-derivation never
/// consult it, so the corrupted plan faces an uncorrupted checker.
void apply_program_fault(Program& p, const std::string& fault,
                         std::vector<PassEvidence>& passes) {
  if (fault == "drop-op") {
    for (std::size_t i = p.ops.size(); i-- > 0;) {
      Op& op = p.ops[i];
      if (!op.live) continue;
      op.live = false;
      p.output_value = op.input;
      p.rebuild_uses();
      passes.push_back({"fault:drop-op",
                        "SX_IR_PASS_FAULT dropped op" + std::to_string(i),
                        1, 0, 0});
      return;
    }
  } else if (fault == "bogus-fuse") {
    for (auto& op : p.ops) {
      if (!op.live || op.fused_layer != kNone) continue;
      const Value& out = p.values[op.output];
      if (out.uses.size() != 1) continue;
      Op& c = p.ops[out.uses[0]];
      op.fused_layer = c.layer;
      op.fused_kind = c.kind;
      op.output = c.output;
      p.values[c.output].def_op = op.id;
      c.live = false;
      p.rebuild_uses();
      passes.push_back({"fault:bogus-fuse",
                        "SX_IR_PASS_FAULT fused op" + std::to_string(op.id) +
                            " with non-epilogue op" + std::to_string(c.id),
                        0, 1, 0});
      return;
    }
  }
}

void apply_layout_fault(const Program& p, ArenaLayout& layout,
                        const std::string& fault,
                        std::vector<PassEvidence>& passes) {
  if (fault == "shrink-arena") {
    if (layout.total_elems != 0) {
      layout.total_elems -= 1;
      passes.push_back({"fault:shrink-arena",
                        "SX_IR_PASS_FAULT under-reported arena demand by 1",
                        0, 0, 0});
    }
  } else if (fault == "overlap") {
    for (const auto& op : p.ops) {
      if (!op.live) continue;
      ArenaAssignment& slot = layout.per_op[op.id];
      if (slot.in_offset != kNone && slot.out_offset != kNone &&
          slot.in_offset != slot.out_offset) {
        slot.out_offset = slot.in_offset;
        passes.push_back({"fault:overlap",
                          "SX_IR_PASS_FAULT aliased output onto input of "
                          "op" + std::to_string(op.id),
                          0, 0, 0});
        return;
      }
    }
  }
}

}  // namespace

OptimizeResult optimize(Program& p, const PassOptions& opts) {
  OptimizeResult r;
  r.passes.push_back(run_dce(p));
  r.passes.push_back(run_fusion(p, opts));
  const char* env = std::getenv("SX_IR_PASS_FAULT");
  const std::string fault = env != nullptr ? env : "";
  if (!fault.empty()) apply_program_fault(p, fault, r.passes);
  r.layout = plan_arena(p);
  {
    PassEvidence ev;
    ev.pass = "liveness";
    std::ostringstream facts;
    facts << "interval coloring over " << p.live_op_count()
          << " exec op(s); arena " << r.layout.total_elems << "/"
          << r.layout.naive_elems << " elems vs ping-pong";
    ev.facts = facts.str();
    if (r.layout.naive_elems > r.layout.total_elems)
      ev.bytes_saved =
          (r.layout.naive_elems - r.layout.total_elems) * p.elem_bytes;
    r.passes.push_back(ev);
  }
  if (!fault.empty()) apply_layout_fault(p, r.layout, fault, r.passes);
  return r;
}

}  // namespace sx::ir
