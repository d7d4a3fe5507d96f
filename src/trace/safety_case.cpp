#include "trace/safety_case.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/text_codec.hpp"

namespace sx::trace {
namespace {

const char* prefix(NodeKind k) {
  switch (k) {
    case NodeKind::kGoal: return "G";
    case NodeKind::kStrategy: return "S";
    case NodeKind::kSolution: return "Sn";
  }
  return "?";
}

/// ` [= value unit]` suffix of a quantified node ("" otherwise).
std::string quantified_suffix(const CaseNode& n) {
  if (!n.quantified) return {};
  // Shortest round-trip form: equal values render byte-identically.
  std::string out = " [= " + util::format_double(n.value);
  if (!n.unit.empty()) {
    out += ' ';
    out += n.unit;
  }
  out += ']';
  return out;
}

}  // namespace

std::size_t SafetyCase::set_root_goal(std::string id, std::string text) {
  if (has_root_) throw std::logic_error("SafetyCase: root already set");
  nodes_.push_back(CaseNode{.kind = NodeKind::kGoal,
                            .id = std::move(id),
                            .text = std::move(text),
                            .children = {},
                            .unit = {}});
  has_root_ = true;
  return 0;
}

std::size_t SafetyCase::add_node(std::size_t parent, NodeKind kind,
                                 std::string id, std::string text) {
  if (parent >= nodes_.size())
    throw std::invalid_argument("SafetyCase: bad parent index");
  if (nodes_[parent].kind == NodeKind::kSolution)
    throw std::invalid_argument("SafetyCase: solutions are leaves");
  nodes_.push_back(CaseNode{.kind = kind,
                            .id = std::move(id),
                            .text = std::move(text),
                            .children = {},
                            .unit = {}});
  nodes_[parent].children.push_back(nodes_.size() - 1);
  return nodes_.size() - 1;
}

std::size_t SafetyCase::add_goal(std::size_t parent, std::string id,
                                 std::string text) {
  return add_node(parent, NodeKind::kGoal, std::move(id), std::move(text));
}

std::size_t SafetyCase::add_strategy(std::size_t parent, std::string id,
                                     std::string text) {
  return add_node(parent, NodeKind::kStrategy, std::move(id), std::move(text));
}

std::size_t SafetyCase::add_solution(std::size_t parent, std::string id,
                                     std::string text) {
  return add_node(parent, NodeKind::kSolution, std::move(id), std::move(text));
}

std::size_t SafetyCase::add_quantified_solution(std::size_t parent,
                                                std::string id,
                                                std::string text, double value,
                                                std::string unit) {
  const std::size_t idx =
      add_node(parent, NodeKind::kSolution, std::move(id), std::move(text));
  nodes_[idx].quantified = true;
  nodes_[idx].value = value;
  nodes_[idx].unit = std::move(unit);
  return idx;
}

// The subtree walks below use an explicit work list instead of call
// recursion: stack demand is one vector bounded by the node count, and the
// traversal terminates because children always carry larger indices than
// their parent (nodes are append-only).
bool SafetyCase::has_solution_beneath(std::size_t idx) const {
  std::vector<std::size_t> work{idx};
  while (!work.empty()) {
    const CaseNode& n = nodes_[work.back()];
    work.pop_back();
    if (n.kind == NodeKind::kSolution) return true;
    work.insert(work.end(), n.children.begin(), n.children.end());
  }
  return false;
}

bool SafetyCase::has_goal_beneath(std::size_t idx) const {
  std::vector<std::size_t> work(nodes_[idx].children.begin(),
                                nodes_[idx].children.end());
  while (!work.empty()) {
    const CaseNode& n = nodes_[work.back()];
    work.pop_back();
    if (n.kind == NodeKind::kGoal) return true;
    work.insert(work.end(), n.children.begin(), n.children.end());
  }
  return false;
}

std::vector<std::string> SafetyCase::undischarged_goals() const {
  // A goal discharges either through evidence beneath it or by delegating
  // to sub-goals; only leaf goals (no goal descendants) must carry evidence
  // themselves.
  std::vector<std::string> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CaseNode& n = nodes_[i];
    if (n.kind != NodeKind::kGoal) continue;
    if (has_goal_beneath(i)) continue;
    if (!has_solution_beneath(i)) out.push_back(n.id);
  }
  return out;
}

void SafetyCase::render(std::size_t idx, std::size_t depth,
                        std::string& out) const {
  // Pre-order walk via explicit (node, depth) stack; children pushed in
  // reverse so the leftmost child is rendered first.
  std::vector<std::pair<std::size_t, std::size_t>> work{{idx, depth}};
  while (!work.empty()) {
    const auto [cur, d] = work.back();
    work.pop_back();
    const CaseNode& n = nodes_[cur];
    out.append(2 * d, ' ');
    out += "[";
    out += prefix(n.kind);
    out += "] ";
    out += n.id;
    out += ": ";
    out += n.text;
    out += quantified_suffix(n);
    out += '\n';
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
      work.emplace_back(*it, d + 1);
  }
}

std::string SafetyCase::to_text() const {
  std::string out;
  if (has_root_) render(0, 0, out);
  return out;
}

std::string SafetyCase::to_dot() const {
  std::string out = "digraph safety_case {\n  rankdir=TB;\n";
  auto escape = [](const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"' || c == '\\') r += '\\';
      r += c;
    }
    return r;
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CaseNode& n = nodes_[i];
    const char* shape = n.kind == NodeKind::kGoal
                            ? "box"
                            : (n.kind == NodeKind::kStrategy ? "parallelogram"
                                                             : "circle");
    out += "  n" + std::to_string(i) + " [shape=" + shape + ", label=\"" +
           escape(n.id) + "\\n" + escape(n.text + quantified_suffix(n)) +
           "\"];\n";
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    for (std::size_t c : nodes_[i].children)
      out += "  n" + std::to_string(i) + " -> n" + std::to_string(c) + ";\n";
  out += "}\n";
  return out;
}

}  // namespace sx::trace
