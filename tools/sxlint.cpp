// sxlint — FUSA-conformance checker for the SAFEXPLAIN tree.
//
// A self-contained lexical analyzer (no external dependencies) that enforces
// the coding rules the runtime library claims to follow, so "we follow
// safety rules" becomes a checked, CI-enforced property instead of a
// convention:
//
//   banned-call        malloc/calloc/realloc/free/alloca/rand/srand/system/
//                      setjmp/longjmp anywhere under src/ — the library
//                      owns all memory via arenas and all randomness via
//                      seeded Xoshiro256.
//   banned-include     <iostream>/<cstdio>/<stdio.h> in runtime directories
//                      (dl/, safety/, rt/, core/, obs/, scenario/, ir/,
//                      fleet/, serve/):
//                      global stream objects drag in static-init order
//                      hazards and buffered IO.
//   console-io         std::cout/std::cerr/printf/... in runtime dirs.
//   heap-expr          raw `new` / `delete` expressions in runtime dirs;
//                      configuration-time ownership goes through
//                      make_unique, the inference path through arenas.
//   throw-in-noexcept  a `throw` inside a function declared noexcept: the
//                      runtime entry points (Layer::forward, engine run())
//                      are noexcept by contract, so this is exactly "an
//                      exception on the operational path" (it would
//                      std::terminate).
//   recursion          direct self-recursion without an explicit
//                      `// sxlint: allow(recursion)` bound marker —
//                      unbounded stack demand is unverifiable.
//   hot-path-alloc     dynamic allocation in the hot-kernel files
//                      (src/tensor/**, src/dl/plan.* and the other
//                      files is_hot_path() names): container
//                      growth calls (push_back/resize/reserve/...),
//                      make_unique/make_shared, and raw `new`. The kernel
//                      plan's contract is that every byte is owned at
//                      deploy time; the few legitimate configuration-time
//                      allocations (the arena's backing store, the plan's
//                      tables/panels) carry reviewed inline waivers.
//   recursion-cycle    whole-file call-graph cycles (mutual recursion,
//                      f -> g -> f). Each participant looks bounded in
//                      isolation — only the assembled per-file call graph
//                      exposes the unbounded combined stack demand, so
//                      this is the one rule that reasons across whole-file
//                      structure instead of a single definition.
//   weight-mutation    an element write into a deployed weight store
//                      (a params()/mutable_weights() span, or a local
//                      alias of one) outside the sanctioned
//                      inject_fault/undo_fault/repack entry points, in
//                      safety/ and the dl kernel files. The verified
//                      weight image is certification input; every other
//                      write site is either a reviewed repair/injection
//                      helper (inline waiver) or a defect.
//
// Waivers: an inline `// sxlint: allow(<rule>)` on the offending line, or a
// per-directory entry in kAllowlist below. Both are part of the reviewed
// tree, so every waiver is itself evidence.
//
// Exit status: 0 when the scanned tree is clean, 1 when findings remain,
// 2 on usage/IO errors. `--fix-dry-run` appends a remediation hint per
// finding (no file is ever modified).
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string fix;
};

struct AllowEntry {
  const char* dir;   // path component or suffix the waiver applies to
  const char* rule;  // rule id, or "*" for all rules
  const char* why;
};

// Per-directory allowlist. Deliberately empty: the shipped tree passes all
// rules without waivers. Add entries only with a written justification —
// they show up in the certification argument.
constexpr AllowEntry kAllowlist[] = {
    {"", "", ""},  // sentinel so the table compiles when empty
};

const std::set<std::string> kRuntimeDirs = {"dl",  "safety", "rt",   "core",
                                            "obs", "ir",     "scenario",
                                            "fleet", "serve"};

const std::set<std::string> kBannedCalls = {
    "malloc", "calloc", "realloc", "free",   "alloca",
    "rand",   "srand",  "system",  "setjmp", "longjmp"};

const std::set<std::string> kConsoleCalls = {"printf", "fprintf", "sprintf",
                                             "puts",   "putchar", "scanf",
                                             "fscanf"};

const std::set<std::string> kBannedIncludes = {"iostream", "cstdio",
                                               "stdio.h"};

// Container growth / ownership-taking calls that mean dynamic allocation
// when they appear in a hot-kernel file.
const std::set<std::string> kHotAllocCalls = {
    "push_back", "emplace_back", "resize",      "reserve",
    "insert",    "emplace",      "assign",      "shrink_to_fit",
    "make_unique", "make_shared"};

// Statement/declaration keywords that the function-definition scanner must
// never mistake for a function name (`if (...) {` parses like a definition).
const std::set<std::string> kStmtKeywords = {
    "if",     "for",    "while",  "switch", "return", "sizeof", "catch",
    "case",   "do",     "else",   "new",    "delete", "static", "const",
    "struct", "class",  "enum",   "using",  "public", "private"};

// Deployed weight stores: spans handed out by Model/QuantizedModel. The
// names double as the conventional local-alias names
// (`auto params = model.layer(l).params();`), so both the direct call form
// and the alias form are caught.
const std::set<std::string> kWeightStores = {"params", "weights",
                                             "mutable_weights"};

// The only entry points allowed to write a deployed weight store: fault
// injection/undo (safety::InferenceChannel contract) and panel repack
// after a weight change.
const std::set<std::string> kWeightWriters = {"inject_fault", "undo_fault",
                                              "repack"};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Replaces comments and string/char literals with spaces (newlines kept)
/// so the rule matchers never fire inside text. Lines carrying an
/// `sxlint: allow(<rule>)` marker are recorded before stripping.
struct StrippedSource {
  std::string text;
  std::map<std::size_t, std::set<std::string>> waivers;  // line -> rules
};

StrippedSource strip(const std::string& src) {
  StrippedSource out;
  out.text.assign(src.size(), ' ');
  std::size_t line = 1;
  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar };
  Mode mode = Mode::kCode;
  std::string comment;  // accumulates the current comment for waiver scan
  auto flush_comment = [&](std::size_t at_line) {
    const std::string tag = "sxlint: allow(";
    std::size_t pos = 0;
    while ((pos = comment.find(tag, pos)) != std::string::npos) {
      pos += tag.size();
      const std::size_t end = comment.find(')', pos);
      if (end == std::string::npos) break;
      out.waivers[at_line].insert(comment.substr(pos, end - pos));
      pos = end;
    }
    comment.clear();
  };
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (mode == Mode::kLineComment) {
        flush_comment(line);
        mode = Mode::kCode;
      }
      out.text[i] = '\n';
      ++line;
      continue;
    }
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && n == '/') {
          mode = Mode::kLineComment;
        } else if (c == '/' && n == '*') {
          mode = Mode::kBlockComment;
          ++i;
        } else if (c == '"') {
          mode = Mode::kString;
          out.text[i] = '"';
        } else if (c == '\'') {
          mode = Mode::kChar;
        } else {
          out.text[i] = c;
        }
        break;
      case Mode::kLineComment:
        comment += c;
        break;
      case Mode::kBlockComment:
        comment += c;
        if (c == '*' && n == '/') {
          flush_comment(line);
          mode = Mode::kCode;
          ++i;
        }
        break;
      case Mode::kString:
        if (c == '\\') {
          ++i;
          if (i < src.size() && src[i] == '\n') ++line;
        } else if (c == '"') {
          out.text[i] = '"';
          mode = Mode::kCode;
        }
        break;
      case Mode::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          mode = Mode::kCode;
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.begin() + static_cast<long>(pos),
                        '\n')) +
         1;
}

bool is_runtime_path(const fs::path& p) {
  for (const auto& part : p)
    if (kRuntimeDirs.count(part.string()) != 0) return true;
  return false;
}

/// Hot-kernel files under the zero-allocation contract: everything in a
/// tensor/ directory, plus the kernel plans (dl/plan.*, dl/qplan.*), the
/// quantized runtime (dl/quant.*) — its run()/apply_layer() hot path shares
/// the same "every byte owned at deploy time" contract — the float engine
/// (dl/engine.*), the batch pool's worker loop (dl/batch.*), the safety
/// channels' infer() (safety/channel.*) and the per-decision trust scorer
/// (supervise/tap_scorer.*).
bool is_hot_path(const fs::path& p) {
  std::string dir;
  for (const auto& part : p) {
    const std::string s = part.string();
    if (s == "tensor") return true;
    if (s == "dl" || s == "supervise" || s == "safety") dir = s;
  }
  const std::string stem = p.stem().string();
  if (dir == "supervise") return stem == "tap_scorer";
  if (dir == "safety") return stem == "channel";
  if (dir != "dl") return false;
  return stem == "plan" || stem == "qplan" || stem == "quant" ||
         stem == "engine" || stem == "batch";
}

/// Files that own or repair the deployed weight image: all of safety/
/// (fault injection, integrity scrub, channels) plus the dl plan and
/// engine files, whose Dense panels snapshot the weights (float and int8
/// convs read them live).
bool is_weight_store_path(const fs::path& p) {
  bool in_dl = false;
  for (const auto& part : p) {
    const std::string s = part.string();
    if (s == "safety") return true;
    if (s == "dl") in_dl = true;
  }
  if (!in_dl) return false;
  const std::string stem = p.stem().string();
  return stem == "plan" || stem == "qplan" || stem == "engine" ||
         stem == "quant";
}

bool allowlisted(const std::string& file, const std::string& rule) {
  for (const auto& a : kAllowlist) {
    if (a.dir[0] == '\0') continue;  // sentinel
    if (file.find(a.dir) == std::string::npos) continue;
    if (std::string(a.rule) == "*" || rule == a.rule) return true;
  }
  return false;
}

/// Next identifier token starting at or after `pos`; returns npos when none.
std::size_t next_ident(const std::string& t, std::size_t pos,
                       std::string* ident) {
  while (pos < t.size() && !ident_char(t[pos])) ++pos;
  if (pos >= t.size()) return std::string::npos;
  if (std::isdigit(static_cast<unsigned char>(t[pos]))) {
    while (pos < t.size() && ident_char(t[pos])) ++pos;
    return next_ident(t, pos, ident);
  }
  std::size_t end = pos;
  while (end < t.size() && ident_char(t[end])) ++end;
  *ident = t.substr(pos, end - pos);
  return pos;
}

std::size_t skip_ws(const std::string& t, std::size_t pos) {
  while (pos < t.size() &&
         std::isspace(static_cast<unsigned char>(t[pos])))
    ++pos;
  return pos;
}

/// Number of top-level arguments in the parenthesized list opening at
/// `open` (position of '('): 0 for an empty list, commas+1 otherwise.
std::size_t count_args(const std::string& t, std::size_t open) {
  int depth = 0;
  bool content = false;
  std::size_t commas = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) break;
    }
    if (c == '>' && depth > 1) --depth;  // crude template-angle balance
    if (depth == 1 && c == ',') ++commas;
    if (depth >= 1 && i > open &&
        !std::isspace(static_cast<unsigned char>(c)) && c != ')')
      content = true;
  }
  return content ? commas + 1 : 0;
}

/// Position one past the brace that matches the '{' at `open`.
std::size_t match_brace(const std::string& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i] == '{') ++depth;
    if (t[i] == '}') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return t.size();
}

/// True when the body [open,close) is exactly `{ [return] name(...); }` —
/// an overload delegating to a same-named sibling.
bool is_delegation_body(const std::string& t, std::size_t open,
                        std::size_t close, const std::string& name) {
  std::size_t cur = skip_ws(t, open + 1);
  std::string word;
  std::size_t wpos = next_ident(t, cur, &word);
  if (wpos == std::string::npos || wpos != cur) return false;
  if (word == "return") cur = skip_ws(t, cur + word.size());
  wpos = next_ident(t, cur, &word);
  if (wpos != cur || word != name) return false;
  cur = skip_ws(t, cur + word.size());
  if (cur >= t.size() || t[cur] != '(') return false;
  int depth = 0;
  for (; cur < t.size(); ++cur) {
    if (t[cur] == '(') ++depth;
    if (t[cur] == ')') {
      --depth;
      if (depth == 0) {
        ++cur;
        break;
      }
    }
  }
  cur = skip_ws(t, cur);
  if (cur >= t.size() || t[cur] != ';') return false;
  cur = skip_ws(t, cur + 1);
  return cur + 1 == close && t[cur] == '}';
}

class Linter {
 public:
  explicit Linter(bool fix_dry_run) : fix_(fix_dry_run) {}

  void scan_file(const fs::path& path) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "sxlint: cannot read " << path << "\n";
      io_error_ = true;
      return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();
    const StrippedSource s = strip(raw);
    const std::string file = path.generic_string();
    const bool runtime = is_runtime_path(path);
    const bool hot = is_hot_path(path);
    ++files_;

    check_includes(file, raw, s, runtime);
    check_identifiers(file, s, runtime);
    check_heap_exprs(file, s, runtime);
    check_noexcept_throw(file, s);
    check_recursion(file, s);
    check_call_graph(file, s);
    if (hot) check_hot_allocs(file, s);
    if (is_weight_store_path(path)) check_weight_mutation(file, s);
  }

  void report(std::ostream& os) const {
    for (const auto& f : findings_) {
      os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
         << "\n";
      if (fix_ && !f.fix.empty()) os << "    fix: " << f.fix << "\n";
    }
    os << "sxlint: " << findings_.size() << " finding(s), " << waived_
       << " waived, " << files_ << " file(s) scanned\n";
  }

  int exit_code() const {
    if (io_error_) return 2;
    return findings_.empty() ? 0 : 1;
  }

 private:
  void add(const std::string& file, const StrippedSource& s, std::size_t pos,
           const std::string& rule, std::string message, std::string fix) {
    const std::size_t line = line_of(s.text, pos);
    const auto it = s.waivers.find(line);
    if (it != s.waivers.end() && it->second.count(rule) != 0) {
      ++waived_;
      return;
    }
    if (allowlisted(file, rule)) {
      ++waived_;
      return;
    }
    findings_.push_back(
        {file, line, rule, std::move(message), std::move(fix)});
  }

  void check_includes(const std::string& file, const std::string& raw,
                      const StrippedSource& s, bool runtime) {
    if (!runtime) return;
    std::size_t pos = 0;
    while ((pos = raw.find("#include", pos)) != std::string::npos) {
      const std::size_t open = raw.find_first_of("<\"\n", pos + 8);
      if (open != std::string::npos && raw[open] != '\n') {
        const char close_ch = raw[open] == '<' ? '>' : '"';
        const std::size_t close = raw.find(close_ch, open + 1);
        if (close != std::string::npos) {
          const std::string header = raw.substr(open + 1, close - open - 1);
          if (kBannedIncludes.count(header) != 0)
            add(file, s, pos, "banned-include",
                "<" + header + "> included in a runtime directory",
                "report through sx::Status / core/report instead of "
                "stream IO");
        }
      }
      pos += 8;
    }
  }

  void check_identifiers(const std::string& file, const StrippedSource& s,
                         bool runtime) {
    const std::string& t = s.text;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      const std::size_t after = skip_ws(t, end);
      const bool called = after < t.size() && t[after] == '(';
      if (called && kBannedCalls.count(ident) != 0) {
        add(file, s, pos, "banned-call",
            "call to banned function '" + ident + "'",
            ident == "rand" || ident == "srand"
                ? "use the seeded util::Xoshiro256 generator"
                : "use tensor::Arena / std:: containers planned at "
                  "configuration time");
      } else if (called && runtime && kConsoleCalls.count(ident) != 0) {
        add(file, s, pos, "console-io",
            "console IO '" + ident + "' in a runtime directory",
            "emit evidence through core/report or trace::AuditLog");
      }
      if (runtime && (ident == "cout" || ident == "cerr" || ident == "clog") &&
          pos >= 2 && t[pos - 1] == ':' && t[pos - 2] == ':') {
        add(file, s, pos, "console-io",
            "std::" + ident + " in a runtime directory",
            "emit evidence through core/report or trace::AuditLog");
      }
      pos = end;
    }
  }

  void check_heap_exprs(const std::string& file, const StrippedSource& s,
                        bool runtime) {
    if (!runtime) return;
    const std::string& t = s.text;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      if (ident == "new") {
        const std::size_t after = skip_ws(t, end);
        if (after < t.size() && (ident_char(t[after]) || t[after] == '('))
          add(file, s, pos, "heap-expr",
              "raw `new` expression in a runtime directory",
              "own configuration-time memory via std::make_unique; "
              "inference-path memory via tensor::Arena");
      } else if (ident == "delete") {
        // `= delete;` (deleted special member) is a declaration, not a
        // heap operation.
        std::size_t before = pos;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(t[before - 1])))
          --before;
        if (before == 0 || t[before - 1] != '=')
          add(file, s, pos, "heap-expr",
              "raw `delete` expression in a runtime directory",
              "let std::unique_ptr / tensor::Arena own the lifetime");
      }
      pos = end;
    }
  }

  void check_hot_allocs(const std::string& file, const StrippedSource& s) {
    const std::string& t = s.text;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      const std::size_t after = skip_ws(t, end);
      // make_unique<T>(...) / container.resize(...): a call (possibly
      // through a template argument list) means allocation may happen.
      const bool called =
          after < t.size() && (t[after] == '(' || t[after] == '<');
      if (called && kHotAllocCalls.count(ident) != 0) {
        add(file, s, pos, "hot-path-alloc",
            "dynamic allocation ('" + ident + "') in a hot-kernel file",
            "size it at deploy time into plan-owned storage or the engine "
            "arena; waive genuine configuration-time allocations inline");
      } else if (ident == "new" && after < t.size() &&
                 (ident_char(t[after]) || t[after] == '(')) {
        add(file, s, pos, "hot-path-alloc",
            "raw `new` expression in a hot-kernel file",
            "own deploy-time memory via a waived make_unique; "
            "inference-path memory via tensor::Arena");
      }
      pos = end;
    }
  }

  void check_noexcept_throw(const std::string& file,
                            const StrippedSource& s) {
    const std::string& t = s.text;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      std::size_t end = pos + ident.size();
      if (ident != "noexcept") {
        pos = end;
        continue;
      }
      // Skip a conditional noexcept(...) argument list.
      std::size_t cur = skip_ws(t, end);
      if (cur < t.size() && t[cur] == '(') {
        int depth = 0;
        for (; cur < t.size(); ++cur) {
          if (t[cur] == '(') ++depth;
          if (t[cur] == ')') {
            --depth;
            if (depth == 0) {
              ++cur;
              break;
            }
          }
        }
      }
      // A function *definition* follows when the next structural token is
      // '{' (qualifiers like `override`/`final` may intervene); `;` or `=`
      // mean declaration / deleted-or-defaulted member — nothing to scan.
      std::size_t body = cur;
      while (body < t.size() && t[body] != '{' && t[body] != ';' &&
             t[body] != '=' && t[body] != '}')
        ++body;
      if (body < t.size() && t[body] == '{') {
        const std::size_t close = match_brace(t, body);
        std::string word;
        std::size_t wpos = body;
        while ((wpos = next_ident(t, wpos, &word)) != std::string::npos &&
               wpos < close) {
          if (word == "throw")
            add(file, s, wpos, "throw-in-noexcept",
                "`throw` inside a noexcept function (std::terminate on the "
                "operational path)",
                "return an sx::Status error code instead");
          wpos += word.size();
        }
        pos = close;
        continue;
      }
      pos = end;
    }
  }

  void check_recursion(const std::string& file, const StrippedSource& s) {
    const std::string& t = s.text;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      if (kStmtKeywords.count(ident) != 0) {
        pos = end;
        continue;
      }
      std::size_t cur = skip_ws(t, end);
      if (cur >= t.size() || t[cur] != '(') {
        pos = end;
        continue;
      }
      // Parameter list, then an optional run of qualifier tokens, then '{'
      // makes this a plausible function definition named `ident`.
      const std::size_t params = count_args(t, cur);
      int depth = 0;
      for (; cur < t.size(); ++cur) {
        if (t[cur] == '(') ++depth;
        if (t[cur] == ')') {
          --depth;
          if (depth == 0) {
            ++cur;
            break;
          }
        }
      }
      std::size_t body = cur;
      while (body < t.size() && t[body] != '{' && t[body] != ';' &&
             t[body] != '(' && t[body] != '}' && t[body] != ',' &&
             t[body] != ')' && t[body] != '=')
        ++body;
      if (body >= t.size() || t[body] != '{') {
        pos = end;
        continue;
      }
      const std::size_t close = match_brace(t, body);
      if (is_delegation_body(t, body, close, ident)) {
        // `{ [return] name(...); }` is an overload forwarding to a
        // sibling, not recursion (the recursive form would never return).
        pos = close;
        continue;
      }
      std::string word;
      std::size_t wpos = body;
      while ((wpos = next_ident(t, wpos, &word)) != std::string::npos &&
             wpos < close) {
        const std::size_t wend = wpos + word.size();
        if (word == ident) {
          // A self-call: not member access on another object, not a
          // `std::`/other-namespace-qualified name, and passing the same
          // number of arguments (a differing count targets an overload).
          const std::size_t after = skip_ws(t, wend);
          const bool qualified =
              wpos >= 1 && (t[wpos - 1] == '.' || t[wpos - 1] == ':' ||
                            (wpos >= 2 && t[wpos - 2] == '-' &&
                             t[wpos - 1] == '>'));
          if (!qualified && after < t.size() && t[after] == '(' &&
              count_args(t, after) == params)
            add(file, s, wpos, "recursion",
                "direct self-recursion in '" + ident +
                    "' without a bound marker",
                "rewrite iteratively, or document the depth bound with "
                "`// sxlint: allow(recursion)`");
        }
        wpos = wend;
      }
      pos = end;
    }
  }

  /// One function definition discovered by the whole-file scan: the name
  /// token position (where findings anchor), the body range, and the
  /// parameter count (used to match calls to overloads).
  struct FnDef {
    std::string name;
    std::size_t pos = 0;
    std::size_t body = 0;
    std::size_t close = 0;
    std::size_t params = 0;
  };

  /// Collects every plausible function definition in the stripped source,
  /// using the same lexical recognizer as check_recursion: identifier,
  /// balanced parameter list, optional qualifier tokens, then a braced
  /// body. Names in `only` restrict the collection when non-empty.
  static std::vector<FnDef> collect_defs(const std::string& t,
                                         const std::set<std::string>& only) {
    std::vector<FnDef> defs;
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      if (kStmtKeywords.count(ident) != 0 ||
          (!only.empty() && only.count(ident) == 0)) {
        pos = end;
        continue;
      }
      std::size_t cur = skip_ws(t, end);
      if (cur >= t.size() || t[cur] != '(') {
        pos = end;
        continue;
      }
      const std::size_t params = count_args(t, cur);
      int depth = 0;
      for (; cur < t.size(); ++cur) {
        if (t[cur] == '(') ++depth;
        if (t[cur] == ')') {
          --depth;
          if (depth == 0) {
            ++cur;
            break;
          }
        }
      }
      std::size_t body = cur;
      while (body < t.size() && t[body] != '{' && t[body] != ';' &&
             t[body] != '(' && t[body] != '}' && t[body] != ',' &&
             t[body] != ')' && t[body] != '=')
        ++body;
      if (body >= t.size() || t[body] != '{') {
        pos = end;
        continue;
      }
      defs.push_back({ident, pos, body, match_brace(t, body), params});
      pos = end;
    }
    return defs;
  }

  /// Whole-file call-graph cycle detection (rule `recursion-cycle`):
  /// mutual recursion f -> g -> f that the per-definition `recursion` rule
  /// cannot see. Edges connect same-file definitions through unqualified
  /// calls whose argument count matches a definition of the callee name;
  /// direct self-calls stay under the `recursion` rule. One finding per
  /// cycle, anchored at the lexically-first participant so the standard
  /// inline-waiver flow applies.
  void check_call_graph(const std::string& file, const StrippedSource& s) {
    const std::string& t = s.text;
    const std::vector<FnDef> defs = collect_defs(t, {});
    if (defs.size() < 2) return;
    std::map<std::string, std::vector<const FnDef*>> by_name;
    for (const auto& d : defs) by_name[d.name].push_back(&d);

    std::map<std::string, std::set<std::string>> edges;
    for (const auto& d : defs) {
      std::string word;
      std::size_t wpos = d.body;
      while ((wpos = next_ident(t, wpos, &word)) != std::string::npos &&
             wpos < d.close) {
        const std::size_t wend = wpos + word.size();
        if (word != d.name && by_name.count(word) != 0) {
          const std::size_t after = skip_ws(t, wend);
          const bool qualified =
              wpos >= 1 && (t[wpos - 1] == '.' || t[wpos - 1] == ':' ||
                            (wpos >= 2 && t[wpos - 2] == '-' &&
                             t[wpos - 1] == '>'));
          if (!qualified && after < t.size() && t[after] == '(') {
            const std::size_t nargs = count_args(t, after);
            for (const FnDef* callee : by_name[word]) {
              if (callee->params == nargs) {
                edges[d.name].insert(word);
                break;
              }
            }
          }
        }
        wpos = wend;
      }
    }

    auto reaches = [&edges](const std::string& from, const std::string& to) {
      std::set<std::string> seen;
      std::vector<std::string> stack{from};
      while (!stack.empty()) {
        const std::string cur = stack.back();
        stack.pop_back();
        const auto it = edges.find(cur);
        if (it == edges.end()) continue;
        for (const auto& nxt : it->second) {
          if (nxt == to) return true;
          if (seen.insert(nxt).second) stack.push_back(nxt);
        }
      }
      return false;
    };

    // Self-edges were excluded above, so reaching yourself means a cycle
    // through at least one other function. Group mutually-reachable
    // participants so each cycle reports exactly once.
    std::vector<std::string> cyclic;
    for (const auto& e : edges)
      if (reaches(e.first, e.first)) cyclic.push_back(e.first);
    std::set<std::string> grouped;
    for (const auto& a : cyclic) {
      if (grouped.count(a) != 0) continue;
      std::vector<std::string> members{a};
      grouped.insert(a);
      for (const auto& b : cyclic) {
        if (grouped.count(b) != 0) continue;
        if (reaches(a, b) && reaches(b, a)) {
          members.push_back(b);
          grouped.insert(b);
        }
      }
      if (members.size() < 2) continue;
      const FnDef* anchor = nullptr;
      for (const auto& n : members)
        for (const FnDef* d : by_name[n])
          if (anchor == nullptr || d->pos < anchor->pos) anchor = d;
      std::sort(members.begin(), members.end(),
                [&by_name](const std::string& x, const std::string& y) {
                  return by_name[x].front()->pos < by_name[y].front()->pos;
                });
      std::string chain;
      for (const auto& n : members) {
        if (!chain.empty()) chain += " -> ";
        chain += "'" + n + "'";
      }
      add(file, s, anchor->pos, "recursion-cycle",
          "mutual recursion cycle " + chain +
              " (unbounded combined stack demand)",
          "break the cycle with an explicit worklist, or document the "
          "joint depth bound with `// sxlint: allow(recursion-cycle)` at "
          "the first participant");
    }
  }

  /// Weight-store mutation audit (rule `weight-mutation`): an element
  /// write through params()/mutable_weights() — or a local span alias
  /// named like one — outside the bodies of the sanctioned
  /// inject_fault/undo_fault/repack entry points. Reads (`params[i]` on a
  /// right-hand side), whole-handle rebinds (`auto params = ...`), and
  /// struct-field assignments (`s.weights = ptr`) stay silent: only an
  /// indexed store mutates the deployed image.
  void check_weight_mutation(const std::string& file,
                             const StrippedSource& s) {
    const std::string& t = s.text;
    const std::vector<FnDef> sanctioned = collect_defs(t, kWeightWriters);
    auto inside_sanctioned = [&sanctioned](std::size_t p) {
      for (const auto& d : sanctioned)
        if (p >= d.body && p < d.close) return true;
      return false;
    };
    std::string ident;
    std::size_t pos = 0;
    while ((pos = next_ident(t, pos, &ident)) != std::string::npos) {
      const std::size_t end = pos + ident.size();
      if (kWeightStores.count(ident) == 0) {
        pos = end;
        continue;
      }
      // Accessor-call form first (`params()` / `mutable_weights(i)`), then
      // the mandatory element index, then an assignment operator.
      std::size_t cur = skip_ws(t, end);
      if (cur < t.size() && t[cur] == '(') {
        int depth = 0;
        for (; cur < t.size(); ++cur) {
          if (t[cur] == '(') ++depth;
          if (t[cur] == ')') {
            --depth;
            if (depth == 0) {
              ++cur;
              break;
            }
          }
        }
        cur = skip_ws(t, cur);
      }
      if (cur >= t.size() || t[cur] != '[') {
        pos = end;
        continue;
      }
      int depth = 0;
      for (; cur < t.size(); ++cur) {
        if (t[cur] == '[') ++depth;
        if (t[cur] == ']') {
          --depth;
          if (depth == 0) {
            ++cur;
            break;
          }
        }
      }
      cur = skip_ws(t, cur);
      const bool plain = cur < t.size() && t[cur] == '=' &&
                         (cur + 1 >= t.size() || t[cur + 1] != '=');
      const bool compound =
          cur + 1 < t.size() && t[cur + 1] == '=' &&
          (t[cur] == '+' || t[cur] == '-' || t[cur] == '*' ||
           t[cur] == '/' || t[cur] == '%' || t[cur] == '&' ||
           t[cur] == '|' || t[cur] == '^');
      if ((plain || compound) && !inside_sanctioned(pos))
        add(file, s, pos, "weight-mutation",
            "write into weight store '" + ident +
                "' outside inject_fault/undo_fault/repack",
            "route the write through the sanctioned fault/repair entry "
            "points, or waive the reviewed repair site inline with "
            "`// sxlint: allow(weight-mutation)`");
      pos = end;
    }
  }

  bool fix_;
  bool io_error_ = false;
  std::size_t files_ = 0;
  std::size_t waived_ = 0;
  std::vector<Finding> findings_;
};

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  bool fix_dry_run = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fix-dry-run") {
      fix_dry_run = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sxlint [--fix-dry-run] <path>...\n"
                << "Scans C++ sources for FUSA-conformance violations; see "
                   "the header of tools/sxlint.cpp for the rule set.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sxlint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "sxlint: no paths given (try: sxlint src)\n";
    return 2;
  }

  Linter linter(fix_dry_run);
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      std::vector<fs::path> files;
      for (const auto& entry :
           fs::recursive_directory_iterator(root, ec))
        if (entry.is_regular_file() && source_file(entry.path()))
          files.push_back(entry.path());
      std::sort(files.begin(), files.end());
      for (const auto& f : files) linter.scan_file(f);
    } else if (fs::is_regular_file(root, ec)) {
      linter.scan_file(root);
    } else {
      std::cerr << "sxlint: no such path " << root << "\n";
      return 2;
    }
  }
  linter.report(std::cout);
  return linter.exit_code();
}
