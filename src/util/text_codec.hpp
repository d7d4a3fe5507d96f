// The text codec of the line-oriented evidence formats (registry
// snapshots, fleet shards, serving blocks and traces, safety-case values,
// scenario JSON): unsigned integers in decimal and doubles in their
// shortest round-trip form (std::to_chars), so equal values always
// serialize to equal bytes, plus the strict tokenizer their parsers share.
// A token is a maximal run of non-space bytes; a line ends at '\n'.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace sx::util {

/// Appends `v` in decimal.
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Appends `v` in its shortest round-trip decimal form.
inline void append_double(std::string& out, double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// `v` as append_double writes it.
inline std::string format_double(double v) {
  std::string s;
  append_double(s, v);
  return s;
}

/// Consumes the next space-separated token of `line`; false at its end.
inline bool take_token(std::string_view& line,
                       std::string_view& tok) noexcept {
  while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  if (line.empty()) return false;
  std::size_t end = 0;
  while (end < line.size() && line[end] != ' ') ++end;
  tok = line.substr(0, end);
  line.remove_prefix(end);
  return true;
}

/// Consumes the next token, which must be a whole decimal u64.
inline bool take_u64(std::string_view& line, std::uint64_t& v) noexcept {
  std::string_view tok;
  if (!take_token(line, tok)) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

/// Consumes the next token, which must be a whole decimal double.
inline bool take_double(std::string_view& line, double& v) noexcept {
  std::string_view tok;
  if (!take_token(line, tok)) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

/// Consumes the next line of `text`, without its '\n'; false at its end.
inline bool take_line(std::string_view& text,
                      std::string_view& line) noexcept {
  if (text.empty()) return false;
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) {
    line = text;
    text = {};
  } else {
    line = text.substr(0, nl);
    text.remove_prefix(nl + 1);
  }
  return true;
}

}  // namespace sx::util
