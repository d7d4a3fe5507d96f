#include "scenario/json.hpp"

#include <charconv>
#include <cmath>

#include "util/text_codec.hpp"

namespace sx::scenario {

std::string format_double(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  std::string s = util::format_double(v);
  // Bare integers round-trip fine but read ambiguously ("was this a
  // count?"); keep the double-ness visible in the export.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos)
    s += ".0";
  return s;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma_for_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_.back()) out_ += ',';
  need_comma_.back() = true;
}

void JsonWriter::open(char c) {
  comma_for_value();
  out_ += c;
  need_comma_.push_back(false);
}

void JsonWriter::close(char c) {
  out_ += c;
  need_comma_.pop_back();
}

void JsonWriter::key(std::string_view name) {
  if (need_comma_.back()) out_ += ',';
  need_comma_.back() = true;
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  comma_for_value();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma_for_value();
  out_ += format_double(v);
}

void JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  util::append_u64(out_, v);
}

void JsonWriter::value(std::int64_t v) {
  comma_for_value();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void JsonWriter::value(bool b) {
  comma_for_value();
  out_ += b ? "true" : "false";
}

}  // namespace sx::scenario
