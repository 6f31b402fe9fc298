#include "support/codec.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace hpf90d::support {

void append_g17(std::string& out, double v) {
  // "-2.2250738585072014e-308" is the longest %.17g rendering (24 bytes)
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, long long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_csv_field(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out += s;
  for (std::size_t i = at; i < out.size(); ++i) {
    if (out[i] == ',') out[i] = ';';
  }
}

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        // RFC 8259 forbids raw control characters inside strings.
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

namespace {

[[noreturn]] void bad_cell(const char* decoder, const char* what, std::string_view cell) {
  throw std::invalid_argument(std::string(decoder) + ": malformed " + what + " \"" +
                              std::string(cell) + "\"");
}

}  // namespace

double cell_double(std::string_view cell, const char* decoder) {
  if (const std::optional<double> v = parse_double(cell)) return *v;
  bad_cell(decoder, "number", cell);
}

int cell_int(std::string_view cell, const char* decoder) {
  if (const std::optional<int> v = parse_int(cell)) return *v;
  bad_cell(decoder, "integer", cell);
}

bool cell_flag(std::string_view cell, const char* decoder) {
  if (cell != "0" && cell != "1") bad_cell(decoder, "flag", cell);
  return cell == "1";
}

void split_fields(std::string_view s, char sep, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
}

std::optional<double> parse_double(std::string_view s) noexcept {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v, std::chars_format::general);
  if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
  return v;
}

std::optional<int> parse_int(std::string_view s) noexcept {
  int v = 0;
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  // from_chars would read "-1" as a failed parse anyway; be explicit
  if (s.empty() || s.front() == '-') return std::nullopt;
  const auto r = std::from_chars(s.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
  return v;
}

void JsonCursor::expect(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

bool JsonCursor::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string JsonCursor::string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case 'u': {
          // the writers only emit \u00xx for control bytes; accept the
          // full ASCII range and reject anything wider
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("malformed \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          c = static_cast<char>(code);
          break;
        }
        default: fail("unsupported escape");
      }
    }
    out += c;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  ++pos_;  // closing quote
  return out;
}

void JsonCursor::key(const char* name) {
  const std::string got = string();
  if (got != name) fail("expected key \"" + std::string(name) + "\", got \"" + got + '"');
  expect(':');
}

std::string_view JsonCursor::token() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
        c == 'E' || c == 'i' || c == 'n' || c == 'f' || c == 'a') {
      ++pos_;
    } else {
      break;
    }
  }
  return text_.substr(start, pos_ - start);
}

double JsonCursor::number() {
  const std::string_view t = token();
  if (t.empty()) fail("expected number");
  const std::optional<double> v = parse_double(t);
  if (!v) fail("malformed number \"" + std::string(t) + '"');
  return *v;
}

int JsonCursor::integer() {
  const std::string_view t = token();
  if (t.empty()) fail("expected integer");
  const std::optional<int> v = parse_int(t);
  if (!v) fail("malformed integer \"" + std::string(t) + '"');
  return *v;
}

std::uint64_t JsonCursor::unsigned_number() {
  const std::string_view t = token();
  if (t.empty()) fail("expected unsigned integer");
  const std::optional<std::uint64_t> v = parse_u64(t);
  if (!v) fail("malformed unsigned integer \"" + std::string(t) + '"');
  return *v;
}

bool JsonCursor::boolean() {
  skip_ws();
  if (text_.compare(pos_, 4, "true") == 0) {
    pos_ += 4;
    return true;
  }
  if (text_.compare(pos_, 5, "false") == 0) {
    pos_ += 5;
    return false;
  }
  fail("expected boolean");
}

void JsonCursor::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content");
}

void JsonCursor::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(decoder_) + ": " + why + " at offset " +
                              std::to_string(pos_));
}

void JsonCursor::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                 text_[pos_] == '\t' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

}  // namespace hpf90d::support
