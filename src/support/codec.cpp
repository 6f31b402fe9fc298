#include "support/codec.hpp"

#include <algorithm>
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

void append_sized(std::string& out, char sep, std::string_view bytes) {
  out += sep;
  append_uint(out, bytes.size());
  out += '\n';
  out += bytes;
  out += '\n';
}

namespace {

[[noreturn]] void bad_cell(const char* decoder, const char* what, std::string_view cell) {
  throw std::invalid_argument(std::string(decoder) + ": malformed " + what + " \"" +
                              std::string(cell) + "\"");
}

/// std::from_chars over the whole of `s` (an unsigned T rejects '-').
template <typename T, typename... Format>
std::optional<T> parse_whole(std::string_view s, Format... format) noexcept {
  T v{};
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v, format...);
  if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
  return v;
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
  return parse_whole<double>(s, std::chars_format::general);
}

std::optional<int> parse_int(std::string_view s) noexcept { return parse_whole<int>(s); }

std::optional<long long> parse_i64(std::string_view s) noexcept {
  return parse_whole<long long>(s);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  return parse_whole<std::uint64_t>(s);
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

std::string_view LineReader::next_line() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
  const std::string_view line = text_.substr(pos_, eol - pos_);
  advance(eol);
  return line;
}

std::vector<std::string_view> LineReader::next_fields(char sep) {
  std::vector<std::string_view> cells;
  split_fields(next_line(), sep, cells);
  return cells;
}

std::vector<std::string_view> LineReader::fields(char sep, std::size_t n,
                                                 std::string_view tag) {
  std::vector<std::string_view> cells = next_fields(sep);
  if (cells.size() != n || cells[0] != tag) {
    fail("expected a " + std::string(tag) + " line of " + std::to_string(n) + " cells");
  }
  return cells;
}

std::string_view LineReader::take_bytes(std::uint64_t n) {
  // pos_ <= size always, so the subtraction cannot wrap; n + pos_ could
  if (n > text_.size() - pos_) fail("truncated payload");
  const std::size_t to = pos_ + static_cast<std::size_t>(n);
  if (to < text_.size() && text_[to] != '\n') fail("missing payload terminator");
  const std::string_view bytes = text_.substr(pos_, to - pos_);
  if (newlines_left_ != kUnknown) {
    newlines_left_ -= static_cast<std::size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
  }
  advance(to);
  return bytes;
}

std::string_view LineReader::payload(const std::vector<std::string_view>& cells) {
  return take_bytes(u64(cells.back()));
}

std::string_view LineReader::rest() {
  const std::string_view out = text_.substr(pos_);
  pos_ = text_.size();
  return out;
}

void LineReader::end() const {
  if (pos_ != text_.size()) fail("trailing content");
}

template <typename T>
T LineReader::checked(std::optional<T> v, const char* what, std::string_view cell) const {
  if (!v) fail(std::string("malformed ") + what + " \"" + std::string(cell) + '"');
  return *v;
}

double LineReader::number(std::string_view c) const {
  return checked(parse_double(c), "number", c);
}
int LineReader::integer(std::string_view c) const { return checked(parse_int(c), "integer", c); }
long long LineReader::i64(std::string_view c) const { return checked(parse_i64(c), "integer", c); }
std::uint64_t LineReader::u64(std::string_view c) const {
  return checked(parse_u64(c), "unsigned integer", c);
}

bool LineReader::flag(std::string_view c) const {
  if (c != "0" && c != "1") fail("malformed flag \"" + std::string(c) + '"');
  return c == "1";
}

std::size_t LineReader::count(std::string_view cell) {
  const std::uint64_t n = u64(cell);
  if (newlines_left_ == kUnknown) {
    newlines_left_ =
        static_cast<std::size_t>(std::count(text_.begin() + pos_, text_.end(), '\n'));
  }
  // an unterminated last line is a line too
  const bool tail = pos_ < text_.size() && text_.back() != '\n';
  const std::size_t lines = newlines_left_ + (tail ? 1 : 0);
  if (n > lines) {
    fail("count " + std::to_string(n) + " exceeds the " + std::to_string(lines) +
         " lines left");
  }
  return static_cast<std::size_t>(n);
}

void LineReader::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(decoder_) + ": " + why + " at offset " +
                              std::to_string(pos_));
}

void LineReader::advance(std::size_t to) {
  pos_ = to;
  if (pos_ < text_.size()) {
    ++pos_;  // the '\n' at `to`
    if (newlines_left_ != kUnknown) --newlines_left_;
  }
}

}  // namespace hpf90d::support
