// codec.hpp — the one writer and the one reader behind every deterministic
// text format in the tree: the report codecs (CSV/JSON), the service
// payloads (plan, study, outcome, stats), the artifact spill (layouts,
// recipes, artifact frames) and the daemon's numeric request fields.
//
// The writer goes through std::to_chars(..., chars_format::general, 17),
// which the standard defines as printf's "%.17g" in the "C" locale, so
// exports are byte-identical to the printf-based ones without paying for
// printf's format parsing (or support::strfmt's measure-then-write pass).
// The reader is std::from_chars over the whole cell: every value the writer
// emits round-trips (subnormals, ±0, ±inf and nan included), and anything
// else — trailing junk, leading '+' or blanks, a '-' on an unsigned field,
// values that overflow to infinity or underflow to zero — is rejected
// instead of guessed at. Every decoder built on JsonCursor or LineReader
// rejects with std::invalid_argument naming itself and the byte offset.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpf90d::support {

/// Appends `v` exactly as printf("%.17g", v) renders it.
void append_g17(std::string& out, double v);

/// Appends a decimal integer.
void append_int(std::string& out, long long v);
void append_uint(std::string& out, std::uint64_t v);

/// Appends `s` with every ',' replaced by ';' — the CSV exports' escaping
/// (names never contain commas by construction; escape defensively).
void append_csv_field(std::string& out, std::string_view s);

/// Appends `s` JSON-escaped (quotes, backslashes, \n, \t, and \u00xx for
/// the other control bytes). No surrounding quotes.
void append_json_escaped(std::string& out, std::string_view s);

/// Appends "<sep><len>\n<bytes>\n": the length-prefixed tail with which the
/// line-record formats carry a string that may hold any byte.
/// LineReader::payload reads it back.
void append_sized(std::string& out, char sep, std::string_view bytes);

/// Parses a whole cell as a double; nullopt unless every byte is consumed
/// and the value is representable (see the file comment).
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parses a whole cell as a decimal int ('-' allowed, '+' and blanks not);
/// nullopt on junk or overflow.
[[nodiscard]] std::optional<int> parse_int(std::string_view s) noexcept;
[[nodiscard]] std::optional<long long> parse_i64(std::string_view s) noexcept;

/// Parses a whole cell as an unsigned decimal; nullopt on junk or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// A CSV cell read through parse_double / parse_int, or a "0"/"1" flag;
/// anything else throws std::invalid_argument naming `decoder` and the cell.
[[nodiscard]] double cell_double(std::string_view cell, const char* decoder);
[[nodiscard]] int cell_int(std::string_view cell, const char* decoder);
[[nodiscard]] bool cell_flag(std::string_view cell, const char* decoder);

/// Splits `s` on `sep` into views of `s` (empty fields kept), reusing
/// `out`'s storage.
void split_fields(std::string_view s, char sep, std::vector<std::string_view>& out);

/// A cursor over one JSON document of the shape the report codecs emit:
/// objects, arrays, ASCII strings, numbers and booleans. Every failure
/// throws std::invalid_argument prefixed with the decoder's name and
/// suffixed with the byte offset.
class JsonCursor {
 public:
  JsonCursor(std::string_view text, const char* decoder) : text_(text), decoder_(decoder) {}

  /// Skips blanks, then requires `c`.
  void expect(char c);
  /// Skips blanks, then consumes `c` when it is next.
  [[nodiscard]] bool consume(char c);
  /// A quoted string; \uXXXX escapes are limited to ASCII.
  [[nodiscard]] std::string string();
  /// `"name":` — throws when the next key is anything else.
  void key(const char* name);
  /// A number token read through parse_double (inf/nan included: the
  /// writers emit them for non-finite values).
  [[nodiscard]] double number();
  /// An integer token read through parse_int.
  [[nodiscard]] int integer();
  /// An unsigned token read through parse_u64.
  [[nodiscard]] std::uint64_t unsigned_number();
  [[nodiscard]] bool boolean();
  /// Requires that only blanks remain.
  void end();

  [[noreturn]] void fail(const std::string& why) const;

 private:
  void skip_ws();
  /// The maximal run of number-ish bytes at the cursor (possibly empty).
  [[nodiscard]] std::string_view token();

  std::string_view text_;
  const char* decoder_;
  std::size_t pos_ = 0;
};

/// A cursor over one line-record document: '\n'-terminated lines of cells
/// split on one separator, plus length-prefixed raw payloads (see
/// append_sized). Every failure throws std::invalid_argument prefixed with
/// the decoder's name and suffixed with the byte offset. Views it returns
/// point into the text, which must outlive them.
class LineReader {
 public:
  LineReader(std::string_view text, const char* decoder) : text_(text), decoder_(decoder) {}

  /// The next line without its '\n' (the last line may lack one).
  [[nodiscard]] std::string_view next_line();
  /// The next line split on `sep`, empty cells kept.
  [[nodiscard]] std::vector<std::string_view> next_fields(char sep);
  /// The next line split on `sep`; throws unless it is `n` cells led by `tag`.
  [[nodiscard]] std::vector<std::string_view> fields(char sep, std::size_t n,
                                                     std::string_view tag);
  /// Exactly `n` raw bytes, then a '\n' unless they end the input.
  [[nodiscard]] std::string_view take_bytes(std::uint64_t n);
  /// The payload announced by the last cell of a line just read.
  [[nodiscard]] std::string_view payload(const std::vector<std::string_view>& cells);
  /// Everything not yet read.
  [[nodiscard]] std::string_view rest();
  /// Throws unless the whole input has been read.
  void end() const;

  /// Typed cells, read through parse_double / parse_int / parse_i64 /
  /// parse_u64; a flag is "0" or "1".
  [[nodiscard]] double number(std::string_view cell) const;
  [[nodiscard]] int integer(std::string_view cell) const;
  [[nodiscard]] long long i64(std::string_view cell) const;
  [[nodiscard]] std::uint64_t u64(std::string_view cell) const;
  [[nodiscard]] bool flag(std::string_view cell) const;
  /// An unsigned count of records that follow, each at least one line
  /// long. Throws when it exceeds the lines left, so no count read from the
  /// input can size an allocation beyond what the input holds.
  [[nodiscard]] std::size_t count(std::string_view cell);

  [[noreturn]] void fail(const std::string& why) const;

 private:
  static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

  /// Consumes text_[pos_, to) plus one '\n' when it follows.
  void advance(std::size_t to);
  /// `*v`, or a rejection of `cell` as a malformed `what`.
  template <typename T>
  T checked(std::optional<T> v, const char* what, std::string_view cell) const;

  std::string_view text_;
  const char* decoder_;
  std::size_t pos_ = 0;
  /// '\n' bytes at or after pos_; counted on the first count() call only.
  std::size_t newlines_left_ = kUnknown;
};

}  // namespace hpf90d::support
