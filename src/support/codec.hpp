// codec.hpp — the pieces every deterministic report codec shares: an
// append-only %.17g number writer, a strict whole-cell number reader, and a
// minimal JSON cursor.
//
// The writer goes through std::to_chars(..., chars_format::general, 17),
// which the standard defines as printf's "%.17g" in the "C" locale, so
// exports are byte-identical to the printf-based ones without paying for
// printf's format parsing (or support::strfmt's measure-then-write pass).
// The reader is std::from_chars over the whole cell: every value the writer
// emits round-trips (subnormals, ±0, ±inf and nan included), and anything
// else — trailing junk, leading '+' or blanks, values that overflow to
// infinity or underflow to zero — is rejected instead of guessed at.
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

/// Parses a whole cell as a double; nullopt unless every byte is consumed
/// and the value is representable (see the file comment).
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parses a whole cell as a decimal int ('-' allowed, '+' and blanks not);
/// nullopt on junk or overflow.
[[nodiscard]] std::optional<int> parse_int(std::string_view s) noexcept;

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

}  // namespace hpf90d::support
