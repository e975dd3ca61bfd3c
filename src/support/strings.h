// Small string helpers used across the project.

#ifndef DUEL_SUPPORT_STRINGS_H_
#define DUEL_SUPPORT_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace duel {

// printf into a std::string.
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string StrVPrintf(const char* fmt, va_list ap);

// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// C-style escaping for a character / string literal body (no surrounding quotes).
std::string EscapeChar(char c);
std::string EscapeString(std::string_view s);
// EscapeChar's text written at `out` (room for 4 characters); returns its end.
char* WriteEscapedChar(char* out, char c);

// Formats a double the way the result printer does: shortest form that still
// round-trips for typical debugger use ("2.5", "1e+20", "3").
std::string FormatDouble(double d);
// FormatDouble's text written at `out` (room for 32 characters); returns its end.
char* WriteDouble(char* out, double d);

// Decimal text, appended to `out`.
void AppendDecimal(std::string& out, int64_t v);
void AppendDecimal(std::string& out, uint64_t v);

bool StartsWith(std::string_view s, std::string_view prefix);

// Parses an unsigned hex string (no 0x prefix). Returns false on bad input.
bool ParseHexU64(std::string_view s, uint64_t* out);
std::string HexU64(uint64_t v);  // lowercase, no 0x prefix

// Parses an unsigned decimal string. Returns false on bad input or overflow.
bool ParseU64(std::string_view s, uint64_t* out);

// Hex-encodes / decodes a byte buffer (lowercase). Decode returns false on
// odd length or non-hex characters.
std::string HexEncode(const void* data, size_t n);
bool HexDecode(std::string_view s, std::vector<uint8_t>* out);

// Splits on a separator character; keeps empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

}  // namespace duel

#endif  // DUEL_SUPPORT_STRINGS_H_
