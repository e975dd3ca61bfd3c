#include "src/support/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace duel {

std::string StrVPrintf(const char* fmt, va_list ap) {
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap2);
  va_end(ap2);
  if (n <= 0) {
    return std::string();
  }
  std::string out(static_cast<size_t>(n), '\0');
  vsnprintf(out.data(), out.size() + 1, fmt, ap);
  return out;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::string out = StrVPrintf(fmt, ap);
  va_end(ap);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string EscapeChar(char c) {
  char buf[4];
  return std::string(buf, WriteEscapedChar(buf, c));
}

char* WriteEscapedChar(char* out, char c) {
  char esc = 0;
  switch (c) {
    case '\n':
      esc = 'n';
      break;
    case '\t':
      esc = 't';
      break;
    case '\r':
      esc = 'r';
      break;
    case '\0':
      esc = '0';
      break;
    case '\a':
      esc = 'a';
      break;
    case '\b':
      esc = 'b';
      break;
    case '\f':
      esc = 'f';
      break;
    case '\v':
      esc = 'v';
      break;
    case '\\':
    case '\'':
    case '"':
      esc = c;
      break;
    default:
      break;
  }
  if (esc != 0) {
    out[0] = '\\';
    out[1] = esc;
    return out + 2;
  }
  unsigned char uc = static_cast<unsigned char>(c);
  if (uc < 0x20 || uc >= 0x7f) {
    out[0] = '\\';
    out[1] = static_cast<char>('0' + (uc >> 6));
    out[2] = static_cast<char>('0' + ((uc >> 3) & 7));
    out[3] = static_cast<char>('0' + (uc & 7));
    return out + 4;
  }
  out[0] = c;
  return out + 1;
}

std::string EscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\'') {
      out.push_back('\'');  // ' needs no escape inside a string literal
    } else {
      char buf[4];
      out.append(buf, WriteEscapedChar(buf, c));
    }
  }
  return out;
}

std::string FormatDouble(double d) {
  char buf[32];
  return std::string(buf, WriteDouble(buf, d));
}

char* WriteDouble(char* out, double d) {
  if (std::isnan(d)) {
    std::memcpy(out, "nan", 3);
    return out + 3;
  }
  if (std::isinf(d)) {
    const char* text = d < 0 ? "-inf" : "inf";
    const size_t n = std::strlen(text);
    std::memcpy(out, text, n);
    return out + n;
  }
  // Try increasing precision until the value round-trips.
  int n = 0;
  for (int prec = 6; prec <= 17; ++prec) {
    n = std::snprintf(out, 32, "%.*g", prec, d);
    if (strtod(out, nullptr) == d) {
      break;
    }
  }
  return out + n;
}

void AppendDecimal(std::string& out, int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendDecimal(std::string& out, uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    int d = HexDigit(c);
    if (d < 0) {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string HexU64(uint64_t v) { return StrPrintf("%llx", static_cast<unsigned long long>(v)); }

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) {
      return false;
    }
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

std::string HexEncode(const void* data, size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  const uint8_t* p = static_cast<const uint8_t*>(data);
  std::string out;
  out.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xf]);
  }
  return out;
}

bool HexDecode(std::string_view s, std::vector<uint8_t>* out) {
  if (s.size() % 2 != 0) {
    return false;
  }
  out->clear();
  out->reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    int hi = HexDigit(s[i]);
    int lo = HexDigit(s[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace duel
