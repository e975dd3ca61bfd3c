// Raw datum codec: a typed bag of bytes crossing the narrow DUEL↔debugger
// interface (function-call arguments and return values).

#ifndef DUEL_TARGET_DATUM_H_
#define DUEL_TARGET_DATUM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/target/ctype.h"

namespace duel::target {

struct RawDatum {
  TypeRef type = nullptr;
  std::vector<uint8_t> bytes;
};

// Encodes a host scalar into a datum of `type` (little-endian, truncating or
// zero-extending to the type's size).
template <typename T>
RawDatum MakeScalarDatum(TypeRef type, T value) {
  RawDatum d;
  d.type = type;
  size_t n = type != nullptr && type->size() > 0 ? type->size() : sizeof(T);
  d.bytes.resize(n);
  std::memcpy(d.bytes.data(), &value, n < sizeof(T) ? n : sizeof(T));
  return d;
}

// Decodes a datum as an unsigned 64-bit value (zero-extended).
inline uint64_t DatumToU64(const RawDatum& d) {
  uint64_t v = 0;
  size_t n = d.bytes.size() < 8 ? d.bytes.size() : 8;
  std::memcpy(&v, d.bytes.data(), n);
  return v;
}

// Decodes a datum as a signed 64-bit value, sign-extending from the datum's
// width when its type is a signed integer.
inline int64_t DatumToI64(const RawDatum& d) {
  uint64_t v = DatumToU64(d);
  size_t n = d.bytes.size();
  if (n > 0 && n < 8) {
    bool sign_extend = d.type == nullptr || d.type->IsSignedInteger() ||
                       (d.type != nullptr && d.type->kind() == TypeKind::kEnum);
    uint64_t sign = 1ull << (n * 8 - 1);
    if (sign_extend && (v & sign)) {
      v |= ~((sign << 1) - 1);
    }
  }
  return static_cast<int64_t>(v);
}

// Decodes a datum as a double (float or double payloads).
inline double DatumToF64(const RawDatum& d) {
  if (d.bytes.size() == 4) {
    float f;
    std::memcpy(&f, d.bytes.data(), 4);
    return f;
  }
  double v = 0;
  size_t n = d.bytes.size() < 8 ? d.bytes.size() : 8;
  std::memcpy(&v, d.bytes.data(), n);
  return v;
}

}  // namespace duel::target

#endif  // DUEL_TARGET_DATUM_H_
