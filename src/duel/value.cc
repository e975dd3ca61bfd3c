#include "src/duel/value.h"

#include <cstring>

#include "src/support/strings.h"

namespace duel {

Sym Sym::Plain(std::string text, int prec) {
  Sym s;
  s.head_ = std::move(text);
  s.prec_ = prec;
  return s;
}

std::string Sym::Text() const {
  if (count_ == 0) {
    return head_;
  }
  if (count_ >= kCompressAt) {
    return head_ + "-->" + member_ + StrPrintf("[[%d]]", count_) + suffix_;
  }
  std::string out = head_;
  for (int i = 0; i < count_; ++i) {
    out += "->" + member_;
  }
  return out + suffix_;
}

std::string Sym::TextAsOperand(int min_prec) const {
  if (prec() < min_prec) {
    return "(" + Text() + ")";
  }
  return Text();
}

Sym Sym::WithMember(const std::string& member, bool arrow) const {
  Sym s;
  s.prec_ = kPrecPostfix;
  const char* sep = arrow ? "->" : ".";
  if (arrow && count_ > 0 && member_ == member && suffix_.empty()) {
    s = *this;
    s.count_++;
    return s;
  }
  if (count_ > 0) {
    // Extend the suffix; the chain head stays compressible.
    s = *this;
    s.suffix_ += sep + member;
    return s;
  }
  if (arrow) {
    // Start a structural chain so repeats can compress.
    s.head_ = prec_ >= kPrecPostfix ? head_ : "(" + head_ + ")";
    s.member_ = member;
    s.count_ = 1;
    return s;
  }
  s.head_ = TextAsOperand(kPrecPostfix) + sep + member;
  return s;
}

Sym Sym::SelectedAt(uint64_t index) const {
  if (count_ == 0) {
    return *this;
  }
  Sym s;
  s.prec_ = kPrecPostfix;
  s.head_ = head_ + "-->" + member_ +
            StrPrintf("[[%llu]]", static_cast<unsigned long long>(index)) + suffix_;
  return s;
}

Sym ComposeBinary(const Sym& lhs, const std::string& op, const Sym& rhs, int prec) {
  return Sym::Plain(lhs.TextAsOperand(prec) + op + rhs.TextAsOperand(prec + 1), prec);
}

Sym ComposeUnary(const std::string& op, const Sym& operand) {
  return Sym::Plain(op + operand.TextAsOperand(kPrecUnary), kPrecUnary);
}

Sym ComposeIndex(const Sym& base, const Sym& index) {
  return Sym::Plain(base.TextAsOperand(kPrecPostfix) + "[" + index.Text() + "]",
                    kPrecPostfix);
}

Value Value::RV(TypeRef type, const void* bytes, size_t n, Sym sym) {
  Value v;
  v.kind_ = Kind::kRValue;
  v.type_ = std::move(type);
  v.bytes_.Assign(bytes, n);
  v.sym_ = std::move(sym);
  return v;
}

Value Value::Int(TypeRef type, int64_t value, Sym sym) {
  uint8_t buf[8];
  size_t n = type->size();
  if (n > 8) {
    throw DuelError(ErrorKind::kInternal, "Value::Int with oversized type");
  }
  std::memcpy(buf, &value, n);  // little-endian truncation
  return RV(std::move(type), buf, n, std::move(sym));
}

Value Value::Double(TypeRef type, double value, Sym sym) {
  if (type->kind() == TypeKind::kFloat) {
    float f = static_cast<float>(value);
    return RV(std::move(type), &f, sizeof(f), std::move(sym));
  }
  return RV(std::move(type), &value, sizeof(value), std::move(sym));
}

Value Value::Pointer(TypeRef type, Addr a, Sym sym) {
  return RV(std::move(type), &a, sizeof(a), std::move(sym));
}

Value Value::LV(TypeRef type, Addr address, Sym sym) {
  Value v;
  v.kind_ = Kind::kLValue;
  v.type_ = std::move(type);
  v.addr_ = address;
  v.sym_ = std::move(sym);
  return v;
}

Value Value::BitfieldLV(TypeRef type, Addr address, unsigned bit_offset, unsigned bit_width,
                        Sym sym) {
  Value v = LV(std::move(type), address, std::move(sym));
  v.bit_offset_ = bit_offset;
  v.bit_width_ = bit_width;
  return v;
}

Value Value::FrameHandle(size_t frame_index, Sym sym) {
  Value v;
  v.kind_ = Kind::kFrame;
  v.frame_index_ = frame_index;
  v.sym_ = std::move(sym);
  return v;
}

Addr Value::addr() const {
  if (kind_ != Kind::kLValue) {
    throw DuelError(ErrorKind::kInternal, "addr() on non-lvalue");
  }
  return addr_;
}

std::span<const uint8_t> Value::bytes() const {
  if (kind_ != Kind::kRValue) {
    throw DuelError(ErrorKind::kInternal, "bytes() on non-rvalue");
  }
  return bytes_.span();
}

}  // namespace duel
