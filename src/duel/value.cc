#include "src/duel/value.h"

#include <cstring>
#include <string_view>

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

namespace {

// True when the lexer would read the token that `left` ends with and the
// character `next` as one longer token, so the two need a space between
// them: `-` `-` reads as `--`, `+` `+` as `++`, `&` `&` as `&&`, and a
// postfix `--` followed by `>` as `-->`. A doubled `--`, `++` or `&&` is
// already a whole token and takes no more of its character. Operands begin
// with a name, a literal, `(`, `{` or a prefix operator, and operators with
// punctuation, so these are the only boundaries a composer can fuse. Reads
// the boundary characters only.
bool Fuses(std::string_view left, char next) {
  if (left.empty()) {
    return false;
  }
  char last = left.back();
  if (last == '-' && next == '>') {
    return true;
  }
  bool doubled = left.size() >= 2 && left[left.size() - 2] == last;
  return next == last && !doubled && (last == '-' || last == '+' || last == '&');
}

// Appends `text` to `out`, whose last token is `left`.
void Append(std::string& out, std::string_view left, std::string_view text) {
  if (!text.empty() && Fuses(left, text.front())) {
    out += ' ';
  }
  out += text;
}

}  // namespace

Sym ComposeBinary(const Sym& lhs, Op op, const Sym& rhs) {
  const OpInfo& row = Info(op);
  std::string out = lhs.TextAsOperand(row.prec);
  Append(out, out, row.spelling);
  Append(out, row.spelling, rhs.TextAsOperand(row.prec + 1));
  return Sym::Plain(std::move(out), row.prec);
}

Sym ComposeUnary(Op op, const Sym& operand) {
  const OpInfo& row = Info(op);
  if (row.prec == kPrecPostfix) {
    std::string out = operand.TextAsOperand(kPrecPostfix);
    Append(out, out, row.spelling);
    return Sym::Plain(std::move(out), kPrecPostfix);
  }
  std::string out = row.spelling;
  Append(out, row.spelling, operand.TextAsOperand(kPrecUnary));
  return Sym::Plain(std::move(out), kPrecUnary);
}

Sym ComposeIndex(const Sym& base, const Sym& index) {
  return Sym::Plain(base.TextAsOperand(kPrecPostfix) + "[" + index.Text() + "]",
                    kPrecPostfix);
}

Sym ComposeCast(const std::string& type_name, const Sym& operand) {
  return Sym::Plain("(" + type_name + ")" + operand.TextAsOperand(kPrecUnary), kPrecUnary);
}

Sym ComposeWith(const Sym& subject, bool arrow, const std::string& inner) {
  return Sym::Plain(subject.TextAsOperand(kPrecPostfix) + (arrow ? "->(" : ".(") + inner + ")",
                    kPrecPostfix);
}

Value Value::RV(TypeRef type, const void* bytes, size_t n, Sym sym) {
  Value v;
  v.kind_ = Kind::kRValue;
  v.type_ = type;
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
  return RV(type, buf, n, std::move(sym));
}

Value Value::Double(TypeRef type, double value, Sym sym) {
  if (type->kind() == TypeKind::kFloat) {
    float f = static_cast<float>(value);
    return RV(type, &f, sizeof(f), std::move(sym));
  }
  return RV(type, &value, sizeof(value), std::move(sym));
}

Value Value::Pointer(TypeRef type, Addr a, Sym sym) {
  return RV(type, &a, sizeof(a), std::move(sym));
}

Value Value::LV(TypeRef type, Addr address, Sym sym) {
  Value v;
  v.kind_ = Kind::kLValue;
  v.type_ = type;
  v.addr_ = address;
  v.sym_ = std::move(sym);
  return v;
}

Value Value::BitfieldLV(TypeRef type, Addr address, unsigned bit_offset, unsigned bit_width,
                        Sym sym) {
  Value v = LV(type, address, std::move(sym));
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
