#include "src/duel/value.h"

#include <charconv>
#include <cstring>
#include <string_view>

#include "src/support/error.h"
#include "src/support/strings.h"

namespace duel {

struct Sym::Piece {
  const Piece* prev;
  uint32_t size;  // rendered length, prev's included
  uint32_t len;   // this piece's length; its characters follow the header
  const char* chars() const { return reinterpret_cast<const char*>(this + 1); }
};

struct Sym::Chain {
  Sym head;
  Sym member;
};

namespace {

// The text a composer is assembling. Composition never nests, so one buffer
// per thread serves every call without allocating once it has grown.
std::string& Scratch() {
  thread_local std::string scratch;
  scratch.clear();
  return scratch;
}

size_t DecimalWidth(uint64_t v) {
  size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

}  // namespace

const Sym::Piece* Sym::NewPiece(Arena& arena, const Piece* prev, std::string_view a,
                                std::string_view b) {
  size_t len = a.size() + b.size();
  void* mem = arena.Allocate(sizeof(Piece) + len, alignof(Piece));
  auto* p = static_cast<Piece*>(mem);
  p->prev = prev;
  p->len = static_cast<uint32_t>(len);
  p->size = static_cast<uint32_t>((prev != nullptr ? prev->size : 0) + len);
  char* chars = reinterpret_cast<char*>(p + 1);
  std::memcpy(chars, a.data(), a.size());
  if (!b.empty()) {
    std::memcpy(chars + a.size(), b.data(), b.size());
  }
  return p;
}

void Sym::AppendPieces(std::string& out, const Piece* p) {
  if (p == nullptr) {
    return;
  }
  // Fill from the end: the newest piece is the last text.
  size_t start = out.size();
  out.resize(start + p->size);
  char* end = out.data() + start + p->size;
  for (; p != nullptr; p = p->prev) {
    end -= p->len;
    std::memcpy(end, p->chars(), p->len);
  }
}

Sym Sym::Plain(Arena& arena, std::string_view text, int prec) {
  Sym s;
  s.prec_ = static_cast<uint8_t>(prec);
  if (text.size() <= kInlineCap) {
    std::memcpy(s.raw_, text.data(), text.size());
    s.tag_ = static_cast<uint8_t>(text.size());
    return s;
  }
  s.Store(0, NewPiece(arena, nullptr, text));
  s.tag_ = kTextTag;
  return s;
}

Sym Sym::DecimalUnsigned(uint64_t v) {
  Sym s;
  auto [end, ec] = std::to_chars(s.raw_, s.raw_ + kInlineCap, v);
  s.tag_ = static_cast<uint8_t>(end - s.raw_);
  return s;
}

Sym Sym::Decimal(int64_t v) {
  Sym s;
  auto [end, ec] = std::to_chars(s.raw_, s.raw_ + kInlineCap, v);
  s.tag_ = static_cast<uint8_t>(end - s.raw_);
  return s;
}

size_t Sym::size() const {
  if (tag_ <= kInlineCap) {
    return tag_;
  }
  if (tag_ == kTextTag) {
    return text()->size;
  }
  const Chain* c = chain();
  uint32_t n = count();
  size_t out = c->head.size() + (suffix() != nullptr ? suffix()->size : 0);
  if (n >= kCompressAt) {
    return out + 3 + c->member.size() + 2 + DecimalWidth(n) + 2;  // -->m[[n]]
  }
  return out + n * (2 + c->member.size());
}

void Sym::AppendTo(std::string& out) const {
  if (tag_ <= kInlineCap) {
    out.append(raw_, tag_);
    return;
  }
  if (tag_ == kTextTag) {
    AppendPieces(out, text());
    return;
  }
  const Chain* c = chain();
  uint32_t n = count();
  c->head.AppendTo(out);
  if (n >= kCompressAt) {
    out += "-->";
    c->member.AppendTo(out);
    out += "[[";
    AppendDecimal(out, static_cast<uint64_t>(n));
    out += "]]";
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      out += "->";
      c->member.AppendTo(out);
    }
  }
  AppendPieces(out, suffix());
}

std::string Sym::Text() const {
  std::string out;
  out.reserve(size());
  AppendTo(out);
  return out;
}

void Sym::AppendAsOperand(std::string& out, int min_prec) const {
  if (prec() < min_prec) {
    out += '(';
    AppendTo(out);
    out += ')';
    return;
  }
  AppendTo(out);
}

std::string_view Sym::View(std::string& scratch) const {
  if (tag_ <= kInlineCap) {
    return {raw_, tag_};
  }
  if (tag_ == kTextTag && text()->prev == nullptr) {
    return {text()->chars(), text()->len};
  }
  scratch.clear();
  AppendTo(scratch);
  return scratch;
}

Sym Sym::WithMember(Arena& arena, std::string_view member, bool arrow) const {
  std::string_view sep = arrow ? "->" : ".";
  if (tag_ == kChainTag) {
    Sym s = *this;
    s.prec_ = kPrecPostfix;  // a new text: not the subject's
    std::string scratch;
    if (arrow && suffix() == nullptr && chain()->member.View(scratch) == member) {
      s.Store(16, count() + 1);
    } else {
      // Extend the suffix; the chain head stays compressible.
      s.Store(8, NewPiece(arena, suffix(), sep, member));
    }
    return s;
  }
  if (arrow) {
    // Start a structural chain so repeats can compress.
    Chain* c = arena.New<Chain>();
    if (prec() >= kPrecPostfix) {
      c->head = *this;
    } else {
      std::string& head = Scratch();
      AppendAsOperand(head, kPrecPostfix);
      c->head = Plain(arena, head);
    }
    c->member = Plain(arena, member);
    Sym s;
    s.Store(0, static_cast<const Chain*>(c));
    s.Store(8, static_cast<const Piece*>(nullptr));
    s.Store(16, uint32_t{1});
    s.tag_ = kChainTag;
    s.prec_ = kPrecPostfix;
    return s;
  }
  std::string& out = Scratch();
  AppendAsOperand(out, kPrecPostfix);
  out += sep;
  out += member;
  return Plain(arena, out, kPrecPostfix);
}

Sym Sym::SelectedAt(Arena& arena, uint64_t index) const {
  if (tag_ != kChainTag) {
    return *this;
  }
  const Chain* c = chain();
  std::string& out = Scratch();
  c->head.AppendTo(out);
  out += "-->";
  c->member.AppendTo(out);
  out += "[[";
  AppendDecimal(out, index);
  out += "]]";
  AppendPieces(out, suffix());
  return Plain(arena, out, kPrecPostfix);
}

Sym Sym::Rehome(Arena& arena) const {
  if (tag_ <= kInlineCap) {
    return *this;
  }
  Sym s = *this;
  if (tag_ == kTextTag) {
    std::string flat;
    AppendPieces(flat, text());
    s.Store(0, NewPiece(arena, nullptr, flat));
    return s;
  }
  Chain* c = arena.New<Chain>();
  c->head = chain()->head.Rehome(arena);
  c->member = chain()->member.Rehome(arena);
  s.Store(0, static_cast<const Chain*>(c));
  if (suffix() != nullptr) {
    std::string flat;
    AppendPieces(flat, suffix());
    s.Store(8, NewPiece(arena, nullptr, flat));
  }
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

// Appends an operand's text after `left`, spaced like Append.
void AppendOperand(std::string& out, std::string_view left, const Sym& operand, int min_prec) {
  size_t start = out.size();
  operand.AppendAsOperand(out, min_prec);
  if (start < out.size() && Fuses(left, out[start])) {
    out.insert(start, 1, ' ');
  }
}

}  // namespace

Sym ComposeBinary(Arena& arena, const Sym& lhs, Op op, const Sym& rhs) {
  const OpInfo& row = Info(op);
  std::string& out = Scratch();
  lhs.AppendAsOperand(out, row.prec);
  Append(out, out, row.spelling);
  AppendOperand(out, row.spelling, rhs, row.prec + 1);
  return Sym::Plain(arena, out, row.prec);
}

Sym ComposeUnary(Arena& arena, Op op, const Sym& operand) {
  const OpInfo& row = Info(op);
  std::string& out = Scratch();
  if (row.prec == kPrecPostfix) {
    operand.AppendAsOperand(out, kPrecPostfix);
    Append(out, out, row.spelling);
    return Sym::Plain(arena, out, kPrecPostfix);
  }
  out += row.spelling;
  AppendOperand(out, row.spelling, operand, kPrecUnary);
  return Sym::Plain(arena, out, kPrecUnary);
}

void AppendIndexOpen(std::string& out, const Sym& base) {
  base.AppendAsOperand(out, kPrecPostfix);
  out += '[';
}

Sym ComposeIndex(Arena& arena, const Sym& base, const Sym& index) {
  std::string& out = Scratch();
  AppendIndexOpen(out, base);
  index.AppendTo(out);
  out += ']';
  return Sym::Plain(arena, out, kPrecPostfix);
}

Sym ComposeCast(Arena& arena, const std::string& type_name, const Sym& operand) {
  std::string& out = Scratch();
  out += '(';
  out += type_name;
  out += ')';
  operand.AppendAsOperand(out, kPrecUnary);
  return Sym::Plain(arena, out, kPrecUnary);
}

Sym ComposeWith(Arena& arena, const Sym& subject, bool arrow, std::string_view inner) {
  std::string& out = Scratch();
  subject.AppendAsOperand(out, kPrecPostfix);
  out += arrow ? "->(" : ".(";
  out += inner;
  out += ')';
  return Sym::Plain(arena, out, kPrecPostfix);
}

Value Value::RV(TypeRef type, const void* bytes, size_t n, Sym sym) {
  Value v;
  v.kind_ = Kind::kRValue;
  v.type_ = type;
  v.size_ = static_cast<uint32_t>(n);
  if (n <= 8) {
    if (n != 0) {
      std::memcpy(&v.word_, bytes, n);
    }
  } else {
    v.data_ = static_cast<const uint8_t*>(bytes);
  }
  v.sym_ = sym;
  return v;
}

Value Value::Int(TypeRef type, int64_t value, Sym sym) {
  size_t n = type->size();
  if (n > 8) {
    throw DuelError(ErrorKind::kInternal, "Value::Int with oversized type");
  }
  return RV(type, &value, n, sym);  // little-endian truncation
}

Value Value::Double(TypeRef type, double value, Sym sym) {
  if (type->kind() == TypeKind::kFloat) {
    float f = static_cast<float>(value);
    return RV(type, &f, sizeof(f), sym);
  }
  return RV(type, &value, sizeof(value), sym);
}

Value Value::Pointer(TypeRef type, Addr a, Sym sym) { return RV(type, &a, sizeof(a), sym); }

Value Value::LV(TypeRef type, Addr address, Sym sym) {
  Value v;
  v.kind_ = Kind::kLValue;
  v.type_ = type;
  v.word_ = address;
  v.sym_ = sym;
  return v;
}

Value Value::BitfieldLV(TypeRef type, Addr address, unsigned bit_offset, unsigned bit_width,
                        Sym sym) {
  Value v = LV(type, address, sym);
  v.bit_offset_ = static_cast<uint8_t>(bit_offset);
  v.bit_width_ = static_cast<uint8_t>(bit_width);
  return v;
}

Value Value::FrameHandle(size_t frame_index, Sym sym) {
  Value v;
  v.kind_ = Kind::kFrame;
  v.word_ = frame_index;
  v.sym_ = sym;
  return v;
}

Addr Value::addr() const {
  if (kind_ != Kind::kLValue) {
    throw DuelError(ErrorKind::kInternal, "addr() on non-lvalue");
  }
  return word_;
}

std::span<const uint8_t> Value::bytes() const {
  if (kind_ != Kind::kRValue) {
    throw DuelError(ErrorKind::kInternal, "bytes() on non-rvalue");
  }
  if (size_ <= 8) {
    return {reinterpret_cast<const uint8_t*>(&word_), size_};
  }
  return {data_, size_};
}

Value Value::Rehome(Arena& arena) const {
  Value v = *this;
  v.sym_ = sym_.Rehome(arena);
  if (kind_ == Kind::kRValue && size_ > 8) {
    v.data_ = arena.Copy(data_, size_);
  }
  return v;
}

}  // namespace duel
