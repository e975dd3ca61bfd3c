// DUEL values.
//
// Per the paper (Implementation): "The 'values' produced during evaluation
// have a type, an actual value, and a symbolic value. The actual value is a
// value of a primitive C type or an lvalue, which is a pointer to target
// data. The symbolic value is a symbolic expression (i.e., a legal Duel
// expression) that indicates how the value was computed."
//
// None of the three owns memory. A Value is 48 trivially copyable bytes: a
// kind, a TypeRef, an 8-byte payload (an rvalue's bytes when they fit, an
// lvalue's address, a frame index, or a pointer to a larger rvalue image)
// and a 24-byte Sym handle. Texts of up to Sym::kInlineCap characters live
// in the handle; longer texts, `->member` chains and aggregate images live
// in an Arena. Values a query makes use the evaluation context's arena,
// which every query rewinds: a Value is valid until the next BeginQuery,
// and an owner that keeps one longer re-homes it (Value::Rehome) into
// storage of its own.
//
// Sym tracks `->member` chains structurally so the display algorithm can
// compress occurrences of ->a->a... into -->a[[n]], and so select can print
// head-->member[[i]] for elements picked out of an expansion. A chain record
// holds the head and the member once; each step down the chain bumps the
// count in the handle, and text appended after the chain is a linked list
// of pieces that shares its prefix, so a `-->` walk adds O(1) arena bytes
// per node.
//
// The Compose* functions below are the only code that joins an operator's
// spelling to operand text. They take spelling and precedence from the
// operator table (ast.h), parenthesize by precedence, and put one space
// where the two texts would otherwise lex as a different token (`- -x`,
// `x[1] - -1`, `+ +x`, `& &x`, `x-- > 0`), so every symbolic re-parses.

#ifndef DUEL_DUEL_VALUE_H_
#define DUEL_DUEL_VALUE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/duel/ast.h"
#include "src/support/arena.h"
#include "src/target/ctype.h"
#include "src/target/memory.h"

namespace duel {

using target::Addr;
using target::TypeKind;
using target::TypeRef;

class Sym {
 public:
  // Longest text kept in the handle itself.
  static constexpr size_t kInlineCap = 22;

  // Number of repeated ->member steps at which the display algorithm switches
  // to the compressed -->member[[n]] form. The paper prints 3 steps expanded
  // and 8 compressed; the threshold is unspecified, we use 4.
  static constexpr int kCompressAt = 4;

  Sym() = default;  // no text

  static Sym None() { return Sym(); }
  // `text`, in the handle when it fits, else copied into `arena`.
  static Sym Plain(Arena& arena, std::string_view text, int prec = kPrecPrimary);
  // A decimal integer, formatted straight into the handle.
  static Sym Decimal(int64_t v);
  static Sym DecimalUnsigned(uint64_t v);

  bool empty() const { return tag_ == 0; }
  int prec() const {
    return tag_ == kChainTag ? static_cast<int>(kPrecPostfix) : prec_ & ~kSubjectBit;
  }

  // The symbolic the `_` node yields: the with-subject's own, marked so that
  // the with-scope composing it keeps its subject's text (ComposeWithSym)
  // rather than comparing texts. Any composition drops the mark.
  Sym AsSubject() const {
    Sym s = *this;
    s.prec_ |= kSubjectBit;
    return s;
  }
  bool is_subject() const { return (prec_ & kSubjectBit) != 0; }
  // Length of the rendered text.
  size_t size() const;

  // Rendered text; chains of `->member` longer than kCompressAt render as
  // head-->member[[n]]suffix.
  std::string Text() const;
  void AppendTo(std::string& out) const;
  // Appends the text, wrapped in parentheses if this sym binds looser than
  // `min_prec`.
  void AppendAsOperand(std::string& out, int min_prec) const;
  // The rendered text without copying when it is stored flat; otherwise it
  // is rendered into `scratch`, which the view then points into.
  std::string_view View(std::string& scratch) const;

  // Composition used by `.` and `->`: appends a member access. Extends the
  // structural chain when the same member repeats via `->`.
  Sym WithMember(Arena& arena, std::string_view member, bool arrow) const;

  // Composition used by [[i]] on expansion chains: head-->member[[i]]suffix.
  // Falls back to the value's own sym (returns *this) for non-chains.
  Sym SelectedAt(Arena& arena, uint64_t index) const;

  // The same text with every record it points at copied into `arena`.
  Sym Rehome(Arena& arena) const;

 private:
  // Arena records (value.cc): a text piece, whose rendered text is the
  // previous piece's followed by its own characters, and a chain record,
  // head (-> member)*count, whose count and trailing pieces live in the
  // handle.
  struct Piece;
  struct Chain;

  static constexpr uint8_t kTextTag = 0xFE;   // raw_ holds a const Piece*
  static constexpr uint8_t kChainTag = 0xFF;  // raw_ holds {const Chain*, const Piece*, count}
  static constexpr uint8_t kSubjectBit = 0x80;  // in prec_: AsSubject's mark

  static const Piece* NewPiece(Arena& arena, const Piece* prev, std::string_view a,
                               std::string_view b = {});
  static void AppendPieces(std::string& out, const Piece* p);

  const Piece* text() const { return Load<const Piece*>(0); }
  const Chain* chain() const { return Load<const Chain*>(0); }
  const Piece* suffix() const { return Load<const Piece*>(8); }
  uint32_t count() const { return Load<uint32_t>(16); }

  template <typename T>
  T Load(size_t at) const {
    T v;
    std::memcpy(&v, raw_ + at, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(size_t at, T v) {
    std::memcpy(raw_ + at, &v, sizeof(T));
  }

  // Inline characters (tag_ <= kInlineCap is their count) or the record
  // fields named by the tag.
  alignas(8) char raw_[kInlineCap] = {};
  uint8_t tag_ = 0;
  uint8_t prec_ = kPrecPrimary;
};

static_assert(std::is_trivially_copyable_v<Sym>);
static_assert(sizeof(Sym) == 24);

// "a op b" for a binary operator; left-associative, so the left operand may
// sit at the operator's own level.
Sym ComposeBinary(Arena& arena, const Sym& lhs, Op op, const Sym& rhs);
// "op a" for a prefix operator, "a op" for a postfix one (by the row's
// precedence).
Sym ComposeUnary(Arena& arena, Op op, const Sym& operand);
Sym ComposeIndex(Arena& arena, const Sym& base, const Sym& index);
// The text ComposeIndex starts with: `base` as a postfix operand, then '['.
// A caller that writes the index and ']' itself (a printed scan) shares the
// rule through it.
void AppendIndexOpen(std::string& out, const Sym& base);
Sym ComposeCast(Arena& arena, const std::string& type_name, const Sym& operand);
// subject.(inner) or subject->(inner): a with-scope whose inner expression
// is not a plain member name.
Sym ComposeWith(Arena& arena, const Sym& subject, bool arrow, std::string_view inner);

class Value {
 public:
  enum class Kind : uint8_t {
    kRValue,
    kLValue,
    kFrame,  // extension: a stack-frame handle produced by frames()
  };

  Value() = default;

  // An rvalue of `n` bytes. Up to 8 bytes are copied into the value; a
  // larger image is referenced, not copied, so `bytes` must stay valid as
  // long as the value (the query arena, or an owner's re-homed copy).
  static Value RV(TypeRef type, const void* bytes, size_t n, Sym sym);
  static Value Int(TypeRef type, int64_t v, Sym sym);  // writes type->size() bytes
  static Value Double(TypeRef type, double v, Sym sym);
  static Value Pointer(TypeRef type, Addr a, Sym sym);
  static Value LV(TypeRef type, Addr addr, Sym sym);
  static Value BitfieldLV(TypeRef type, Addr addr, unsigned bit_offset, unsigned bit_width,
                          Sym sym);
  static Value FrameHandle(size_t frame_index, Sym sym);

  Kind kind() const { return kind_; }
  bool is_lvalue() const { return kind_ == Kind::kLValue; }
  bool is_frame() const { return kind_ == Kind::kFrame; }
  TypeRef type() const { return type_; }

  Addr addr() const;                          // lvalue only
  bool is_bitfield() const { return bit_width_ != 0; }
  unsigned bit_offset() const { return bit_offset_; }
  unsigned bit_width() const { return bit_width_; }
  size_t frame_index() const { return word_; }

  std::span<const uint8_t> bytes() const;  // rvalue only
  // An rvalue's first eight bytes, zero-extended (the whole of a scalar).
  uint64_t bits() const {
    if (size_ <= 8) {
      return word_;
    }
    uint64_t v;
    std::memcpy(&v, data_, sizeof(v));
    return v;
  }

  const Sym& sym() const { return sym_; }
  Sym& sym() { return sym_; }
  void set_sym(Sym s) { sym_ = s; }

  // A copy whose symbolic records and rvalue image live in `arena`.
  Value Rehome(Arena& arena) const;

 private:
  Kind kind_ = Kind::kRValue;
  uint8_t bit_offset_ = 0;
  uint8_t bit_width_ = 0;  // nonzero => bit-field lvalue
  uint32_t size_ = 0;      // rvalue byte count
  TypeRef type_ = nullptr;
  union {
    uint64_t word_ = 0;     // rvalue bytes (size_ <= 8), lvalue address, frame index
    const uint8_t* data_;   // rvalue image (size_ > 8)
  };
  Sym sym_;
};

static_assert(std::is_trivially_copyable_v<Value>);
static_assert(sizeof(Value) <= 48);

}  // namespace duel

#endif  // DUEL_DUEL_VALUE_H_
