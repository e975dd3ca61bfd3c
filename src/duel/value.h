// DUEL values.
//
// Per the paper (Implementation): "The 'values' produced during evaluation
// have a type, an actual value, and a symbolic value. The actual value is a
// value of a primitive C type or an lvalue, which is a pointer to target
// data. The symbolic value is a symbolic expression (i.e., a legal Duel
// expression) that indicates how the value was computed."
//
// Sym tracks `->member` chains structurally so the display algorithm can
// compress occurrences of ->a->a... into -->a[[n]], and so select can print
// head-->member[[i]] for elements picked out of an expansion.
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
#include <vector>

#include "src/duel/ast.h"
#include "src/target/ctype.h"
#include "src/target/memory.h"

namespace duel {

using target::Addr;
using target::TypeKind;
using target::TypeRef;

class Sym {
 public:
  Sym() = default;

  static Sym Plain(std::string text, int prec = kPrecPrimary);
  static Sym None() { return Sym(); }

  bool empty() const { return head_.empty() && count_ == 0; }
  int prec() const { return count_ > 0 ? kPrecPostfix : prec_; }

  // Rendered text; chains of `->member` longer than kCompressAt render as
  // head-->member[[n]]suffix.
  std::string Text() const;
  // Text wrapped in parentheses if this sym binds looser than `min_prec`.
  std::string TextAsOperand(int min_prec) const;

  // Composition used by `.` and `->`: appends a member access. Extends the
  // structural chain when the same member repeats via `->`.
  Sym WithMember(const std::string& member, bool arrow) const;

  // Composition used by [[i]] on expansion chains: head-->member[[i]]suffix.
  // Falls back to the value's own sym (returns *this) for non-chains.
  Sym SelectedAt(uint64_t index) const;

  // Number of repeated ->member steps at which the display algorithm switches
  // to the compressed -->member[[n]] form. The paper prints 3 steps expanded
  // and 8 compressed; the threshold is unspecified, we use 4.
  static constexpr int kCompressAt = 4;

 private:
  // Invariant: either count_ == 0 and head_ holds the whole text, or
  // count_ > 0 and the sym is head_ (-> member_)*count_ suffix_.
  std::string head_;
  std::string member_;
  int count_ = 0;
  std::string suffix_;
  int prec_ = kPrecPrimary;
};

// "a op b" for a binary operator; left-associative, so the left operand may
// sit at the operator's own level.
Sym ComposeBinary(const Sym& lhs, Op op, const Sym& rhs);
// "op a" for a prefix operator, "a op" for a postfix one (by the row's
// precedence).
Sym ComposeUnary(Op op, const Sym& operand);
Sym ComposeIndex(const Sym& base, const Sym& index);
Sym ComposeCast(const std::string& type_name, const Sym& operand);
// subject.(inner) or subject->(inner): a with-scope whose inner expression
// is not a plain member name.
Sym ComposeWith(const Sym& subject, bool arrow, const std::string& inner);

// Byte storage for rvalues with a small-buffer optimization: scalar values
// (the overwhelming majority) stay inline; whole-struct rvalues spill to the
// heap. This keeps generator loops allocation-free per value.
class ByteStore {
 public:
  ByteStore() = default;

  void Assign(const void* p, size_t n) {
    size_ = n;
    if (n <= kInline) {
      heap_.clear();
      if (n != 0) {
        std::memcpy(inline_, p, n);
      }
    } else {
      heap_.assign(static_cast<const uint8_t*>(p), static_cast<const uint8_t*>(p) + n);
    }
  }

  const uint8_t* data() const { return size_ <= kInline ? inline_ : heap_.data(); }
  size_t size() const { return size_; }
  std::span<const uint8_t> span() const { return {data(), size_}; }

 private:
  static constexpr size_t kInline = 16;
  size_t size_ = 0;
  uint8_t inline_[kInline] = {};
  std::vector<uint8_t> heap_;
};

class Value {
 public:
  enum class Kind {
    kRValue,
    kLValue,
    kFrame,  // extension: a stack-frame handle produced by frames()
  };

  Value() = default;

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
  size_t frame_index() const { return frame_index_; }

  std::span<const uint8_t> bytes() const;  // rvalue only

  const Sym& sym() const { return sym_; }
  Sym& sym() { return sym_; }
  void set_sym(Sym s) { sym_ = std::move(s); }

 private:
  Kind kind_ = Kind::kRValue;
  TypeRef type_ = nullptr;
  ByteStore bytes_;             // rvalue payload
  Addr addr_ = 0;               // lvalue payload
  unsigned bit_offset_ = 0;
  unsigned bit_width_ = 0;      // nonzero => bit-field lvalue
  size_t frame_index_ = 0;
  Sym sym_;
};

}  // namespace duel

#endif  // DUEL_DUEL_VALUE_H_
