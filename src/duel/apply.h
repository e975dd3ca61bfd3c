// The operator-application layer: DUEL "contains ... its own implementation
// of the C operators" (paper, Implementation), as one set of rules used at
// two times. The static-typing half decides from operand types alone what an
// operator yields or why it cannot apply; the checker (check.cc) calls it
// with inferred types. The Value half (Apply*) implements the single-value C
// semantics; it asks the typing half first and then computes, and the
// evaluation engine drives it once per combination of operand values.
// Operator facts — which ops are arithmetic or comparisons, the operator a
// compound assignment or filter applies, how an op is spelled — are reads of
// the operator table in ast.h.

#ifndef DUEL_DUEL_APPLY_H_
#define DUEL_DUEL_APPLY_H_

#include <cstdint>
#include <string>

#include "src/duel/ast.h"
#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

// --- static typing -----------------------------------------------------------
//
// Pure functions of TypeRefs and the TypeTable: no Values, no target memory.
// Operand types are rvalue types unless a rule takes an lvalue's declared
// type. A null operand type is a frame handle, which no C operator accepts;
// the checker never passes one, because unknown types silence every rule.

// Why a typing rule rejected its operands. Each fault has one stable rule
// name (the checker's diagnostic id) and one message (the engine's error
// text): Typing::rule() and Typing::Message().
enum class TypeFault : uint8_t {
  kNone,
  kInvalidOperands,
  kUnaryNonArithmetic,
  kUnaryNonInteger,
  kDerefNonPointer,
  kDerefVoidPointer,
  kAddrOfRvalue,
  kAddrOfBitfield,
  kIndexNonPointer,
  kNonInteger,  // an operand read as an integer or address (index, store, comparison)
  kNoType,      // ... that is a frame handle
  kNotCondition,
  kIncDecRvalue,
  kIncDecNonScalar,
  kAssignRvalue,
  kAssignMismatch,   // a record or array from another type
  kAssignNonScalar,  // a void or function lvalue
};

// A typing rule's verdict: the result type, or the fault. Success does not
// allocate; the message is formatted only on demand.
class Typing {
 public:
  // Implicit, so a rule can `return t;` its result type.
  Typing(TypeRef type) : type_(type) {}
  Typing(TypeFault fault, TypeRef a, TypeRef b = nullptr, Op op = Op::kAdd)
      : fault_(fault), op_(op), a_(a), b_(b) {}

  explicit operator bool() const { return fault_ == TypeFault::kNone; }
  TypeRef type() const { return type_; }  // only when the rule held
  TypeFault fault() const { return fault_; }

  const char* rule() const;
  std::string Message() const;
  [[noreturn]] void Throw(SourceRange range = {}) const;  // DuelError(kType, Message())

 private:
  TypeRef type_ = nullptr;
  TypeFault fault_ = TypeFault::kNone;
  Op op_ = Op::kAdd;
  TypeRef a_ = nullptr;  // the operand types the message names
  TypeRef b_ = nullptr;
};

// Integer promotion and the usual arithmetic conversions (LP64).
TypeRef Promote(target::TypeTable& types, TypeRef t);
TypeRef CommonType(target::TypeTable& types, TypeRef a, TypeRef b);

// The type an lvalue of declared type `t` has as an rvalue: arrays decay to
// a pointer to their element, functions to a pointer to themselves.
TypeRef RvalueType(target::TypeTable& types, TypeRef t);
// The same for a value: lvalues decay, rvalues keep their type.
TypeRef RvalueTypeOf(target::TypeTable& types, const Value& v);

// kIntConst (int, long or unsigned by suffix and magnitude), kCharConst,
// kFloatConst, kStringConst.
TypeRef LiteralType(target::TypeTable& types, const Node& n);

// An operand read as an integer or an address (EvalContext::ToI64): any
// scalar; yields its own type.
Typing IntegerType(TypeRef t);

// kNeg kPos kBitNot kNot kDeref.
Typing UnaryType(target::TypeTable& types, Op op, TypeRef t);
// &e over the declared type of e.
Typing AddressType(target::TypeTable& types, TypeRef t, bool lvalue, bool bitfield);
// Arithmetic, bitwise, shift and comparison operators; comparisons yield int.
Typing BinaryType(target::TypeTable& types, Op op, TypeRef a, TypeRef b);
// The type a comparison compares in: the pointer operand's type for address
// comparisons, double for floating ones, else the common integer type.
Typing ComparisonType(target::TypeTable& types, Op op, TypeRef a, TypeRef b);
// e1[e2], including C's commutative 2[x]; yields the element type.
Typing IndexType(TypeRef base, TypeRef index);
// ++/-- over the declared type of an lvalue, including storing the result.
Typing IncDecType(target::TypeTable& types, TypeRef t, bool lvalue);
// `target = source` (EvalContext::Store's rule) or a compound `target op=
// source`, for an lvalue of declared type `target` and a value of rvalue type
// `source`; yields the assignment's value type.
Typing AssignType(target::TypeTable& types, Op op, TypeRef target, bool lvalue, TypeRef source);
// A value tested for truth must be a scalar (EvalContext::Truthy); yields int.
Typing ConditionType(target::TypeTable& types, TypeRef t);

// --- values ------------------------------------------------------------------

// Arithmetic / bitwise / comparison binary operators (kMul..kNe and the
// bit ops). Logical &&/|| and the ?-filters are generator-level and live in
// the engine (filters use ApplyComparison).
Value ApplyBinary(EvalContext& ctx, Op op, const Value& a, const Value& b, SourceRange range);

// ApplyBinary for the arithmetic operators without composing a symbolic:
// the result has none. For folds whose result text is replaced anyway (+/).
Value ApplyArith(EvalContext& ctx, Op op, const Value& a, const Value& b, SourceRange range);

// Evaluates the C comparison `op` (kLt..kNe) and returns its truth value —
// used both by the C comparisons and the ?-filter generators.
bool ApplyComparison(EvalContext& ctx, Op op, const Value& a, const Value& b, SourceRange range);

// The comparison half of ApplyComparison, for operands already loaded: `op`
// (kLt..kNe) over two scalars whose ComparisonType is `ct`.
bool CompareScalars(Op op, TypeRef ct, const Scalar& a, const Scalar& b);

// CompareScalars for a run of elements of one type against one constant,
// with its type and operator dispatch hoisted out of the loop: the element
// type, the comparison type and the operator pick one loop, which converts
// each element as Scalar's readouts do and calls the same Compare. The
// filter scan (eval_sm.cc) types a range's comparison once and runs it over
// block runs.
class RunComparison {
 public:
  // Elements of type `elem` compared by `op` in `ct` against `rhs`. False
  // when no loop covers that combination; the caller then compares element
  // by element.
  bool Set(Op op, TypeRef elem, TypeRef ct, const Scalar& rhs);

  // Of the elements [from, n) of `run` (packed, elem->size() bytes each):
  // the index of the first that passes, or n.
  size_t FirstPass(const uint8_t* run, size_t from, size_t n) const {
    return first_(run, from, n, rhs_);
  }
  // How many of them pass.
  size_t CountPasses(const uint8_t* run, size_t from, size_t n) const {
    return count_(run, from, n, rhs_);
  }

  // The constant converted once to the comparison's domain, plus the mask
  // an unsigned comparison narrower than 64 bits applies to both sides.
  struct Operand {
    int64_t i = 0;
    uint64_t u = 0;
    double f = 0;
    uint64_t mask = ~uint64_t{0};
  };
  using Loop = size_t (*)(const uint8_t* run, size_t from, size_t n, const Operand& rhs);

 private:
  Loop first_ = nullptr;
  Loop count_ = nullptr;
  Operand rhs_;
};

// kNeg kPos kBitNot kNot kDeref kAddrOf.
Value ApplyUnary(EvalContext& ctx, Op op, const Value& v, SourceRange range);

// e1[e2] with C pointer/array semantics; yields an lvalue.
Value ApplyIndex(EvalContext& ctx, const Value& base, const Value& index, SourceRange range);

// The value ApplyIndex yields once it has located the element: the lvalue
// of type `elem` at `addr`, with the symbolic `base[index]`.
Value IndexedLvalue(EvalContext& ctx, const Value& base, const Value& index, TypeRef elem,
                    Addr addr);

// (type)e.
Value ApplyCast(EvalContext& ctx, TypeRef type, const Value& v, SourceRange range);

// = and op=; returns the value of the assignment (the new lhs value).
Value ApplyAssign(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                  SourceRange range);

// kPreInc kPreDec kPostInc kPostDec.
Value ApplyIncDec(EvalContext& ctx, Op op, const Value& v, SourceRange range);

}  // namespace duel

#endif  // DUEL_DUEL_APPLY_H_
