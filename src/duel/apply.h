// The operator-application layer: DUEL "contains ... its own implementation
// of the C operators" (paper, Implementation). These functions implement the
// single-value C semantics — usual arithmetic conversions, pointer
// arithmetic, array decay, assignment conversions — on Values. The
// evaluation engine drives them once per combination of operand values.

#ifndef DUEL_DUEL_APPLY_H_
#define DUEL_DUEL_APPLY_H_

#include "src/duel/ast.h"
#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

// Arithmetic / bitwise / comparison binary operators (kMul..kNe and the
// bit ops). Logical &&/|| and the ?-filters are generator-level and live in
// the engine (filters use ApplyComparison).
Value ApplyBinary(EvalContext& ctx, Op op, const Value& a, const Value& b, SourceRange range);

// Evaluates the C comparison `op` (kLt..kNe) and returns its truth value —
// used both by the C comparisons and the ?-filter generators.
bool ApplyComparison(EvalContext& ctx, Op op, const Value& a, const Value& b, SourceRange range);

// kNeg kPos kBitNot kNot kDeref kAddrOf.
Value ApplyUnary(EvalContext& ctx, Op op, const Value& v, SourceRange range);

// e1[e2] with C pointer/array semantics; yields an lvalue.
Value ApplyIndex(EvalContext& ctx, const Value& base, const Value& index, SourceRange range);

// (type)e.
Value ApplyCast(EvalContext& ctx, const TypeRef& type, const Value& v, SourceRange range);

// = and op=; returns the value of the assignment (the new lhs value).
Value ApplyAssign(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                  SourceRange range);

// kPreInc kPreDec kPostInc kPostDec.
Value ApplyIncDec(EvalContext& ctx, Op op, const Value& v, SourceRange range);

// Concrete-syntax spelling of a binary operator ("+", "=="), for symbolic
// values; nullptr if the op has none.
const char* BinOpText(Op op);
int BinOpPrec(Op op);

// Maps a filter operator (kIfGt...) to its underlying comparison (kGt...).
Op FilterToComparison(Op op);

}  // namespace duel

#endif  // DUEL_DUEL_APPLY_H_
