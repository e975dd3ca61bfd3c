// Node-semantics helpers for the evaluation engine: what each operator means,
// kept apart from how the engine suspends and resumes (eval_sm.cc).

#ifndef DUEL_DUEL_EVAL_UTIL_H_
#define DUEL_DUEL_EVAL_UTIL_H_

#include <deque>
#include <set>
#include <vector>

#include "src/duel/apply.h"
#include "src/duel/ast.h"
#include "src/duel/evalctx.h"
#include "src/duel/sema.h"
#include "src/duel/value.h"

namespace duel {

// Constants, string literals, names.
// A literal leaf's value (kIntConst/kFloatConst/kCharConst), its symbolic
// (when `with_sym`) formatted into the handle or `arena`.
Value LiteralValue(target::TypeTable& types, Arena& arena, const Node& n, bool with_sym);
// LiteralValue in the query arena, counted as a symbolic build.
Value ConstValue(EvalContext& ctx, const Node& n);
// A literal leaf's materialized value when a plan is attached, else ConstValue.
Value LiteralOf(EvalContext& ctx, const Node& n);
Value StringValue(EvalContext& ctx, const Node& n);  // kStringConst (interned char*)
Value NameValue(EvalContext& ctx, const Node& n);    // kName; throws on unknown names

// An int-typed value whose symbolic is its own decimal text (the symbolic
// value of a..b "is the current iteration value").
Value MakeIntValue(EvalContext& ctx, int64_t v);

// Executes a declaration node: allocates zeroed target space per declarator
// and registers each name as an alias (declarations produce no values).
void ExecDecl(EvalContext& ctx, const Node& n);

// sizeof(type).
Value SizeofTypeValue(EvalContext& ctx, const Node& n);

// The syntactic type of a kCast / kSizeofType node: the analyze stage's
// pre-resolved type when a plan is attached, dynamic resolution otherwise.
TypeRef ResolvedTypeOf(EvalContext& ctx, const Node& n);

// --- shared operator dispatch ------------------------------------------------
//
// The engine pre-dispatches on each operator's family (OpFamily, read from
// the operator table in ast.h) with one generic block per family; its own
// switch keeps only the structured operators. Adding an operator to one of
// these families is its table row plus its apply case.

// The apply step for kMapUnary ops (unary operators, ++/--, casts).
Value ApplyUnaryClass(EvalContext& ctx, const Node& n, const Value& u);

// The apply step for kBinaryProduct ops (arithmetic/bitwise/comparison,
// assignments, indexing).
Value ApplyBinaryClass(EvalContext& ctx, const Node& n, const Value& u, const Value& v);

// Sym composition for values produced inside a with scope (the `.`, `->`
// and expansion operators): passes `_` through, extends ->member chains,
// parenthesizes complex inner expressions.
Value ComposeWithResult(EvalContext& ctx, const Value& subject, bool arrow, const Value& inner);

// Target function call with already-evaluated arguments.
Value CallTarget(EvalContext& ctx, const std::string& name, const std::vector<Value>& args,
                 SourceRange range);

// e@n: true if n is a literal (match mode) rather than a predicate.
bool UntilMatchMode(const Node& pred);
// Match-mode comparison of a produced value against the literal.
bool UntilEquals(EvalContext& ctx, const Value& u, const Node& pred);

// --- graph expansion (--> / -->>) -------------------------------------------

struct ExpandState {
  std::deque<Value> pending;     // stack (dfs) or queue (bfs)
  std::set<uint64_t> seen;       // cycle-detection keys
  uint64_t expanded = 0;
  std::vector<Value> children;   // the node being expanded; reused across nodes
};

// Admission filter at push time: rejects null pointers, detected cycles, and
// enforces the expansion bound.
bool ExpandAdmit(EvalContext& ctx, ExpandState& st, const Value& v);

// Validity filter at pop time: an unreadable (invalid) pointer terminates
// its path silently, per the paper.
bool ExpandReadable(EvalContext& ctx, const Value& v);

// Builds the with-scope used to expand node `x` (pointers open *x).
WithScope ExpandScope(const Value& x);

}  // namespace duel

#endif  // DUEL_DUEL_EVAL_UTIL_H_
