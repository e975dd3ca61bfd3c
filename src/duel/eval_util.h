// Node-semantics helpers for the evaluation engine: what each operator means,
// kept apart from how the engine suspends and resumes (eval_sm.cc).

#ifndef DUEL_DUEL_EVAL_UTIL_H_
#define DUEL_DUEL_EVAL_UTIL_H_

#include <deque>
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
// The symbolic half of ComposeWithResult, with symbolics on.
Sym ComposeWithSym(EvalContext& ctx, const Sym& subject, bool arrow, const Sym& inner);

// Target function call with already-evaluated arguments.
Value CallTarget(EvalContext& ctx, const std::string& name, const std::vector<Value>& args,
                 SourceRange range);

// e@n: true if n is a literal (match mode) rather than a predicate.
bool UntilMatchMode(const Node& pred);
// Match-mode comparison of a produced value against the literal.
bool UntilEquals(EvalContext& ctx, const Value& u, const Node& pred);

// --- graph expansion (--> / -->>) -------------------------------------------

// A set of 64-bit keys: open addressing with linear probing, doubling at
// half full. Its table is its own, freed with it.
class KeySet {
 public:
  // Adds `key`; false when it was already present.
  bool Insert(uint64_t key);
  // Empties the set for another walk. The table is kept when the last walk
  // filled a quarter of it or more, so a clear costs what that walk cost.
  void Clear();

 private:
  size_t Slot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & (slots_.size() - 1);
  }
  void Grow();

  std::vector<uint64_t> slots_;  // 0 marks an empty slot; a power of two long
  size_t size_ = 0;              // nonzero keys held
  bool has_zero_ = false;
};

struct ExpandState {
  std::deque<Value> pending;     // stack (dfs) or queue (bfs)
  KeySet seen;                   // cycle-detection keys
  uint64_t expanded = 0;
  std::vector<Value> children;   // the node being expanded; reused across nodes
};

// Counts one admission against the expansion bound (max_expand_nodes).
void CountExpansion(EvalContext& ctx, uint64_t& expanded);

// Admission filter at push time: rejects null pointers, detected cycles, and
// enforces the expansion bound.
bool ExpandAdmit(EvalContext& ctx, ExpandState& st, const Value& v);

// The pointer half of ExpandAdmit, for a pointer `p` already read: rejects
// null and, with cycle detection on, a node `seen` holds.
bool AdmitNode(EvalContext& ctx, KeySet& seen, Addr p);

// Validity filter at pop time: an unreadable (invalid) pointer terminates
// its path silently, per the paper.
bool ExpandReadable(EvalContext& ctx, const Value& v);

// Builds the with-scope used to expand node `x` (pointers open *x).
WithScope ExpandScope(const Value& x);

}  // namespace duel

#endif  // DUEL_DUEL_EVAL_UTIL_H_
