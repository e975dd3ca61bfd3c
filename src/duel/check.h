// The analyze stage of the staged query pipeline (lex → parse → analyze →
// execute): one conservative type-inference walk over the parsed tree. It
// reports definite errors — queries that cannot evaluate without faulting —
// before the execute stage touches target memory, plus warnings with fix-it
// hints for the classic DUEL pitfalls; and, from the same lookups, it fills
// the annotation side table (sema.h) with name bindings, folded constants
// and resolved cast types.
//
// The paper: "for many Duel expressions, run-time type checking and symbol
// lookup could be done at compile time using type-inference techniques."
// The walk uses that observation twice: to reject doomed queries in
// microseconds instead of after seconds of backend round trips, and to bind
// each name once per plan instead of once per produced value. It holds no
// operator rules of its own: every literal, unary, binary, comparison,
// subscript, condition, ++/-- and assignment type comes from the engine's
// typing functions (apply.h), so an operator error is reported with exactly
// the rule and text the engine would raise.
//
// Soundness contract: the walk must never reject a query the engine would
// evaluate successfully, nor bind a name the engine could resolve
// differently. Types propagate as "known or unknown" — every dynamic
// feature (aliases rebound per value, opened with-scopes over frames,
// query-local `:=` names) degrades to unknown, and unknown silences every
// rule downstream. The only backend traffic the walk is allowed is
// symbol/type *lookups*; it never reads target memory, which is what makes
// "zero data calls before rejection" testable.

#ifndef DUEL_DUEL_CHECK_H_
#define DUEL_DUEL_CHECK_H_

#include "src/duel/ast.h"
#include "src/duel/evalctx.h"
#include "src/duel/sema.h"

namespace duel {

// Runs the walk once. Name resolution consults the backend and aliases
// through `ctx`; folding runs the same ConstValue/Apply* helpers the engine
// uses, so a folded node's value and symbolic text are byte-identical to
// unfolded evaluation. Warning rules that depend on evaluation options
// (cycle detection) read ctx.opts(). Throws nothing: a subtree that would
// fault or divide by zero is simply left unfolded (preserving lazy error
// semantics), and an unexpected throw keeps what was annotated so far.
Annotations Analyze(EvalContext& ctx, const Node& root, int num_nodes);

// The verdict of an Analyze run: returns notes->check.
CheckResult CheckQuery(EvalContext& ctx, const Node& root, const Annotations* notes);

}  // namespace duel

#endif  // DUEL_DUEL_CHECK_H_
