// The check stage of the staged query pipeline (lex → parse → analyze →
// check → execute): a conservative type-inference walk over the parsed tree
// that reports definite errors — queries that cannot evaluate without
// faulting — before the execute stage touches target memory, plus warnings
// with fix-it hints for the classic DUEL pitfalls.
//
// The paper: "for many Duel expressions, run-time type checking and symbol
// lookup could be done at compile time using type-inference techniques."
// The analyze stage (sema.h) uses that observation to speed queries up;
// this stage uses it to reject doomed ones in microseconds instead of after
// seconds of backend round trips.
//
// Soundness contract: the checker must never reject a query the engine
// would evaluate successfully. Types propagate as "known or unknown" —
// every dynamic feature (aliases rebound per value, opened with-scopes over
// frames, query-local `:=` names) degrades to unknown, and unknown
// silences every rule downstream. The only backend traffic the walk is
// allowed is symbol/type *lookups*; it never reads target memory, which is
// what makes "zero data calls before rejection" testable.

#ifndef DUEL_DUEL_CHECK_H_
#define DUEL_DUEL_CHECK_H_

#include <string>
#include <utility>
#include <vector>

#include "src/duel/ast.h"
#include "src/duel/diag.h"
#include "src/duel/evalctx.h"
#include "src/duel/sema.h"

namespace duel {

struct CheckResult {
  std::vector<Diag> diags;  // errors and warnings, in source order

  // Names the walk resolved through the session alias table or the target
  // symbol tables (bool = was aliased at check time). The plan cache
  // re-validates exactly this list when the alias table changes: an alias
  // appearing, disappearing, or being rebound over any consulted name
  // invalidates the cached verdict (Session::PlanIsValid).
  std::vector<std::pair<std::string, bool>> names;

  size_t num_errors() const;
  size_t num_warnings() const;
  bool HasErrors() const { return num_errors() > 0; }

  // The first error as a throwable DuelError (message + span match the
  // diagnostic, so rejected queries read like their runtime counterparts).
  DuelError FirstError() const;
};

// Runs the inference walk. `notes` is the analyze stage's side table (may be
// null when checking outside a plan); resolved cast types are reused from it
// instead of re-searching the type tables. Warning rules that depend on
// evaluation options (cycle detection) read ctx.opts(). Throws nothing.
CheckResult CheckQuery(EvalContext& ctx, const Node& root, const Annotations* notes);

}  // namespace duel

#endif  // DUEL_DUEL_CHECK_H_
