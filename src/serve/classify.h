// Read/write classification of compiled queries.
//
// The concurrent query service runs read-only queries from different
// sessions in parallel under a shared (reader) target lock; anything that
// can mutate shared target state takes the writer lock. Classification must
// therefore be *sound in one direction only*: a mutating query must never
// classify read-only (it would race every concurrent reader), while
// classifying a read-only query as mutating merely serialises it.
//
// The verdict is duel::MutatesTarget (ast.h), a conservative AST scan for
// the syntactic mutators: assignment in all its spellings, ++/--, target
// calls, and declarations (which allocate target space). The checker's
// side-effect-reeval warning asks the same predicate, so the two can never
// disagree about what writes the target — and unlike the checker, which
// swallows internal errors and returns partial results, the scan cannot
// stop early.

#ifndef DUEL_SERVE_CLASSIFY_H_
#define DUEL_SERVE_CLASSIFY_H_

#include "src/duel/ast.h"
#include "src/duel/plan.h"

namespace duel::serve {

enum class QueryClass {
  kReadOnly,  // touches no shared target state: runs under the reader lock
  kMutating,  // may write/alloc/call into the target: takes the writer lock
};

// The verdict for a compiled plan: MutatesTarget over its parsed tree.
// Session-local effects (alias definition via `:=`, `#`) do not count — each
// session is single-threaded, so its alias table is private.
QueryClass Classify(const CompiledQuery& plan);

}  // namespace duel::serve

#endif  // DUEL_SERVE_CLASSIFY_H_
