// The plan stage of the staged query pipeline (lex → parse → analyze →
// execute): a CompiledQuery is the cacheable artifact between the front
// half (text-dependent work) and the execute stage (state-dependent work).
//
// A CompiledQuery owns everything derived purely from the expression text
// and the compile-time world: the token stream, the parsed AST, and the
// analyze stage's result (sema.h) — the annotation side table and the
// verdict. It deliberately owns NO target data — values are always produced
// against live memory — so reusing a plan is semantically invisible except
// for the work it skips.
//
// Session keeps plans in an LRU PlanCache keyed by (expression text,
// options fingerprint). A plan is stale only when one of two epochs moves:
//   * DebuggerBackend::SymbolEpoch() — frame changes and symbol-table
//     mutations move it; stale name bindings and verdicts are rebuilt;
//   * AliasTable::version() — a new alias can shadow a bound name or change
//     how a consulted name resolves; the plan re-checks its one list of
//     consulted names (CheckResult::names), so alias churn from `:=`-heavy
//     queries does not evict unrelated plans.
// Target writes, calls and allocations never stale a plan: it holds no
// target bytes, and every query re-reads memory through a fresh data epoch.

#ifndef DUEL_DUEL_PLAN_H_
#define DUEL_DUEL_PLAN_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/duel/parser.h"
#include "src/duel/sema.h"
#include "src/duel/token.h"
#include "src/support/counters.h"

namespace duel {

struct CompiledQuery {
  std::string text;          // the exact expression this plan compiles
  uint64_t fingerprint = 0;  // options that change compiled artifacts

  std::vector<Token> tokens;
  ParseResult parsed;  // owns the AST; parsed.num_nodes sizes the side table

  // The analyze stage's result (check.h): bindings, folds, cast types and
  // the verdict. A warm hit replays the diagnostics without re-running the
  // walk; notes.check.names is re-validated against the alias table by
  // Session::PlanIsValid, and the symbol epoch below covers the target side.
  Annotations notes;

  // Build-stage timings, replayed into QueryStats on cache hits as zero
  // (the stages did not run) but kept here for `plan` introspection.
  uint64_t lex_ns = 0;
  uint64_t parse_ns = 0;
  uint64_t analyze_ns = 0;

  // Validity epochs (see header comment). alias_version is refreshed after
  // each successful run: a query's own definitions are never bound, so its
  // own aliases cannot invalidate its own plan.
  uint64_t symbol_epoch = 0;
  uint64_t alias_version = 0;

  uint64_t hits = 0;  // times this plan was reused
};

// Session-level LRU cache of CompiledQuery, keyed by (text, fingerprint).
// Pointers returned by Find/Insert stay valid until the entry is evicted or
// the cache is cleared (std::list nodes are stable under splicing).
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64) : capacity_(capacity) {}

  // Looks up and touches (moves to MRU). Does not check validity — the
  // session owns that policy (it needs the backend/context epochs).
  CompiledQuery* Find(const std::string& text, uint64_t fingerprint);

  // Inserts (replacing any entry with the same key) and returns the cached
  // plan; evicts the LRU entry when over capacity.
  CompiledQuery* Insert(std::unique_ptr<CompiledQuery> plan);

  // Drops one entry (a plan detected stale) or everything.
  void Erase(const std::string& text, uint64_t fingerprint);
  void Clear();

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);

  // MRU first; for `plan` / -duel-plan introspection.
  std::vector<const CompiledQuery*> Entries() const;

  PlanCacheCounters& counters() { return counters_; }

 private:
  using Key = std::pair<std::string, uint64_t>;

  size_t capacity_;
  std::list<CompiledQuery> entries_;  // MRU first
  std::map<Key, std::list<CompiledQuery>::iterator> index_;
  PlanCacheCounters counters_;
};

}  // namespace duel

#endif  // DUEL_DUEL_PLAN_H_
