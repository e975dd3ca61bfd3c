// The result of the analysis pass (check.h): what the staged query pipeline
// (lex → parse → analyze → execute) learns about a parsed tree at compile
// time. The paper: "for many Duel expressions, run-time type checking and
// symbol lookup could be done at compile time using type-inference
// techniques". One walk does both halves and leaves them here:
//
//   * a per-node side table the execute stage consumes instead of redoing
//     the work per produced value —
//       - compile-time name bindings (kName → target variable), made only
//         where nothing can rebind the name dynamically: no with-scope is
//         open, the query does not define it, and no alias holds it;
//       - member bindings (kName → a member of the record an enclosing
//         with-scope opens), and the compiled walks they allow for `-->`;
//       - constant-folded pure subtrees: a composite of arithmetic/bitwise/
//         comparison operators over literals collapses to one precomputed
//         Value (evaluation then yields it like a literal leaf — exactly one
//         value per eval call, so generator semantics are untouched);
//       - literal leaves, materialized once, so evaluation copies their
//         Value instead of rebuilding it per produced value;
//       - resolved syntactic types for kCast / kSizeofType, so repeated casts
//         do not re-search the debugger's type tables per value;
//   * the verdict (CheckResult): diagnostics, and every name the walk
//     resolved through the aliases or the target symbol tables.
//
// The AST itself is never mutated: annotations live in a side table indexed
// by the dense Node::id. That is what makes the artifact cacheable — a
// CompiledQuery (plan.h) owns {tokens, AST, Annotations} and replays them
// across queries, while anything dynamic (aliases, with-scopes, memory)
// keeps resolving at execute time.

#ifndef DUEL_DUEL_SEMA_H_
#define DUEL_DUEL_SEMA_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/duel/ast.h"
#include "src/duel/diag.h"
#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

// A `-->` or `-->>` whose body names child pointers of the record its scope
// opens: a member-bound name, or a comma list of them, each a pointer back
// to that record (`next`, `(left,right)`). The engine reads the children
// straight from each node's bytes (eval_sm.cc, "Compiled walks").
struct WalkPlan {
  struct Child {
    uint64_t offset = 0;              // of the pointer within the record
    target::TypeRef type = nullptr;   // the member's pointer type
    std::string_view name;            // its spelling in the query
  };
  target::TypeRef record = nullptr;
  std::span<const Child> children;    // in the order the body yields them
};

struct NodeInfo {
  // kName resolved to a target variable at analysis time.
  bool prebound = false;
  target::TypeRef bound_type = nullptr;
  uint64_t bound_addr = 0;

  // kName resolved at analysis time to `member` of `member_record`, the
  // record opened by the with-scope `member_depth` levels out from the
  // innermost. Made only where every subject that scope can hold at run
  // time opens that record, so the engine evaluates the name as subject +
  // offset with no scope search. A complete record's members never change.
  target::TypeRef member_record = nullptr;
  const target::Member* member = nullptr;
  uint32_t member_depth = 0;

  // kDfs / kBfs: the compiled walk, when the body allows one.
  const WalkPlan* walk = nullptr;

  // A node whose one value is known at compile time: a literal leaf
  // (materialized once instead of per evaluation) or the root of a maximal
  // constant-folded subtree. The engine treats the node as a leaf: one eval
  // call yields a copy of `value`, the next exhausts it. The value's records
  // live in the owning Annotations' store.
  bool constant = false;
  Value value;

  // kCast / kSizeofType with the syntactic type resolved once.
  target::TypeRef resolved_type = nullptr;
};

struct SemaStats {
  size_t names_bound = 0;
  size_t nodes_folded = 0;  // maximal folded subtree roots
};

struct CheckResult {
  std::vector<Diag> diags;  // errors and warnings, in source order

  // Names the walk resolved through the session alias table or the target
  // symbol tables (bool = was aliased at analysis time); every bound name is
  // among them. The plan cache re-validates exactly this list when the alias
  // table changes: an alias appearing, disappearing, or being rebound over
  // any consulted name invalidates the plan (Session::PlanIsValid).
  std::vector<std::pair<std::string, bool>> names;

  size_t num_errors() const;
  size_t num_warnings() const;
  bool HasErrors() const { return num_errors() > 0; }

  // The first error as a throwable DuelError (message + span match the
  // diagnostic, so rejected queries read like their runtime counterparts).
  DuelError FirstError() const;
};

// The annotation side table (one NodeInfo per dense Node::id) plus the
// verdict of the walk that filled it.
class Annotations {
 public:
  Annotations() = default;
  explicit Annotations(int num_nodes) : infos_(static_cast<size_t>(num_nodes)) {}

  const NodeInfo* Get(int node_id) const {
    return node_id >= 0 && static_cast<size_t>(node_id) < infos_.size()
               ? &infos_[static_cast<size_t>(node_id)]
               : nullptr;
  }
  NodeInfo& At(int node_id) { return infos_.at(static_cast<size_t>(node_id)); }
  int num_nodes() const { return static_cast<int>(infos_.size()); }

  // Owns the records of every NodeInfo::value (and the walk's fold memo),
  // which live as long as the plan, across many queries.
  Arena& store() { return store_; }

  SemaStats stats;
  CheckResult check;

  // Whether the plan can write target memory (MutatesTarget, ast.h, or a
  // string literal), decided once per plan: the query service's reader/writer
  // choice and the engine's filter scan (eval_sm.cc) read it.
  bool mutates_target = false;

 private:
  std::vector<NodeInfo> infos_;
  Arena store_{256};
};

// Annotation lookup for evaluation-time code. Null when the engine is driven
// without a plan (unit harnesses construct an engine directly): callers must
// fall back to dynamic resolution.
inline const NodeInfo* NodeInfoFor(const EvalContext& ctx, const Node& n) {
  const Annotations* notes = ctx.annotations();
  return notes == nullptr ? nullptr : notes->Get(n.id);
}

}  // namespace duel

#endif  // DUEL_DUEL_SEMA_H_
