// The analyze stage of the staged query pipeline (lex → parse → analyze →
// execute). Grown out of the prebind pass (the paper's "for many Duel
// expressions, run-time type checking and symbol lookup could be done at
// compile time using type-inference techniques"): one walk over the parsed
// tree produces an annotation side table that the execute stage consumes
// instead of redoing the work per produced value.
//
// The pass computes, per node:
//   * compile-time name bindings (kName → target variable), under the same
//     conservative soundness rules the prebind pass used — a name binds only
//     when no alias, query-local definition, or enclosing with-scope can
//     rebind it dynamically (gated by EvalOptions::prebind);
//   * constant-folded pure subtrees: a composite of arithmetic/bitwise/
//     comparison operators over literals collapses to one precomputed Value
//     (evaluation then yields it like a literal leaf — exactly one value per
//     eval call, so generator semantics are untouched);
//   * resolved syntactic types for kCast / kSizeofType, so repeated casts do
//     not re-search the debugger's type tables per value.
//
// The AST itself is never mutated: annotations live in a side table indexed
// by the dense Node::id. That is what makes the artifact cacheable — a
// CompiledQuery (plan.h) owns {tokens, AST, Annotations} and replays them
// across queries, while anything dynamic (aliases, with-scopes, memory)
// keeps resolving at execute time.

#ifndef DUEL_DUEL_SEMA_H_
#define DUEL_DUEL_SEMA_H_

#include <string>
#include <vector>

#include "src/duel/ast.h"
#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

struct NodeInfo {
  // kName resolved to a target variable at analysis time.
  bool prebound = false;
  target::TypeRef bound_type;
  uint64_t bound_addr = 0;

  // Root of a maximal constant-folded subtree. The engine treats the node as a
  // leaf: one eval call yields folded_value, the next exhausts it.
  bool folded = false;
  Value folded_value;

  // kCast / kSizeofType with the syntactic type resolved once.
  target::TypeRef resolved_type;
};

struct SemaStats {
  size_t names_total = 0;
  size_t names_bound = 0;
  size_t nodes_folded = 0;    // maximal folded subtree roots
  size_t types_resolved = 0;  // casts / sizeofs resolved at analysis time
};

// The annotation side table: one NodeInfo per dense Node::id.
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

  SemaStats stats;

  // Names bound at analysis time. A later `name := ...` alias would shadow
  // them, so the plan cache re-validates exactly this list when the alias
  // table changes (Session::PlanIsValid).
  std::vector<std::string> bound_names;

 private:
  std::vector<NodeInfo> infos_;
};

// Runs the semantic pass. Name binding consults the backend/aliases through
// `ctx`; folding runs the same ConstValue/Apply* helpers the engine uses, so
// a folded node's value and symbolic text are byte-identical to unfolded
// evaluation. Throws nothing: a subtree that would fault or divide by zero
// is simply left unfolded, preserving lazy error semantics.
Annotations Analyze(EvalContext& ctx, const Node& root, int num_nodes);

// Annotation lookup for evaluation-time code. Null when the engine is driven
// without a plan (unit harnesses construct an engine directly): callers must
// fall back to dynamic resolution.
inline const NodeInfo* NodeInfoFor(const EvalContext& ctx, const Node& n) {
  const Annotations* notes = ctx.annotations();
  return notes == nullptr ? nullptr : notes->Get(n.id);
}

}  // namespace duel

#endif  // DUEL_DUEL_SEMA_H_
