#include "src/serve/classify.h"

namespace duel::serve {

namespace {

bool OpMutatesTarget(Op op) {
  switch (op) {
    // Assignments write through an lvalue, which may be target memory.
    case Op::kAssign:
    case Op::kMulEq:
    case Op::kDivEq:
    case Op::kModEq:
    case Op::kAddEq:
    case Op::kSubEq:
    case Op::kShlEq:
    case Op::kShrEq:
    case Op::kAndEq:
    case Op::kXorEq:
    case Op::kOrEq:
    case Op::kPreInc:
    case Op::kPreDec:
    case Op::kPostInc:
    case Op::kPostDec:
      return true;
    // A target call can write anywhere.
    case Op::kCall:
      return true;
    // Declarations allocate target space (and write through it later).
    case Op::kDecl:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool AstMutatesTarget(const Node& n) {
  if (OpMutatesTarget(n.op)) {
    return true;
  }
  for (const NodePtr& k : n.kids) {
    if (k != nullptr && AstMutatesTarget(*k)) {
      return true;
    }
  }
  return false;
}

QueryClass Classify(const CompiledQuery& plan) {
  if (plan.parsed.root != nullptr && AstMutatesTarget(*plan.parsed.root)) {
    return QueryClass::kMutating;
  }
  return QueryClass::kReadOnly;
}

}  // namespace duel::serve
