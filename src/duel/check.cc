#include "src/duel/check.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "src/duel/apply.h"
#include "src/duel/eval_util.h"
#include "src/support/strings.h"

namespace duel {

namespace {

using target::TypeKind;
using target::TypeRef;

// The record a with-scope over `t` exposes members of: a record directly,
// or through one pointer (LookupInScope accepts both for '.' and '->').
TypeRef RecordOf(TypeRef t) {
  if (t->IsRecord()) {
    return t;
  }
  if (t->kind() == TypeKind::kPointer && t->target()->IsRecord()) {
    return t->target();
  }
  return nullptr;
}

// Pure subtrees: literals combined by C's arithmetic/bitwise/comparison
// operators. Generators, filters, short-circuit and control ops are excluded
// — they shape the value *sequence*, and folding must never change how many
// values a node produces or when its operands are (not) evaluated.
bool FoldableLeaf(Op op) {
  return op == Op::kIntConst || op == Op::kCharConst || op == Op::kFloatConst;
}

bool FoldableUnary(Op op) {
  return op == Op::kNeg || op == Op::kPos || op == Op::kBitNot || op == Op::kNot;
}

bool FoldableBinary(Op op) { return IsArithOp(op) || IsComparisonOp(op); }

// What the inference walk knows about one subexpression. `type == nullptr`
// means unknown, and unknown silences every rule that consumes it.
struct Inf {
  TypeRef type = nullptr;
  enum class Lv { kNo, kYes, kUnknown } lv = Lv::kUnknown;
  bool bitfield = false;  // a bit-field member
  bool many = false;      // can yield more than one value
};

using Lv = Inf::Lv;

// A with-scope as the checker sees it: `known == false` makes the scope
// opaque (frames, aliases, anything dynamic) — every name below resolves to
// unknown, because the scope could bind it at run time.
struct ScopeInfo {
  TypeRef subject = nullptr;  // null when !known
  bool known = false;
};

class Analyzer {
 public:
  Analyzer(EvalContext& ctx, Annotations& notes) : ctx_(&ctx), notes_(&notes) {}

  void Run(const Node& root) {
    CollectDefined(root);
    Walk(root);
  }

 private:
  // In a conditionally-evaluated subtree (a `?:` arm, an `if` branch, the
  // right side of `&&`/`||`, a loop body, a filter predicate) the runtime may
  // never reach the offending operation, so a "definite" error is only
  // definite if that code runs. Demoting to a warning there keeps the
  // soundness contract: never reject a query the engine would evaluate
  // successfully.
  void Error(const Node& n, const char* rule, std::string message, std::string fixit = "") {
    notes_->check.diags.push_back({conditional_ ? Severity::kWarning : Severity::kError, rule,
                                   n.range, std::move(message), std::move(fixit)});
  }
  void Warn(const Node& n, const char* rule, std::string message, std::string fixit = "") {
    notes_->check.diags.push_back(
        {Severity::kWarning, rule, n.range, std::move(message), std::move(fixit)});
  }

  // The engine's typing rules (apply.h) decide every operator's type; a rule
  // that fails is a definite error with the engine's own text.
  TypeRef Rule(const Node& n, const Typing& t) {
    if (t) {
      return t.type();
    }
    Error(n, t.rule(), t.Message(),
          t.fault() == TypeFault::kDerefVoidPointer
              ? "cast to a concrete pointer type first, e.g. (char *)"
              : "");
    return nullptr;
  }

  // The rvalue view of a known operand: lvalue arrays and functions decay.
  TypeRef Rv(const Inf& a) {
    return a.lv == Lv::kNo ? a.type : RvalueType(ctx_->types(), a.type);
  }

  // Anything the query itself can (re)define — `:=` and `#` aliases,
  // declarations — resolves dynamically: the walk treats it as unknown and
  // never binds it.
  void CollectDefined(const Node& n) {
    if (n.op == Op::kDefine || n.op == Op::kIndexAlias) {
      defined_.insert(n.text);
    }
    if (n.op == Op::kDecl) {
      for (const DeclItem& d : n.decls) {
        defined_.insert(d.name);
      }
    }
    for (const NodePtr& k : n.kids) {
      CollectDefined(*k);
    }
  }

  void NoteName(const std::string& name, bool was_alias) {
    if (noted_.insert(name).second) {
      notes_->check.names.emplace_back(name, was_alias);
    }
  }

  // Name resolution, statically mirroring EvalContext::LookupName: scopes
  // innermost first, then aliases, target variables, functions, enumerators.
  // An opaque scope ends the search with "unknown" — it could bind anything.
  Inf InferName(const Node& n) {
    for (size_t i = scopes_.size(); i-- > 0;) {
      const ScopeInfo& s = scopes_[i];
      if (!s.known) {
        return {};
      }
      if (TypeRef rec = RecordOf(s.subject)) {
        if (const target::Member* m = rec->FindMember(n.text)) {
          NodeInfo& info = notes_->At(n.id);
          info.member_record = rec;
          info.member = m;
          info.member_depth = static_cast<uint32_t>(scopes_.size() - 1 - i);
          member_bound_.push_back(n.id);
          Inf r;
          r.type = m->type;
          r.lv = Lv::kYes;
          r.bitfield = m->is_bitfield;
          return r;
        }
      }
      // A known non-record subject exposes no members; resolution continues
      // outward exactly as LookupInScope's nullopt does.
    }
    if (defined_.count(n.text) != 0) {
      return {};  // bound by the query itself, per value
    }
    bool was_alias = ctx_->aliases().Has(n.text);
    NoteName(n.text, was_alias);
    if (was_alias) {
      const Value* a = ctx_->aliases().Find(n.text);
      Inf r;
      r.type = a->type();
      r.lv = a->is_lvalue() ? Lv::kYes : Lv::kNo;
      r.bitfield = a->is_bitfield();
      return r;
    }
    if (auto v = ctx_->backend().GetTargetVariable(n.text)) {
      if (scopes_.empty()) {
        // Nothing can rebind the name at run time: bind it now, once.
        NodeInfo& info = notes_->At(n.id);
        info.prebound = true;
        info.bound_type = v->type;
        info.bound_addr = v->addr;
        notes_->stats.names_bound++;
      }
      Inf r;
      r.type = v->type;
      r.lv = Lv::kYes;
      return r;
    }
    if (auto f = ctx_->backend().GetTargetFunction(n.text)) {
      Inf r;
      r.type = f->type;
      r.lv = Lv::kYes;
      return r;
    }
    if (auto e = ctx_->backend().GetTargetEnumerator(n.text)) {
      Inf r;
      r.type = e->type;
      r.lv = Lv::kNo;
      return r;
    }
    Error(n, "unknown-name", "unknown name '" + n.text + "'");
    return {};
  }

  // Resolves a kCast / kSizeofType spec into the table, where the engine
  // reads it (ResolvedTypeOf). An unknown type stays unresolved, so the
  // engine raises the error itself — if the node runs at all.
  TypeRef ResolveSpec(const Node& n) {
    try {
      TypeRef t = ctx_->ResolveTypeSpec(n.type_spec, n.range);
      notes_->At(n.id).resolved_type = t;
      return t;
    } catch (const DuelError& e) {
      Error(n, "unknown-type", e.what());
      return nullptr;
    }
  }

  void WarnAssignInCondition(const Node& cond) {
    if (cond.op == Op::kAssign) {
      Warn(cond, "assign-in-condition",
           "'=' in a condition assigns and tests the stored value",
           "did you mean '=='?");
    }
  }

  // The integer a constant operand stands for: a literal's own value, or the
  // memoized Fold of a subtree the walk folded (`5+5`, `1-1`, `-1`). Only
  // integer-typed constants count. Call after the walk reached `n`.
  std::optional<int64_t> ConstInt(const Node& n) {
    if (n.op == Op::kIntConst || n.op == Op::kCharConst) {
      return static_cast<int64_t>(n.int_value);
    }
    auto it = memo_.find(n.id);
    if (it == memo_.end() || !it->second.has_value() || !it->second->type()->IsInteger()) {
      return std::nullopt;
    }
    return ctx_->ToI64(*it->second);
  }

  // Bound checks for e1[e2] when e1's declared type is an array: constant
  // indices, `[..n]` prefix ranges and `[lo..hi]` ranges past the end.
  void CheckArrayBounds(const Node& n, TypeRef array) {
    const size_t count = array->array_count();
    if (count == 0) {
      return;
    }
    const Node& idx = *n.kids[1];
    auto past_end = [&](int64_t i) { return i < 0 || static_cast<uint64_t>(i) >= count; };
    if (std::optional<int64_t> i = ConstInt(idx)) {
      if (past_end(*i)) {
        Warn(idx, "array-bound",
             StrPrintf("index %lld is past the end of %s (%zu elements)",
                       static_cast<long long>(*i), array->ToString().c_str(), count),
             StrPrintf("valid indices are 0..%zu", count - 1));
      }
      return;
    }
    if (idx.op == Op::kToPrefix) {
      if (std::optional<int64_t> hi = ConstInt(*idx.kids[0]);
          hi.has_value() && *hi > static_cast<int64_t>(count)) {
        Warn(idx, "array-bound",
             StrPrintf("[..%lld] reads %lld elements but %s has %zu",
                       static_cast<long long>(*hi), static_cast<long long>(*hi),
                       array->ToString().c_str(), count),
             StrPrintf("use [..%zu] to cover the whole array", count));
      }
      return;
    }
    if (idx.op == Op::kTo && idx.kids.size() == 2) {
      if (std::optional<int64_t> hi = ConstInt(*idx.kids[1]);
          hi.has_value() && past_end(*hi)) {
        Warn(idx, "array-bound",
             StrPrintf("range ends at %lld, past the end of %s (%zu elements)",
                       static_cast<long long>(*hi), array->ToString().c_str(), count),
             StrPrintf("valid indices are 0..%zu", count - 1));
      }
    }
  }

  // The right operand of a product-style operator restarts for every value
  // of the left; a side effect in it runs once per left value.
  void WarnSideEffectReEval(const Node& n, const Inf& left) {
    if (left.many && MutatesTarget(*n.kids[1])) {
      Warn(*n.kids[1], "side-effect-reeval",
           StrPrintf("the right operand of '%s' is re-evaluated for every value of the "
                     "left operand and has side effects",
                     Info(n.op).spelling),
           "hoist the side effect into an alias (name := expr) before the operator");
    }
  }

  // Integer `/`, `%`, `/=` or `%=` by a constant zero faults whenever it
  // runs. Reports it and returns true. The operands are well-typed.
  bool DividesByZero(const Node& n, TypeRef ta, TypeRef tb) {
    bool div = n.op == Op::kDiv || n.op == Op::kDivEq;
    bool mod = n.op == Op::kMod || n.op == Op::kModEq;
    std::optional<int64_t> z = ConstInt(*n.kids[1]);
    if ((!div && !mod) || !z.has_value() || *z != 0 || ta->IsFloating() || tb->IsFloating()) {
      return false;
    }
    Error(n, "div-by-zero", std::string(div ? "division" : "modulo") + " by zero");
    return true;
  }

  // Types `a op b` for an arithmetic, bitwise, shift or comparison operator,
  // plus the lints that ride on the verdict: a literal zero divisor, and
  // pointers to different types compared (legal, so a warning, as in GCC).
  // Returns the result type (null = unknown or ill-typed).
  TypeRef CheckBinary(const Node& n, Op op, const Inf& a, const Inf& b) {
    if (a.type == nullptr || b.type == nullptr) {
      return nullptr;
    }
    TypeRef ta = Rv(a);
    TypeRef tb = Rv(b);
    TypeRef r = Rule(n, BinaryType(ctx_->types(), op, ta, tb));
    if (r == nullptr || DividesByZero(n, ta, tb)) {
      return nullptr;
    }
    if (IsComparisonOp(op) && ta->kind() == TypeKind::kPointer &&
        tb->kind() == TypeKind::kPointer && ta->target()->kind() != TypeKind::kVoid &&
        tb->target()->kind() != TypeKind::kVoid && !target::TypeEquals(ta, tb)) {
      Warn(n, "ptr-compare-incompatible",
           StrPrintf("incompatible pointer comparison (%s and %s)", ta->ToString().c_str(),
                     tb->ToString().c_str()),
           "cast one operand so both sides point at the same type");
    }
    return r;
  }

  // Walks a condition: the engine tests each of its values with Truthy.
  Inf WalkCondition(const Node& cond) {
    Inf c = Walk(cond);
    if (c.type != nullptr) {
      Rule(cond, ConditionType(ctx_->types(), Rv(c)));
    }
    return c;
  }

  // Walks a subtree the runtime only reaches conditionally; definite errors
  // found inside demote to warnings (see Error above).
  Inf WalkConditional(const Node& n, bool condition = false) {
    bool saved = conditional_;
    conditional_ = true;
    Inf r = condition ? WalkCondition(n) : Walk(n);
    conditional_ = saved;
    return r;
  }

  // Every node enters here. The root of a maximal constant subtree folds to
  // one value and is inferred from it; its kids are dead code now and stay
  // unannotated.
  Inf Walk(const Node& n) {
    if (FoldableUnary(n.op) || FoldableBinary(n.op)) {
      if (std::optional<Value> v = Fold(n)) {
        NodeInfo& info = notes_->At(n.id);
        info.constant = true;
        info.value = *v;
        notes_->stats.nodes_folded++;
        Inf r;
        r.type = v->type();
        r.lv = Lv::kNo;
        return r;
      }
    }
    return Infer(n);
  }

  // Evaluates a pure subtree to its one constant value, memoized per node so
  // a discarded attempt higher up never double-counts the work. The memo
  // keeps its values in the plan's store, where a folded root's value must
  // live anyway.
  std::optional<Value> Fold(const Node& n) {
    auto it = memo_.find(n.id);
    if (it != memo_.end()) {
      return it->second;
    }
    std::optional<Value> r = FoldUncached(n);
    if (r.has_value()) {
      r = r->Rehome(notes_->store());
    }
    memo_.emplace(n.id, r);
    return r;
  }

  // A literal leaf's value, built once into the plan. Not counted as a
  // symbolic build: no evaluation makes it.
  TypeRef Materialize(const Node& n) {
    NodeInfo& info = notes_->At(n.id);
    info.constant = true;
    info.value = LiteralValue(ctx_->types(), notes_->store(), n, ctx_->sym_on());
    return info.value.type();
  }

  std::optional<Value> FoldUncached(const Node& n) {
    try {
      if (FoldableLeaf(n.op)) {
        return ConstValue(*ctx_, n);
      }
      if (FoldableUnary(n.op) && n.kids.size() == 1) {
        if (std::optional<Value> u = Fold(*n.kids[0])) {
          return ApplyUnary(*ctx_, n.op, *u, n.range);
        }
      } else if (FoldableBinary(n.op) && n.kids.size() == 2) {
        std::optional<Value> u = Fold(*n.kids[0]);
        if (!u.has_value()) {
          return std::nullopt;
        }
        if (std::optional<Value> v = Fold(*n.kids[1])) {
          return ApplyBinary(*ctx_, n.op, *u, *v, n.range);
        }
      }
    } catch (const DuelError&) {
      // 1/0 and friends: leave unfolded. The error surfaces at execute time
      // with the paper's lazy semantics (not at all under a false branch).
    }
    return std::nullopt;
  }

  Inf Infer(const Node& n) {
    switch (n.op) {
      // --- leaves ----------------------------------------------------------
      case Op::kIntConst:
      case Op::kCharConst:
      case Op::kFloatConst: {
        Inf r;
        r.type = Materialize(n);
        r.lv = Lv::kNo;
        return r;
      }
      case Op::kStringConst: {
        notes_->mutates_target = true;  // its first run interns it (InternString)
        Inf r;
        r.type = LiteralType(ctx_->types(), n);
        r.lv = Lv::kNo;
        return r;
      }
      case Op::kName:
        return InferName(n);
      case Op::kUnderscore: {
        if (scopes_.empty()) {
          Error(n, "underscore-outside-with",
                "'_' used outside of a with scope ('.', '->', '-->')");
          return {};
        }
        const ScopeInfo& s = scopes_.back();
        Inf r;
        r.type = s.known ? s.subject : nullptr;
        return r;
      }

      // --- generators ------------------------------------------------------
      case Op::kTo:
      case Op::kToOpen:
      case Op::kToPrefix: {
        for (const NodePtr& k : n.kids) {
          if (Inf bound = Walk(*k); bound.type != nullptr) {
            Rule(*k, IntegerType(Rv(bound)));
          }
        }
        Inf r;
        r.type = ctx_->types().Int();
        r.lv = Lv::kNo;
        r.many = true;
        return r;
      }
      case Op::kAlternate: {
        Inf a = Walk(*n.kids[0]);
        Inf b = Walk(*n.kids[1]);
        return Either(a, b);
      }
      case Op::kSequence:
        Walk(*n.kids[0]);  // drained for its side effects
        return Walk(*n.kids[1]);
      case Op::kImply: {
        Inf a = Walk(*n.kids[0]);
        Inf r = Walk(*n.kids[1]);
        r.many = a.many || r.many;
        return r;
      }
      case Op::kIfGt:
      case Op::kIfLt:
      case Op::kIfGe:
      case Op::kIfLe:
      case Op::kIfEq:
      case Op::kIfNe: {
        Inf a = Walk(*n.kids[0]);
        Inf b = WalkConditional(*n.kids[1]);  // runs only while the left yields
        CheckBinary(n, Info(n.op).base, a, b);
        WarnSideEffectReEval(n, a);
        Inf r = a;  // the filter passes its left operand through
        r.many = a.many || b.many;
        return r;
      }
      case Op::kSeqEq: {
        Inf a = Walk(*n.kids[0]);
        Inf b = Walk(*n.kids[1]);
        CheckBinary(n, Op::kEq, a, b);
        Inf r;
        r.type = ctx_->types().Int();
        r.lv = Lv::kNo;
        return r;
      }
      case Op::kDiscard:
        Walk(*n.kids[0]);
        return {};
      case Op::kDefine: {
        if (ctx_->backend().GetTargetVariable(n.text).has_value() ||
            ctx_->backend().GetTargetFunction(n.text).has_value()) {
          Warn(n, "alias-shadows-target",
               "alias '" + n.text + "' shadows the target symbol of the same name",
               "pick a different alias name; the target '" + n.text +
                   "' becomes unreachable while the alias exists");
        }
        return Walk(*n.kids[0]);
      }
      case Op::kIndexAlias:
        return Walk(*n.kids[0]);

      // --- scope operators -------------------------------------------------
      case Op::kWith:
      case Op::kArrowWith: {
        Inf a = Walk(*n.kids[0]);
        scopes_.push_back({a.type, a.type != nullptr});
        Inf r = Walk(*n.kids[1]);
        scopes_.pop_back();
        r.many = a.many || r.many;
        return r;
      }
      case Op::kDfs:
      case Op::kBfs: {
        Inf a = Walk(*n.kids[0]);
        if (!ctx_->opts().cycle_detect) {
          Warn(n, "unbounded-walk",
               StrPrintf("'%s' expansion with cycle detection off may not terminate on "
                         "cyclic structures",
                         Info(n.op).spelling),
               "turn cycle detection on, or bound the walk with '@' / '[[..n]]'");
        }
        const size_t bound_before = member_bound_.size();
        scopes_.push_back({a.type, a.type != nullptr});
        Inf r = Walk(*n.kids[1]);
        scopes_.pop_back();
        // The scope holds the root and then every child the body yields. The
        // body was typed against the root's record: that holds for the
        // children only when they open the same record.
        TypeRef rec = a.type != nullptr ? RecordOf(a.type) : nullptr;
        const bool same_record =
            rec != nullptr && r.type != nullptr && RecordOf(r.type) == rec;
        if (!same_record) {
          for (size_t i = bound_before; i < member_bound_.size(); ++i) {
            notes_->At(member_bound_[i]).member_record = nullptr;
          }
          member_bound_.resize(bound_before);
          if (a.type == nullptr || r.type == nullptr || !target::TypeEquals(a.type, r.type)) {
            r.type = nullptr;  // the root and the children differ
          }
        } else if (a.type->kind() == TypeKind::kPointer) {
          notes_->At(n.id).walk = CompileWalk(*n.kids[1], rec);
        }
        r.many = true;
        return r;
      }
      case Op::kUntil: {
        Inf a = Walk(*n.kids[0]);
        if (UntilMatchMode(*n.kids[1])) {
          // A literal, possibly negated: compared against each value, no
          // scope opens.
          const Node* lit = n.kids[1].get();
          while (lit->op == Op::kNeg) {
            lit = lit->kids[0].get();
          }
          Materialize(*lit);
          return a;
        }
        WarnAssignInCondition(*n.kids[1]);
        scopes_.push_back({a.type, a.type != nullptr});
        WalkConditional(*n.kids[1], true);  // runs only while the left yields
        scopes_.pop_back();
        return a;
      }
      case Op::kSelect: {
        Inf r = Walk(*n.kids[0]);
        Walk(*n.kids[1]);
        r.many = true;
        return r;
      }

      // --- reductions ------------------------------------------------------
      case Op::kCount:
      case Op::kAll:
      case Op::kAny: {
        if (n.op == Op::kCount) {
          Walk(*n.kids[0]);
        } else {
          WalkCondition(*n.kids[0]);
        }
        Inf r;
        r.type = ctx_->types().Int();
        r.lv = Lv::kNo;
        return r;
      }
      case Op::kSum: {
        Walk(*n.kids[0]);
        Inf r;
        r.lv = Lv::kNo;
        return r;
      }

      // --- control ---------------------------------------------------------
      case Op::kIf:
      case Op::kCond: {
        WarnAssignInCondition(*n.kids[0]);
        Inf c = WalkCondition(*n.kids[0]);
        Inf t = WalkConditional(*n.kids[1]);
        Inf e = n.kids.size() > 2 ? WalkConditional(*n.kids[2]) : Inf{};
        Inf r;
        if (n.kids.size() > 2 && t.type != nullptr && e.type != nullptr &&
            target::TypeEquals(t.type, e.type)) {
          r.type = t.type;
        }
        r.many = c.many || t.many || e.many;
        return r;
      }
      case Op::kWhile: {
        WarnAssignInCondition(*n.kids[0]);
        WalkCondition(*n.kids[0]);
        Inf r = WalkConditional(*n.kids[1]);
        r.many = true;
        return r;
      }
      case Op::kFor: {
        Walk(*n.kids[0]);
        WarnAssignInCondition(*n.kids[1]);
        WalkCondition(*n.kids[1]);
        WalkConditional(*n.kids[2]);
        Inf r = WalkConditional(*n.kids[3]);
        r.many = true;
        return r;
      }
      case Op::kAndAnd:
      case Op::kOrOr: {
        Inf a = WalkCondition(*n.kids[0]);
        Inf b = WalkConditional(*n.kids[1]);  // short-circuit may skip the right side
        // `&&` yields the right operand's values; `||` yields a true left
        // value or the right operand's values.
        Inf r = n.op == Op::kAndAnd ? b : Either(a, b);
        r.many = a.many || b.many;
        return r;
      }

      // --- calls, casts, declarations -------------------------------------
      case Op::kCall: {
        const Node& callee = *n.kids[0];
        Inf r;
        r.lv = Lv::kNo;
        for (size_t i = 1; i < n.kids.size(); ++i) {
          Inf a = Walk(*n.kids[i]);
          r.many |= a.many;
        }
        if (callee.op != Op::kName) {
          Error(n, "call-non-function", "only direct calls of named functions are supported");
          return r;
        }
        NoteName(callee.text, ctx_->aliases().Has(callee.text));
        auto fn = ctx_->backend().GetTargetFunction(callee.text);
        if (!fn.has_value()) {
          // The engine treats a zero-argument `frames()` with no target
          // function of that name as the stack-frame generator builtin.
          if (callee.text == "frames" && n.kids.size() == 1) {
            r.many = true;
            return r;
          }
          Error(callee, "unknown-function", "unknown function '" + callee.text + "'");
          return r;
        }
        if (fn->type != nullptr && fn->type->kind() == TypeKind::kFunction) {
          size_t argc = n.kids.size() - 1;
          size_t want = fn->type->params().size();
          if (!fn->type->variadic() && argc != want) {
            Error(n, "call-arity",
                  StrPrintf("wrong number of arguments to '%s' (expected %zu, got %zu)",
                            callee.text.c_str(), want, argc),
                  "signature: " + fn->type->Declare(callee.text));
          } else if (fn->type->variadic() && argc < want) {
            Error(n, "call-arity",
                  StrPrintf("too few arguments to '%s' (expected at least %zu, got %zu)",
                            callee.text.c_str(), want, argc),
                  "signature: " + fn->type->Declare(callee.text));
          }
          r.type = fn->type->return_type();
        }
        return r;
      }
      case Op::kCast: {
        Inf a = Walk(*n.kids[0]);
        Inf r;
        r.type = ResolveSpec(n);
        r.lv = Lv::kNo;
        r.many = a.many;
        return r;
      }
      case Op::kSizeofType:
      case Op::kSizeofExpr: {
        if (n.op == Op::kSizeofType) {
          ResolveSpec(n);
        } else {
          Walk(*n.kids[0]);
        }
        Inf r;
        r.type = ctx_->types().ULong();
        r.lv = Lv::kNo;
        return r;
      }
      case Op::kDecl: {
        for (const DeclItem& item : n.decls) {
          if (ctx_->backend().GetTargetVariable(item.name).has_value() ||
              ctx_->backend().GetTargetFunction(item.name).has_value()) {
            Warn(n, "alias-shadows-target",
                 "alias '" + item.name + "' shadows the target symbol of the same name",
                 "pick a different name; the target '" + item.name +
                     "' becomes unreachable while the alias exists");
          }
          try {
            TypeRef t = ctx_->ResolveTypeSpec(item.type, n.range);
            if (t->size() == 0 || !t->complete()) {
              Error(n, "incomplete-type", "cannot declare a variable of incomplete type");
            }
          } catch (const DuelError& e) {
            Error(n, "unknown-type", e.what());
          }
        }
        return {};
      }

      // --- C unary operators ----------------------------------------------
      case Op::kBrace:
        return Walk(*n.kids[0]);
      case Op::kDeref:
      case Op::kAddrOf:
      case Op::kNeg:
      case Op::kPos:
      case Op::kBitNot:
      case Op::kNot:
      case Op::kPreInc:
      case Op::kPreDec:
      case Op::kPostInc:
      case Op::kPostDec: {
        Inf a = Walk(*n.kids[0]);
        Inf r;
        r.lv = n.op == Op::kDeref ? Lv::kYes : Lv::kNo;
        r.many = a.many;
        if (a.type == nullptr) {
          return r;
        }
        bool lvalue = a.lv != Lv::kNo;  // unknown lvalue-ness passes
        switch (n.op) {
          case Op::kAddrOf:
            r.type = Rule(n, AddressType(ctx_->types(), a.type, lvalue, a.bitfield));
            break;
          case Op::kPreInc:
          case Op::kPreDec:
          case Op::kPostInc:
          case Op::kPostDec:
            r.type = Rule(n, IncDecType(ctx_->types(), a.type, lvalue));
            break;
          default:
            r.type = Rule(n, UnaryType(ctx_->types(), n.op, Rv(a)));
            break;
        }
        return r;
      }
      case Op::kIndex: {
        Inf a = Walk(*n.kids[0]);
        Inf b = Walk(*n.kids[1]);
        Inf r;
        r.lv = Lv::kYes;
        r.many = a.many || b.many;
        if (a.type != nullptr && a.type->kind() == TypeKind::kArray) {
          CheckArrayBounds(n, a.type);
        }
        if (a.type == nullptr) {
          return r;
        }
        // An unknown index still subscripts a known pointer: if the query
        // runs at all, the index read as an integer.
        TypeRef base = Rv(a);
        if (b.type == nullptr && base->kind() != TypeKind::kPointer) {
          return r;
        }
        r.type = Rule(n, IndexType(base, b.type != nullptr ? Rv(b) : ctx_->types().Int()));
        return r;
      }

      // --- assignments -----------------------------------------------------
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
      case Op::kOrEq: {
        Inf a = Walk(*n.kids[0]);
        Inf b = Walk(*n.kids[1]);
        Inf r;
        r.lv = Lv::kNo;
        r.many = a.many || b.many;
        if (a.type == nullptr || b.type == nullptr) {
          return r;
        }
        r.type = Rule(n, AssignType(ctx_->types(), n.op, a.type, a.lv != Lv::kNo, Rv(b)));
        if (r.type != nullptr && DividesByZero(n, Rv(a), Rv(b))) {
          r.type = nullptr;
        }
        return r;
      }

      default:
        break;
    }

    if (IsComparisonOp(n.op)) {
      Inf a = Walk(*n.kids[0]);
      Inf b = Walk(*n.kids[1]);
      Inf r;
      r.type = CheckBinary(n, n.op, a, b);
      WarnSideEffectReEval(n, a);
      r.lv = Lv::kNo;
      r.many = a.many || b.many;
      return r;
    }
    if (IsArithOp(n.op)) {
      Inf a = Walk(*n.kids[0]);
      Inf b = Walk(*n.kids[1]);
      WarnSideEffectReEval(n, a);
      Inf r;
      r.type = CheckBinary(n, n.op, a, b);
      r.lv = Lv::kNo;
      r.many = a.many || b.many;
      return r;
    }

    // Unhandled shape: walk the kids for their diagnostics, claim nothing.
    Inf r;
    for (const NodePtr& k : n.kids) {
      r.many |= Walk(*k).many;
    }
    return r;
  }

  // The compiled form of a walk body over `rec` (sema.h WalkPlan), or null
  // when the body is not member-bound child pointers.
  const WalkPlan* CompileWalk(const Node& body, TypeRef rec) {
    std::vector<WalkPlan::Child> children;
    if (rec->size() == 0 || !ChildList(body, rec, children)) {
      return nullptr;
    }
    Arena& store = notes_->store();
    auto* plan = store.New<WalkPlan>();
    plan->record = rec;
    auto* copy = static_cast<WalkPlan::Child*>(
        store.Allocate(children.size() * sizeof(WalkPlan::Child), alignof(WalkPlan::Child)));
    std::copy(children.begin(), children.end(), copy);
    plan->children = {copy, children.size()};
    return plan;
  }

  // Whether `b` is member-bound pointers back to `rec`, in the walk's own
  // scope, joined by `,`; appends them to `children` left to right.
  bool ChildList(const Node& b, TypeRef rec, std::vector<WalkPlan::Child>& children) {
    if (b.op == Op::kAlternate) {
      return ChildList(*b.kids[0], rec, children) && ChildList(*b.kids[1], rec, children);
    }
    if (b.op != Op::kName) {
      return false;
    }
    const NodeInfo& info = notes_->At(b.id);
    const target::Member* m = info.member;
    if (info.member_record != rec || info.member_depth != 0 || m->is_bitfield ||
        m->type->kind() != TypeKind::kPointer || m->type->target() != rec) {
      return false;
    }
    children.push_back({m->offset, m->type, b.text});
    return true;
  }

  // A node that yields either operand's values (`,` and `||`): the type and
  // value category both share, if they agree.
  static Inf Either(const Inf& a, const Inf& b) {
    Inf r;
    if (a.type != nullptr && b.type != nullptr && target::TypeEquals(a.type, b.type)) {
      r.type = a.type;
    }
    r.lv = a.lv == b.lv ? a.lv : Lv::kUnknown;
    r.many = true;
    return r;
  }

  EvalContext* ctx_;
  Annotations* notes_;
  std::set<std::string> defined_;
  std::set<std::string> noted_;
  std::map<int, std::optional<Value>> memo_;
  std::vector<ScopeInfo> scopes_;
  std::vector<int> member_bound_;  // ids of the member-bound names, in walk order
  bool conditional_ = false;  // inside a conditionally-evaluated subtree
};

}  // namespace

size_t CheckResult::num_errors() const {
  size_t n = 0;
  for (const Diag& d : diags) {
    n += d.severity == Severity::kError ? 1 : 0;
  }
  return n;
}

size_t CheckResult::num_warnings() const { return diags.size() - num_errors(); }

DuelError CheckResult::FirstError() const {
  for (const Diag& d : diags) {
    if (d.severity == Severity::kError) {
      ErrorKind kind = ErrorKind::kType;
      if (d.rule == "unknown-name" || d.rule == "unknown-function" ||
          d.rule == "underscore-outside-with") {
        kind = ErrorKind::kName;
      }
      return DuelError(kind, d.message, d.span);
    }
  }
  return DuelError(ErrorKind::kInternal, "FirstError with no errors");
}

Annotations Analyze(EvalContext& ctx, const Node& root, int num_nodes) {
  Annotations notes(num_nodes);
  notes.mutates_target = MutatesTarget(root);
  Analyzer analyzer(ctx, notes);
  try {
    analyzer.Run(root);
  } catch (const DuelError&) {
    // The walk is advisory scaffolding around evaluation: an unexpected
    // throw must never take down a query that would have run. Diagnostics
    // and annotations collected so far are kept; unannotated nodes resolve
    // at execute time. Unseen string literals may write the target.
    notes.mutates_target = true;
  }
  return notes;
}

CheckResult CheckQuery(EvalContext& /*ctx*/, const Node& /*root*/, const Annotations* notes) {
  return notes->check;
}

}  // namespace duel
