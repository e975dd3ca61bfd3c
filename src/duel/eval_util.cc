#include "src/duel/eval_util.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "src/support/strings.h"
#include "src/target/datum.h"

namespace duel {

using target::TypeKind;

namespace {

// The symbolic text of a literal leaf, formatted into the handle.
Sym LiteralSym(Arena& arena, const Node& n) {
  switch (n.op) {
    case Op::kIntConst:
      return n.is_unsigned ? Sym::DecimalUnsigned(n.int_value)
                           : Sym::Decimal(static_cast<int64_t>(n.int_value));
    case Op::kCharConst:
      return Sym::Plain(arena, "'" + EscapeChar(static_cast<char>(n.int_value)) + "'");
    default:
      return Sym::Plain(arena, FormatDouble(n.float_value));
  }
}

}  // namespace

Value LiteralValue(target::TypeTable& types, Arena& arena, const Node& n, bool with_sym) {
  TypeRef t = LiteralType(types, n);
  Sym sym = with_sym ? LiteralSym(arena, n) : Sym::None();
  switch (n.op) {
    case Op::kIntConst:
    case Op::kCharConst:
      return Value::Int(t, static_cast<int64_t>(n.int_value), sym);
    case Op::kFloatConst:
      return Value::Double(t, n.float_value, sym);
    default:
      throw DuelError(ErrorKind::kInternal, "LiteralValue on non-constant node");
  }
}

Value ConstValue(EvalContext& ctx, const Node& n) {
  if (ctx.sym_on()) {
    ctx.counters().symbolic_builds++;
  }
  return LiteralValue(ctx.types(), ctx.arena(), n, ctx.sym_on());
}

Value LiteralOf(EvalContext& ctx, const Node& n) {
  if (const NodeInfo* info = NodeInfoFor(ctx, n); info != nullptr && info->constant) {
    return info->value;
  }
  return ConstValue(ctx, n);
}

Value StringValue(EvalContext& ctx, const Node& n) {
  Addr addr = ctx.InternString(n.text);
  Sym sym = ctx.MakeSym("\"" + EscapeString(n.text) + "\"");
  return Value::Pointer(LiteralType(ctx.types(), n), addr, sym);
}

Value NameValue(EvalContext& ctx, const Node& n) {
  if (const NodeInfo* info = NodeInfoFor(ctx, n); info != nullptr) {
    if (info->prebound) {
      ctx.counters().name_lookups++;  // counted, but resolved without a search
      return Value::LV(info->bound_type, info->bound_addr, ctx.MakeSym(n.text));
    }
    if (info->member_record != nullptr) {
      return ctx.MemberOf(ctx.scopes().At(info->member_depth).subject, info->member_record,
                          *info->member, n.text);
    }
  }
  if (auto v = ctx.LookupName(n.text)) {
    return *v;
  }
  throw DuelError(ErrorKind::kName, "unknown name '" + n.text + "'", n.range);
}

Value MakeIntValue(EvalContext& ctx, int64_t v) {
  TypeRef t = (v > std::numeric_limits<int32_t>::max() ||
               v < std::numeric_limits<int32_t>::min())
                  ? ctx.types().Long()
                  : ctx.types().Int();
  Sym sym;
  if (ctx.sym_on()) {
    ctx.counters().symbolic_builds++;
    sym = Sym::Decimal(v);
  }
  return Value::Int(t, v, sym);
}

void ExecDecl(EvalContext& ctx, const Node& n) {
  for (const DeclItem& item : n.decls) {
    TypeRef type = ctx.ResolveTypeSpec(item.type, n.range);
    if (type->size() == 0 || !type->complete()) {
      throw DuelError(ErrorKind::kType, "cannot declare a variable of incomplete type",
                      n.range);
    }
    Addr addr = ctx.access().Alloc(type->size(), type->align());
    std::vector<uint8_t> zeros(type->size(), 0);
    ctx.access().PutBytes(addr, zeros.data(), zeros.size());
    ctx.aliases().Set(item.name, Value::LV(type, addr, ctx.MakeSym(item.name)));
  }
}

Value SizeofTypeValue(EvalContext& ctx, const Node& n) {
  TypeRef type = ResolvedTypeOf(ctx, n);
  return Value::Int(ctx.types().ULong(), static_cast<int64_t>(type->size()),
                    ctx.MakeSym("sizeof(" + n.type_spec.ToString() + ")"));
}

TypeRef ResolvedTypeOf(EvalContext& ctx, const Node& n) {
  if (const NodeInfo* info = NodeInfoFor(ctx, n); info != nullptr && info->resolved_type) {
    return info->resolved_type;
  }
  return ctx.ResolveTypeSpec(n.type_spec, n.range);
}

Value ApplyUnaryClass(EvalContext& ctx, const Node& n, const Value& u) {
  switch (n.op) {
    case Op::kPreInc:
    case Op::kPreDec:
    case Op::kPostInc:
    case Op::kPostDec:
      return ApplyIncDec(ctx, n.op, u, n.range);
    case Op::kCast:
      return ApplyCast(ctx, ResolvedTypeOf(ctx, n), u, n.range);
    default:
      return ApplyUnary(ctx, n.op, u, n.range);
  }
}

Value ApplyBinaryClass(EvalContext& ctx, const Node& n, const Value& u, const Value& v) {
  if (IsAssignOp(n.op)) {
    return ApplyAssign(ctx, n.op, u, v, n.range);
  }
  if (n.op == Op::kIndex) {
    return ApplyIndex(ctx, u, v, n.range);
  }
  return ApplyBinary(ctx, n.op, u, v, n.range);
}

namespace {

bool IsSimpleIdentifier(std::string_view s) {
  if (s.empty() || (!isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')) {
    return false;
  }
  for (char c : s) {
    if (!isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

Value ComposeWithResult(EvalContext& ctx, const Value& subject, bool arrow, const Value& inner) {
  Value out = inner;
  if (ctx.sym_on()) {
    out.set_sym(ComposeWithSym(ctx, subject.sym(), arrow, inner.sym()));
  }
  return out;
}

Sym ComposeWithSym(EvalContext& ctx, const Sym& subject, bool arrow, const Sym& inner) {
  ctx.counters().symbolic_builds++;
  // `_` passthrough: the inner value is the subject itself, as the `_` node
  // marked it; a text that only equals the subject's is composed.
  if (inner.is_subject()) {
    return subject;
  }
  thread_local std::string inner_scratch;
  std::string_view inner_text = inner.View(inner_scratch);
  if (IsSimpleIdentifier(inner_text)) {
    return subject.WithMember(ctx.arena(), inner_text, arrow);
  }
  return ComposeWith(ctx.arena(), subject, arrow, inner_text);
}

Value CallTarget(EvalContext& ctx, const std::string& name, const std::vector<Value>& args,
                 SourceRange range) {
  if (!ctx.backend().GetTargetFunction(name).has_value()) {
    throw DuelError(ErrorKind::kName, "unknown function '" + name + "'", range);
  }
  std::vector<target::RawDatum> data;
  std::vector<std::string> arg_syms;
  data.reserve(args.size());
  for (const Value& a : args) {
    Value r = ctx.Rvalue(a);
    target::RawDatum d;
    d.type = r.type();
    std::span<const uint8_t> bytes = r.bytes();
    d.bytes.assign(bytes.begin(), bytes.end());
    data.push_back(std::move(d));
    if (ctx.sym_on()) {
      arg_syms.push_back(a.sym().Text());
    }
  }
  target::RawDatum ret = ctx.access().CallFunc(name, data);
  Sym sym = ctx.sym_on() ? ctx.MakeSym(name + "(" + Join(arg_syms, ", ") + ")", kPrecPostfix)
                         : Sym::None();
  if (ret.type == nullptr || ret.type->kind() == TypeKind::kVoid) {
    return Value::RV(ctx.types().Void(), nullptr, 0, sym);
  }
  return Value::RV(ret.type, ctx.arena().Copy(ret.bytes.data(), ret.bytes.size()),
                   ret.bytes.size(), sym);
}

bool UntilMatchMode(const Node& pred) {
  switch (pred.op) {
    case Op::kIntConst:
    case Op::kCharConst:
    case Op::kFloatConst:
      return true;
    case Op::kNeg:
      return UntilMatchMode(*pred.kids[0]);
    default:
      return false;
  }
}

bool UntilEquals(EvalContext& ctx, const Value& u, const Node& pred) {
  const Node* p = &pred;
  bool neg = false;
  while (p->op == Op::kNeg) {
    neg = !neg;
    p = p->kids[0].get();
  }
  Value lit = LiteralOf(ctx, *p);
  if (neg) {
    lit = ApplyUnary(ctx, Op::kNeg, lit, pred.range);
  }
  return ApplyComparison(ctx, Op::kEq, u, lit, pred.range);
}

bool KeySet::Insert(uint64_t key) {
  if (key == 0) {
    const bool fresh = !has_zero_;
    has_zero_ = true;
    return fresh;
  }
  if ((size_ + 1) * 2 > slots_.size()) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Slot(key);; i = (i + 1) & mask) {
    if (slots_[i] == key) {
      return false;
    }
    if (slots_[i] == 0) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
}

void KeySet::Clear() {
  if (size_ * 4 < slots_.size()) {
    slots_ = {};  // grown by an earlier, longer walk
  } else {
    std::fill(slots_.begin(), slots_.end(), uint64_t{0});
  }
  size_ = 0;
  has_zero_ = false;
}

void KeySet::Grow() {
  std::vector<uint64_t> old(slots_.empty() ? 16 : slots_.size() * 2);  // most walks are short
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (uint64_t key : old) {
    if (key != 0) {
      size_t i = Slot(key);
      while (slots_[i] != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = key;
    }
  }
}

void CountExpansion(EvalContext& ctx, uint64_t& expanded) {
  if (++expanded > ctx.opts().max_expand_nodes) {
    throw DuelError(ErrorKind::kLimit, "graph expansion exceeded the node limit");
  }
}

bool ExpandAdmit(EvalContext& ctx, ExpandState& st, const Value& v) {
  CountExpansion(ctx, st.expanded);
  if (v.type() != nullptr && v.type()->kind() == TypeKind::kPointer) {
    return AdmitNode(ctx, st.seen, ctx.ToPtr(v));
  }
  if (v.is_lvalue() && ctx.opts().cycle_detect) {
    return st.seen.Insert(v.addr());
  }
  return true;
}

bool AdmitNode(EvalContext& ctx, KeySet& seen, Addr p) {
  if (p == 0) {
    return false;  // "until a NULL pointer ... terminates the sequence"
  }
  // A cycle (extension: the original did not handle cycles).
  return !ctx.opts().cycle_detect || seen.Insert(p);
}

bool ExpandReadable(EvalContext& ctx, const Value& v) {
  if (v.type() == nullptr || v.type()->kind() != TypeKind::kPointer) {
    return true;
  }
  TypeRef pointee = v.type()->target();
  size_t size = pointee->size() == 0 ? 1 : pointee->size();
  return ctx.access().ValidBytes(ctx.ToPtr(v), size);
}

WithScope ExpandScope(const Value& x) {
  WithScope s;
  s.subject = x;
  s.deref = x.type() != nullptr && x.type()->kind() == TypeKind::kPointer;
  return s;
}

}  // namespace duel
