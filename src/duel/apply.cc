#include "src/duel/apply.h"

#include <cstring>
#include <limits>

#include "src/support/strings.h"

namespace duel {

using target::TypeKind;

namespace {

int IntRank(TypeKind k) {
  switch (k) {
    case TypeKind::kBool: return 0;
    case TypeKind::kChar:
    case TypeKind::kSChar:
    case TypeKind::kUChar: return 1;
    case TypeKind::kShort:
    case TypeKind::kUShort: return 2;
    case TypeKind::kInt:
    case TypeKind::kUInt: return 3;
    case TypeKind::kLong:
    case TypeKind::kULong: return 4;
    case TypeKind::kLongLong:
    case TypeKind::kULongLong: return 5;
    default: return -1;
  }
}

TypeRef Promote(EvalContext& ctx, const TypeRef& t) {
  if (t->kind() == TypeKind::kEnum) {
    return ctx.types().Int();
  }
  if (t->IsInteger() && IntRank(t->kind()) < IntRank(TypeKind::kInt)) {
    return ctx.types().Int();  // all sub-int types fit in int on LP64
  }
  return t;
}

TypeKind UnsignedOf(TypeKind k) {
  switch (k) {
    case TypeKind::kInt: return TypeKind::kUInt;
    case TypeKind::kLong: return TypeKind::kULong;
    case TypeKind::kLongLong: return TypeKind::kULongLong;
    default: return k;
  }
}

// Usual arithmetic conversions for two arithmetic types.
TypeRef CommonType(EvalContext& ctx, const TypeRef& ta, const TypeRef& tb) {
  if (ta->kind() == TypeKind::kDouble || tb->kind() == TypeKind::kDouble) {
    return ctx.types().Double();
  }
  if (ta->kind() == TypeKind::kFloat || tb->kind() == TypeKind::kFloat) {
    return ctx.types().Float();
  }
  TypeRef a = Promote(ctx, ta);
  TypeRef b = Promote(ctx, tb);
  if (a->kind() == b->kind()) {
    return a;
  }
  bool ua = a->IsUnsignedInteger();
  bool ub = b->IsUnsignedInteger();
  int ra = IntRank(a->kind());
  int rb = IntRank(b->kind());
  if (ua == ub) {
    return ra >= rb ? a : b;
  }
  const TypeRef& u = ua ? a : b;
  const TypeRef& s = ua ? b : a;
  int ru = IntRank(u->kind());
  int rs = IntRank(s->kind());
  if (ru >= rs) {
    return u;
  }
  if (s->size() > u->size()) {
    return s;  // the signed type can represent every value of the unsigned one
  }
  return ctx.types().Basic(UnsignedOf(s->kind()));
}

uint64_t MaskTo(uint64_t v, size_t size) {
  if (size >= 8) {
    return v;
  }
  return v & ((1ull << (size * 8)) - 1);
}

int64_t SignExtend(uint64_t v, size_t size) {
  if (size >= 8) {
    return static_cast<int64_t>(v);
  }
  uint64_t sign = 1ull << (size * 8 - 1);
  if (v & sign) {
    return static_cast<int64_t>(v | ~((sign << 1) - 1));
  }
  return static_cast<int64_t>(MaskTo(v, size));
}

bool IsArithOp(Op op) {
  switch (op) {
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kAdd:
    case Op::kSub:
    case Op::kShl:
    case Op::kShr:
    case Op::kBitAnd:
    case Op::kBitXor:
    case Op::kBitOr:
      return true;
    default:
      return false;
  }
}

bool IsComparisonOp(Op op) {
  switch (op) {
    case Op::kLt:
    case Op::kGt:
    case Op::kLe:
    case Op::kGe:
    case Op::kEq:
    case Op::kNe:
      return true;
    default:
      return false;
  }
}

Sym BinSym(EvalContext& ctx, Op op, const Value& a, const Value& b) {
  if (!ctx.sym_on()) {
    return Sym::None();
  }
  ctx.counters().symbolic_builds++;
  return ComposeBinary(a.sym(), BinOpText(op), b.sym(), BinOpPrec(op));
}

[[noreturn]] void TypeFail(const Value& a, const Value& b, Op op, SourceRange range) {
  throw DuelError(ErrorKind::kType,
                  StrPrintf("invalid operands to '%s' (%s and %s)", BinOpText(op),
                            a.type() ? a.type()->ToString().c_str() : "<frame>",
                            b.type() ? b.type()->ToString().c_str() : "<frame>"),
                  range);
}

}  // namespace

const char* BinOpText(Op op) {
  switch (op) {
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kMod: return "%";
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kShl: return "<<";
    case Op::kShr: return ">>";
    case Op::kLt: return "<";
    case Op::kGt: return ">";
    case Op::kLe: return "<=";
    case Op::kGe: return ">=";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kBitAnd: return "&";
    case Op::kBitXor: return "^";
    case Op::kBitOr: return "|";
    case Op::kAndAnd: return "&&";
    case Op::kOrOr: return "||";
    case Op::kAssign: return "=";
    case Op::kMulEq: return "*=";
    case Op::kDivEq: return "/=";
    case Op::kModEq: return "%=";
    case Op::kAddEq: return "+=";
    case Op::kSubEq: return "-=";
    case Op::kShlEq: return "<<=";
    case Op::kShrEq: return ">>=";
    case Op::kAndEq: return "&=";
    case Op::kXorEq: return "^=";
    case Op::kOrEq: return "|=";
    case Op::kIfGt: return ">?";
    case Op::kIfLt: return "<?";
    case Op::kIfGe: return ">=?";
    case Op::kIfLe: return "<=?";
    case Op::kIfEq: return "==?";
    case Op::kIfNe: return "!=?";
    case Op::kSeqEq: return "===";
    default: return "?";
  }
}

int BinOpPrec(Op op) {
  switch (op) {
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod: return kPrecMul;
    case Op::kAdd:
    case Op::kSub: return kPrecAdd;
    case Op::kShl:
    case Op::kShr: return kPrecShift;
    case Op::kLt:
    case Op::kGt:
    case Op::kLe:
    case Op::kGe:
    case Op::kIfLt:
    case Op::kIfGt:
    case Op::kIfLe:
    case Op::kIfGe: return kPrecRel;
    case Op::kEq:
    case Op::kNe:
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kSeqEq: return kPrecEq;
    case Op::kBitAnd: return kPrecBitAnd;
    case Op::kBitXor: return kPrecBitXor;
    case Op::kBitOr: return kPrecBitOr;
    case Op::kAndAnd: return kPrecAndAnd;
    case Op::kOrOr: return kPrecOrOr;
    default: return kPrecAssign;
  }
}

Op FilterToComparison(Op op) {
  switch (op) {
    case Op::kIfGt: return Op::kGt;
    case Op::kIfLt: return Op::kLt;
    case Op::kIfGe: return Op::kGe;
    case Op::kIfLe: return Op::kLe;
    case Op::kIfEq: return Op::kEq;
    case Op::kIfNe: return Op::kNe;
    default:
      throw DuelError(ErrorKind::kInternal, "FilterToComparison on non-filter");
  }
}

bool ApplyComparisonImpl(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                     SourceRange range) {
  ctx.counters().applies++;
  Value a = ctx.Rvalue(va);
  Value b = ctx.Rvalue(vb);
  const TypeRef& ta = a.type();
  const TypeRef& tb = b.type();
  if (ta == nullptr || tb == nullptr) {
    TypeFail(a, b, op, range);
  }

  // Pointer comparisons (pointer vs pointer or vs integer constant).
  if (ta->kind() == TypeKind::kPointer || tb->kind() == TypeKind::kPointer) {
    uint64_t ua = ta->kind() == TypeKind::kPointer ? ctx.ToPtr(a) : ctx.ToU64(a);
    uint64_t ub = tb->kind() == TypeKind::kPointer ? ctx.ToPtr(b) : ctx.ToU64(b);
    switch (op) {
      case Op::kLt: return ua < ub;
      case Op::kGt: return ua > ub;
      case Op::kLe: return ua <= ub;
      case Op::kGe: return ua >= ub;
      case Op::kEq: return ua == ub;
      case Op::kNe: return ua != ub;
      default: TypeFail(a, b, op, range);
    }
  }
  if (!ta->IsArithmetic() || !tb->IsArithmetic()) {
    TypeFail(a, b, op, range);
  }
  if (ta->IsFloating() || tb->IsFloating()) {
    double da = ctx.ToF64(a);
    double db = ctx.ToF64(b);
    switch (op) {
      case Op::kLt: return da < db;
      case Op::kGt: return da > db;
      case Op::kLe: return da <= db;
      case Op::kGe: return da >= db;
      case Op::kEq: return da == db;
      case Op::kNe: return da != db;
      default: TypeFail(a, b, op, range);
    }
  }
  TypeRef common = CommonType(ctx, ta, tb);
  if (common->IsUnsignedInteger()) {
    uint64_t xa = MaskTo(static_cast<uint64_t>(ctx.ToI64(a)), common->size());
    uint64_t xb = MaskTo(static_cast<uint64_t>(ctx.ToI64(b)), common->size());
    switch (op) {
      case Op::kLt: return xa < xb;
      case Op::kGt: return xa > xb;
      case Op::kLe: return xa <= xb;
      case Op::kGe: return xa >= xb;
      case Op::kEq: return xa == xb;
      case Op::kNe: return xa != xb;
      default: TypeFail(a, b, op, range);
    }
  }
  int64_t xa = ctx.ToI64(a);
  int64_t xb = ctx.ToI64(b);
  switch (op) {
    case Op::kLt: return xa < xb;
    case Op::kGt: return xa > xb;
    case Op::kLe: return xa <= xb;
    case Op::kGe: return xa >= xb;
    case Op::kEq: return xa == xb;
    case Op::kNe: return xa != xb;
    default: TypeFail(a, b, op, range);
  }
}

Value ApplyBinaryImpl(EvalContext& ctx, Op op, const Value& va, const Value& vb, SourceRange range) {
  ctx.counters().applies++;
  if (IsComparisonOp(op)) {
    bool r = ApplyComparison(ctx, op, va, vb, range);
    return Value::Int(ctx.types().Int(), r ? 1 : 0, BinSym(ctx, op, va, vb));
  }
  if (!IsArithOp(op)) {
    throw DuelError(ErrorKind::kInternal, "ApplyBinary: unexpected operator");
  }

  Value a = ctx.Rvalue(va);
  Value b = ctx.Rvalue(vb);
  const TypeRef& ta = a.type();
  const TypeRef& tb = b.type();
  if (ta == nullptr || tb == nullptr) {
    TypeFail(a, b, op, range);
  }
  Sym sym = BinSym(ctx, op, va, vb);

  // Pointer arithmetic.
  if (ta->kind() == TypeKind::kPointer || tb->kind() == TypeKind::kPointer) {
    if (op == Op::kAdd && ta->kind() == TypeKind::kPointer && tb->IsInteger()) {
      Addr p = ctx.ToPtr(a) + static_cast<uint64_t>(ctx.ToI64(b)) * ta->target()->size();
      return Value::Pointer(ta, p, std::move(sym));
    }
    if (op == Op::kAdd && tb->kind() == TypeKind::kPointer && ta->IsInteger()) {
      Addr p = ctx.ToPtr(b) + static_cast<uint64_t>(ctx.ToI64(a)) * tb->target()->size();
      return Value::Pointer(tb, p, std::move(sym));
    }
    if (op == Op::kSub && ta->kind() == TypeKind::kPointer && tb->IsInteger()) {
      Addr p = ctx.ToPtr(a) - static_cast<uint64_t>(ctx.ToI64(b)) * ta->target()->size();
      return Value::Pointer(ta, p, std::move(sym));
    }
    if (op == Op::kSub && ta->kind() == TypeKind::kPointer &&
        tb->kind() == TypeKind::kPointer) {
      if (ta->target()->size() == 0) {
        TypeFail(a, b, op, range);
      }
      int64_t diff = static_cast<int64_t>(ctx.ToPtr(a) - ctx.ToPtr(b)) /
                     static_cast<int64_t>(ta->target()->size());
      return Value::Int(ctx.types().Long(), diff, std::move(sym));
    }
    TypeFail(a, b, op, range);
  }

  if (!ta->IsArithmetic() || !tb->IsArithmetic()) {
    TypeFail(a, b, op, range);
  }

  // Floating arithmetic.
  if (ta->IsFloating() || tb->IsFloating()) {
    double da = ctx.ToF64(a);
    double db = ctx.ToF64(b);
    double r;
    switch (op) {
      case Op::kMul: r = da * db; break;
      case Op::kDiv:
        r = da / db;
        break;
      case Op::kAdd: r = da + db; break;
      case Op::kSub: r = da - db; break;
      default:
        TypeFail(a, b, op, range);  // %, shifts, bit ops on floats
    }
    TypeRef common = CommonType(ctx, ta, tb);
    return Value::Double(common, r, std::move(sym));
  }

  // Shifts keep the (promoted) left type.
  if (op == Op::kShl || op == Op::kShr) {
    TypeRef rt = Promote(ctx, ta);
    uint64_t count = static_cast<uint64_t>(ctx.ToI64(b)) & 63;
    uint64_t xa = MaskTo(static_cast<uint64_t>(ctx.ToI64(a)), rt->size());
    uint64_t r;
    if (op == Op::kShl) {
      r = xa << count;
    } else if (rt->IsSignedInteger()) {
      r = static_cast<uint64_t>(SignExtend(xa, rt->size()) >> count);
    } else {
      r = xa >> count;
    }
    return Value::Int(rt, static_cast<int64_t>(MaskTo(r, rt->size())), std::move(sym));
  }

  TypeRef common = CommonType(ctx, ta, tb);
  size_t size = common->size();
  uint64_t xa = MaskTo(static_cast<uint64_t>(ctx.ToI64(a)), size);
  uint64_t xb = MaskTo(static_cast<uint64_t>(ctx.ToI64(b)), size);
  bool uns = common->IsUnsignedInteger();
  uint64_t r = 0;
  switch (op) {
    case Op::kMul: r = xa * xb; break;
    case Op::kAdd: r = xa + xb; break;
    case Op::kSub: r = xa - xb; break;
    case Op::kBitAnd: r = xa & xb; break;
    case Op::kBitXor: r = xa ^ xb; break;
    case Op::kBitOr: r = xa | xb; break;
    case Op::kDiv:
    case Op::kMod: {
      if (xb == 0) {
        throw DuelError(ErrorKind::kType,
                        std::string(op == Op::kDiv ? "division" : "modulo") + " by zero" +
                            (sym.empty() ? "" : " in " + sym.Text()),
                        range);
      }
      if (uns) {
        r = op == Op::kDiv ? xa / xb : xa % xb;
      } else {
        int64_t sa = SignExtend(xa, size);
        int64_t sb = SignExtend(xb, size);
        if (sb == -1 && sa == std::numeric_limits<int64_t>::min()) {
          r = op == Op::kDiv ? static_cast<uint64_t>(sa) : 0;  // wrap, avoid UB
        } else {
          r = static_cast<uint64_t>(op == Op::kDiv ? sa / sb : sa % sb);
        }
      }
      break;
    }
    default:
      TypeFail(a, b, op, range);
  }
  return Value::Int(common, static_cast<int64_t>(MaskTo(r, size)), std::move(sym));
}

Value ApplyUnaryImpl(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  ctx.counters().applies++;
  auto usym = [&](const char* text) {
    if (!ctx.sym_on()) {
      return Sym::None();
    }
    ctx.counters().symbolic_builds++;
    return ComposeUnary(text, v.sym());
  };
  switch (op) {
    case Op::kNot: {
      bool t = ctx.Truthy(v);
      return Value::Int(ctx.types().Int(), t ? 0 : 1, usym("!"));
    }
    case Op::kPos: {
      Value r = ctx.Rvalue(v);
      if (r.type() == nullptr || !r.type()->IsArithmetic()) {
        throw DuelError(ErrorKind::kType, "unary '+' needs an arithmetic operand", range);
      }
      r.set_sym(usym("+"));
      return r;
    }
    case Op::kNeg: {
      Value r = ctx.Rvalue(v);
      const TypeRef& t = r.type();
      if (t == nullptr || !t->IsArithmetic()) {
        throw DuelError(ErrorKind::kType, "unary '-' needs an arithmetic operand", range);
      }
      if (t->IsFloating()) {
        return Value::Double(t, -ctx.ToF64(r), usym("-"));
      }
      TypeRef rt = Promote(ctx, t);
      uint64_t x = MaskTo(static_cast<uint64_t>(ctx.ToI64(r)), rt->size());
      return Value::Int(rt, static_cast<int64_t>(MaskTo(0 - x, rt->size())), usym("-"));
    }
    case Op::kBitNot: {
      Value r = ctx.Rvalue(v);
      const TypeRef& t = r.type();
      if (t == nullptr || !t->IsInteger()) {
        throw DuelError(ErrorKind::kType, "'~' needs an integer operand", range);
      }
      TypeRef rt = Promote(ctx, t);
      uint64_t x = static_cast<uint64_t>(ctx.ToI64(r));
      return Value::Int(rt, static_cast<int64_t>(MaskTo(~x, rt->size())), usym("~"));
    }
    case Op::kDeref: {
      Value r = ctx.Rvalue(v);
      if (r.type() == nullptr || r.type()->kind() != TypeKind::kPointer) {
        throw DuelError(ErrorKind::kType, "'*' needs a pointer operand", range);
      }
      const TypeRef& pointee = r.type()->target();
      if (pointee->kind() == TypeKind::kVoid) {
        throw DuelError(ErrorKind::kType, "cannot dereference void *", range);
      }
      return Value::LV(pointee, ctx.ToPtr(r), usym("*"));
    }
    case Op::kAddrOf: {
      if (!v.is_lvalue()) {
        throw DuelError(ErrorKind::kType, "'&' needs an lvalue", range);
      }
      if (v.is_bitfield()) {
        throw DuelError(ErrorKind::kType, "cannot take the address of a bit-field", range);
      }
      return Value::Pointer(ctx.types().PointerTo(v.type()), v.addr(), usym("&"));
    }
    default:
      throw DuelError(ErrorKind::kInternal, "ApplyUnary: unexpected operator");
  }
}

Value ApplyIndexImpl(EvalContext& ctx, const Value& base, const Value& index, SourceRange range) {
  ctx.counters().applies++;
  Value b = ctx.Rvalue(base);  // decays arrays
  Value idx = index;
  if (b.type() != nullptr && b.type()->IsInteger()) {
    // C's commutative subscripting: 2[x] == x[2].
    Value swapped = ctx.Rvalue(index);
    if (swapped.type() != nullptr && swapped.type()->kind() == TypeKind::kPointer) {
      idx = b;
      b = swapped;
    }
  }
  if (b.type() == nullptr || b.type()->kind() != TypeKind::kPointer) {
    throw DuelError(ErrorKind::kType,
                    "subscript needs an array or pointer, got " +
                        (b.type() ? b.type()->ToString() : "<frame>"),
                    range);
  }
  const TypeRef& elem = b.type()->target();
  int64_t i = ctx.ToI64(idx);
  Addr addr = ctx.ToPtr(b) + static_cast<uint64_t>(i) * elem->size();
  Sym sym = ctx.sym_on() ? ComposeIndex(base.sym(), index.sym()) : Sym::None();
  return Value::LV(elem, addr, std::move(sym));
}

Value ApplyCastImpl(EvalContext& ctx, const TypeRef& type, const Value& v, SourceRange range) {
  ctx.counters().applies++;
  Sym sym = ctx.sym_on()
                ? Sym::Plain("(" + type->ToString() + ")" + v.sym().TextAsOperand(kPrecUnary),
                             kPrecUnary)
                : Sym::None();
  if (type->kind() == TypeKind::kVoid) {
    return Value::RV(type, nullptr, 0, std::move(sym));
  }
  Value r = ctx.Rvalue(v);
  const TypeRef& st = r.type();
  if (st == nullptr) {
    throw DuelError(ErrorKind::kType, "cannot cast a frame handle", range);
  }
  if (type->IsRecord() || type->kind() == TypeKind::kArray) {
    if (!target::TypeEquals(type, st)) {
      throw DuelError(ErrorKind::kType,
                      "cannot cast " + st->ToString() + " to " + type->ToString(), range);
    }
    Value out = r;
    out.set_sym(std::move(sym));
    return out;
  }
  if (type->IsFloating()) {
    return Value::Double(type, ctx.ToF64(r), std::move(sym));
  }
  if (type->kind() == TypeKind::kPointer) {
    uint64_t p = st->kind() == TypeKind::kPointer ? ctx.ToPtr(r) : ctx.ToU64(r);
    return Value::Pointer(type, p, std::move(sym));
  }
  if (type->IsInteger() || type->kind() == TypeKind::kEnum) {
    int64_t x = st->kind() == TypeKind::kPointer ? static_cast<int64_t>(ctx.ToPtr(r))
                                                 : ctx.ToI64(r);
    return Value::Int(type, x, std::move(sym));
  }
  throw DuelError(ErrorKind::kType, "unsupported cast to " + type->ToString(), range);
}

Value ApplyAssignImpl(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                  SourceRange range) {
  ctx.counters().applies++;
  if (op == Op::kAssign) {
    ctx.Store(lhs, rhs);
  } else {
    Op base;
    switch (op) {
      case Op::kMulEq: base = Op::kMul; break;
      case Op::kDivEq: base = Op::kDiv; break;
      case Op::kModEq: base = Op::kMod; break;
      case Op::kAddEq: base = Op::kAdd; break;
      case Op::kSubEq: base = Op::kSub; break;
      case Op::kShlEq: base = Op::kShl; break;
      case Op::kShrEq: base = Op::kShr; break;
      case Op::kAndEq: base = Op::kBitAnd; break;
      case Op::kXorEq: base = Op::kBitXor; break;
      case Op::kOrEq: base = Op::kBitOr; break;
      default:
        throw DuelError(ErrorKind::kInternal, "ApplyAssign: unexpected operator");
    }
    Value combined = ApplyBinary(ctx, base, lhs, rhs, range);
    ctx.Store(lhs, combined);
  }
  // The value of an assignment is the new value of the lhs.
  Value result = ctx.Rvalue(lhs);
  result.set_sym(BinSym(ctx, op, lhs, rhs));
  return result;
}

Value ApplyIncDecImpl(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  ctx.counters().applies++;
  if (!v.is_lvalue()) {
    throw DuelError(ErrorKind::kType, "'++'/'--' need an lvalue", range);
  }
  Value old = ctx.Rvalue(v);
  const TypeRef& t = old.type();
  Value next;
  Sym none = Sym::None();
  if (t->kind() == TypeKind::kPointer) {
    uint64_t delta = t->target()->size();
    Addr p = ctx.ToPtr(old);
    next = Value::Pointer(t, (op == Op::kPreInc || op == Op::kPostInc) ? p + delta : p - delta,
                          none);
  } else if (t->IsFloating()) {
    double d = ctx.ToF64(old);
    next = Value::Double(t, (op == Op::kPreInc || op == Op::kPostInc) ? d + 1 : d - 1, none);
  } else if (t->IsInteger() || t->kind() == TypeKind::kEnum) {
    int64_t x = ctx.ToI64(old);
    next = Value::Int(t, (op == Op::kPreInc || op == Op::kPostInc) ? x + 1 : x - 1, none);
  } else {
    throw DuelError(ErrorKind::kType, "cannot increment " + t->ToString(), range);
  }
  ctx.Store(v, next);
  bool pre = op == Op::kPreInc || op == Op::kPreDec;
  const char* text = (op == Op::kPreInc || op == Op::kPostInc) ? "++" : "--";
  Sym sym = Sym::None();
  if (ctx.sym_on()) {
    sym = pre ? ComposeUnary(text, v.sym())
              : Sym::Plain(v.sym().TextAsOperand(kPrecPostfix) + text, kPrecPostfix);
  }
  Value result = pre ? next : old;
  result.set_sym(std::move(sym));
  return result;
}

// --- public entry points -----------------------------------------------------
//
// Thin wrappers that stamp the operator node's source range onto any error
// escaping the operator implementation (value conversion, loads, stores —
// helpers that throw without knowing where in the query they were called
// from). DuelError::set_range is first-writer-wins, so throw sites that
// already carry a precise inner range keep it. Every apply step funnels
// through these same wrappers, so a runtime error always carries a span.

bool ApplyComparison(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                     SourceRange range) {
  try {
    return ApplyComparisonImpl(ctx, op, va, vb, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyBinary(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                  SourceRange range) {
  try {
    return ApplyBinaryImpl(ctx, op, va, vb, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyUnary(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  try {
    return ApplyUnaryImpl(ctx, op, v, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyIndex(EvalContext& ctx, const Value& base, const Value& index, SourceRange range) {
  try {
    return ApplyIndexImpl(ctx, base, index, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyCast(EvalContext& ctx, const TypeRef& type, const Value& v, SourceRange range) {
  try {
    return ApplyCastImpl(ctx, type, v, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyAssign(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                  SourceRange range) {
  try {
    return ApplyAssignImpl(ctx, op, lhs, rhs, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

Value ApplyIncDec(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  try {
    return ApplyIncDecImpl(ctx, op, v, range);
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

}  // namespace duel
