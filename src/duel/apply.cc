#include "src/duel/apply.h"

#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

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

TypeKind UnsignedOf(TypeKind k) {
  switch (k) {
    case TypeKind::kInt: return TypeKind::kUInt;
    case TypeKind::kLong: return TypeKind::kULong;
    case TypeKind::kLongLong: return TypeKind::kULongLong;
    default: return k;
  }
}

bool IsPointer(TypeRef t) { return t != nullptr && t->kind() == TypeKind::kPointer; }

std::string TypeText(TypeRef t) { return t != nullptr ? t->ToString() : "<frame>"; }

Typing Invalid(Op op, TypeRef a, TypeRef b) {
  return {TypeFault::kInvalidOperands, a, b, op};
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

// The comparison rule: one C comparison operator over two operands already
// converted to the type it compares in. Compare dispatches on the operator
// per call; RunComparison's loops pick CompareAs once per run.
template <Op kOp, typename T>
bool CompareAs(T a, T b) {
  if constexpr (kOp == Op::kLt) {
    return a < b;
  } else if constexpr (kOp == Op::kGt) {
    return a > b;
  } else if constexpr (kOp == Op::kLe) {
    return a <= b;
  } else if constexpr (kOp == Op::kGe) {
    return a >= b;
  } else if constexpr (kOp == Op::kEq) {
    return a == b;
  } else {
    static_assert(kOp == Op::kNe);
    return a != b;
  }
}

template <typename T>
bool Compare(Op op, T a, T b) {
  switch (op) {
    case Op::kLt: return CompareAs<Op::kLt>(a, b);
    case Op::kGt: return CompareAs<Op::kGt>(a, b);
    case Op::kLe: return CompareAs<Op::kLe>(a, b);
    case Op::kGe: return CompareAs<Op::kGe>(a, b);
    case Op::kEq: return CompareAs<Op::kEq>(a, b);
    case Op::kNe: return CompareAs<Op::kNe>(a, b);
    default:
      throw DuelError(ErrorKind::kInternal, "ApplyComparison: unexpected operator");
  }
}

Sym BinSym(EvalContext& ctx, Op op, const Value& a, const Value& b) {
  if (!ctx.sym_on()) {
    return Sym::None();
  }
  ctx.counters().symbolic_builds++;
  return ComposeBinary(ctx.arena(), a.sym(), op, b.sym());
}

}  // namespace

// --- static typing -------------------------------------------------------------

// Rule name and message per TypeFault, in enum order. In a message, %a and
// %b name the operand types and %o spells the operator.
constexpr struct {
  const char* rule;
  const char* text;
} kFaults[] = {
    {"", ""},
    {"invalid-operands", "invalid operands to '%o' (%a and %b)"},
    {"unary-non-arithmetic", "unary '%o' needs an arithmetic operand"},
    {"unary-non-integer", "'~' needs an integer operand"},
    {"deref-non-pointer", "'*' needs a pointer operand"},
    {"deref-void-pointer", "cannot dereference void *"},
    {"addrof-rvalue", "'&' needs an lvalue"},
    {"addrof-bitfield", "cannot take the address of a bit-field"},
    {"index-non-pointer", "subscript needs an array or pointer, got %a"},
    {"non-integer-operand", "cannot convert %a to an integer"},
    {"non-integer-operand", "value has no type"},
    {"non-scalar-condition", "value of type %a is not a condition"},
    {"incdec-rvalue", "'++'/'--' need an lvalue"},
    {"incdec-non-scalar", "cannot increment %a"},
    {"assign-to-rvalue", "assignment requires an lvalue"},
    {"assign-incompatible", "cannot assign %a to %b"},
    {"assign-incompatible", "cannot assign to %a"},
};
static_assert(std::size(kFaults) == static_cast<size_t>(TypeFault::kAssignNonScalar) + 1);

const char* Typing::rule() const { return kFaults[static_cast<size_t>(fault_)].rule; }

std::string Typing::Message() const {
  std::string out;
  for (const char* p = kFaults[static_cast<size_t>(fault_)].text; *p != '\0'; ++p) {
    if (*p != '%') {
      out += *p;
    } else if (*++p == 'o') {
      out += Info(op_).spelling;
    } else {
      out += TypeText(*p == 'a' ? a_ : b_);
    }
  }
  return out;
}

void Typing::Throw(SourceRange range) const {
  throw DuelError(ErrorKind::kType, Message(), range);
}

TypeRef Promote(target::TypeTable& types, TypeRef t) {
  if (t->kind() == TypeKind::kEnum) {
    return types.Int();
  }
  if (t->IsInteger() && IntRank(t->kind()) < IntRank(TypeKind::kInt)) {
    return types.Int();  // all sub-int types fit in int on LP64
  }
  return t;
}

TypeRef CommonType(target::TypeTable& types, TypeRef ta, TypeRef tb) {
  if (ta->kind() == TypeKind::kDouble || tb->kind() == TypeKind::kDouble) {
    return types.Double();
  }
  if (ta->kind() == TypeKind::kFloat || tb->kind() == TypeKind::kFloat) {
    return types.Float();
  }
  TypeRef a = Promote(types, ta);
  TypeRef b = Promote(types, tb);
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
  TypeRef u = ua ? a : b;
  TypeRef s = ua ? b : a;
  if (IntRank(u->kind()) >= IntRank(s->kind())) {
    return u;
  }
  if (s->size() > u->size()) {
    return s;  // the signed type can represent every value of the unsigned one
  }
  return types.Basic(UnsignedOf(s->kind()));
}

TypeRef RvalueType(target::TypeTable& types, TypeRef t) {
  if (t != nullptr && t->kind() == TypeKind::kArray) {
    return types.PointerTo(t->target());
  }
  if (t != nullptr && t->kind() == TypeKind::kFunction) {
    return types.PointerTo(t);
  }
  return t;
}

TypeRef RvalueTypeOf(target::TypeTable& types, const Value& v) {
  return v.is_lvalue() ? RvalueType(types, v.type()) : v.type();
}

TypeRef LiteralType(target::TypeTable& types, const Node& n) {
  switch (n.op) {
    case Op::kIntConst:
      if (n.is_unsigned) {
        return n.is_long || n.int_value > std::numeric_limits<uint32_t>::max() ? types.ULong()
                                                                               : types.UInt();
      }
      return n.is_long || n.int_value > std::numeric_limits<int32_t>::max() ? types.Long()
                                                                            : types.Int();
    case Op::kCharConst: return types.Char();
    case Op::kFloatConst: return types.Double();
    case Op::kStringConst: return types.PointerTo(types.Char());
    default:
      throw DuelError(ErrorKind::kInternal, "LiteralType on non-literal node");
  }
}

Typing IntegerType(TypeRef t) {
  if (t == nullptr) {
    return {TypeFault::kNoType, nullptr};
  }
  if (!t->IsScalar()) {
    return {TypeFault::kNonInteger, t};
  }
  return t;
}

Typing UnaryType(target::TypeTable& types, Op op, TypeRef t) {
  switch (op) {
    case Op::kNot:
      return ConditionType(types, t);
    case Op::kPos:
    case Op::kNeg:
      if (t == nullptr || !t->IsArithmetic()) {
        // Spelled like the binary operator of the same sign.
        return {TypeFault::kUnaryNonArithmetic, t, nullptr,
                op == Op::kNeg ? Op::kSub : Op::kAdd};
      }
      return op == Op::kPos || t->IsFloating() ? t : Promote(types, t);
    case Op::kBitNot:
      // Enums promote like the C integers they are.
      if (t == nullptr || (!t->IsInteger() && t->kind() != TypeKind::kEnum)) {
        return {TypeFault::kUnaryNonInteger, t};
      }
      return Promote(types, t);
    case Op::kDeref:
      if (!IsPointer(t)) {
        return {TypeFault::kDerefNonPointer, t};
      }
      if (t->target()->kind() == TypeKind::kVoid) {
        return {TypeFault::kDerefVoidPointer, t};
      }
      return t->target();
    default:
      throw DuelError(ErrorKind::kInternal, "UnaryType: unexpected operator");
  }
}

Typing AddressType(target::TypeTable& types, TypeRef t, bool lvalue, bool bitfield) {
  if (!lvalue) {
    return {TypeFault::kAddrOfRvalue, t};
  }
  if (bitfield) {
    return {TypeFault::kAddrOfBitfield, t};
  }
  return types.PointerTo(t);
}

Typing BinaryType(target::TypeTable& types, Op op, TypeRef a, TypeRef b) {
  if (IsComparisonOp(op)) {
    if (Typing t = ComparisonType(types, op, a, b); !t) {
      return t;
    }
    return types.Int();
  }
  if (a == nullptr || b == nullptr) {
    return Invalid(op, a, b);
  }
  bool pa = IsPointer(a);
  bool pb = IsPointer(b);
  if (pa || pb) {
    if (op == Op::kSub && pa && pb && a->target()->size() != 0) {
      return types.Long();
    }
    if ((op == Op::kAdd || (op == Op::kSub && pa)) && (pa ? b : a)->IsInteger()) {
      return pa ? a : b;  // p + n, n + p, p - n
    }
    return Invalid(op, a, b);
  }
  if (!a->IsArithmetic() || !b->IsArithmetic()) {
    return Invalid(op, a, b);
  }
  if (a->IsFloating() || b->IsFloating()) {
    if (op == Op::kMul || op == Op::kDiv || op == Op::kAdd || op == Op::kSub) {
      return CommonType(types, a, b);
    }
    return Invalid(op, a, b);  // %, shifts and bit ops need integers
  }
  if (op == Op::kShl || op == Op::kShr) {
    return Promote(types, a);  // shifts keep the promoted left type
  }
  return CommonType(types, a, b);
}

Typing ComparisonType(target::TypeTable& types, Op op, TypeRef a, TypeRef b) {
  if (a == nullptr || b == nullptr) {
    return Invalid(op, a, b);
  }
  if (IsPointer(a) || IsPointer(b)) {
    if (Typing t = IntegerType(IsPointer(a) ? b : a); !t) {
      return t;  // the other side is read as an address
    }
    return IsPointer(a) ? a : b;
  }
  if (!a->IsArithmetic() || !b->IsArithmetic()) {
    return Invalid(op, a, b);
  }
  if (a->IsFloating() || b->IsFloating()) {
    return types.Double();
  }
  return CommonType(types, a, b);
}

Typing IndexType(TypeRef base, TypeRef index) {
  // C's commutative subscripting: 2[x] == x[2]. Enums subscript like the C
  // integers they are.
  bool swapped = base != nullptr && (base->IsInteger() || base->kind() == TypeKind::kEnum) &&
                 IsPointer(index);
  TypeRef ptr = swapped ? index : base;
  if (!IsPointer(ptr)) {
    return {TypeFault::kIndexNonPointer, ptr};
  }
  if (Typing t = IntegerType(swapped ? base : index); !t) {
    return t;
  }
  return ptr->target();
}

Typing IncDecType(target::TypeTable& types, TypeRef t, bool lvalue) {
  if (!lvalue) {
    return {TypeFault::kIncDecRvalue, t};
  }
  TypeRef rt = RvalueType(types, t);
  if (!rt->IsScalar()) {
    return {TypeFault::kIncDecNonScalar, rt};
  }
  return AssignType(types, Op::kAssign, t, true, rt);
}

Typing AssignType(target::TypeTable& types, Op op, TypeRef target, bool lvalue, TypeRef source) {
  if (op != Op::kAssign) {
    // op= applies its operator, then stores the result like `=`.
    Typing t = BinaryType(types, Info(op).base, RvalueType(types, target), source);
    if (!t) {
      return t;
    }
    return AssignType(types, Op::kAssign, target, lvalue, t.type());
  }
  if (!lvalue) {
    return {TypeFault::kAssignRvalue, target};
  }
  if (target->IsRecord() || target->kind() == TypeKind::kArray) {
    if (source == nullptr || !target::TypeEquals(target, source)) {
      return {TypeFault::kAssignMismatch, source, target};
    }
  } else if (target->IsScalar()) {
    if (Typing t = IntegerType(source); !t) {
      return t;  // floating sources convert too: every scalar does
    }
  } else {
    return {TypeFault::kAssignNonScalar, target};
  }
  return RvalueType(types, target);
}

Typing ConditionType(target::TypeTable& types, TypeRef t) {
  if (t == nullptr || !t->IsScalar()) {
    return {TypeFault::kNotCondition, t};
  }
  return types.Int();
}

// --- values --------------------------------------------------------------------

bool CompareScalars(Op op, TypeRef ct, const Scalar& a, const Scalar& b) {
  if (ct->kind() == TypeKind::kPointer) {
    uint64_t ua = a.type->kind() == TypeKind::kPointer ? a.Ptr() : a.U64();
    uint64_t ub = b.type->kind() == TypeKind::kPointer ? b.Ptr() : b.U64();
    return Compare(op, ua, ub);
  }
  if (ct->IsFloating()) {
    return Compare(op, a.F64(), b.F64());
  }
  if (ct->IsUnsignedInteger()) {
    return Compare(op, MaskTo(static_cast<uint64_t>(a.I64()), ct->size()),
                   MaskTo(static_cast<uint64_t>(b.I64()), ct->size()));
  }
  return Compare(op, a.I64(), b.I64());
}

namespace {

// What CompareScalars compares in, by the comparison type: addresses and
// unsigned integers as (masked) uint64_t, floating types as double, the
// rest as int64_t.
enum class Domain { kSigned, kUnsigned, kFloating };

// An element of C representation E read as CompareScalars reads it in
// domain kD (Scalar::I64, U64, Ptr and F64 for that element type).
template <Domain kD, typename E>
auto Convert(E v, const RunComparison::Operand& rhs) {
  if constexpr (kD == Domain::kFloating) {
    return static_cast<double>(v);
  } else if constexpr (kD == Domain::kSigned) {
    return static_cast<int64_t>(v);
  } else {
    return static_cast<uint64_t>(static_cast<int64_t>(v)) & rhs.mask;
  }
}

template <Domain kD>
auto RhsOf(const RunComparison::Operand& rhs) {
  if constexpr (kD == Domain::kFloating) {
    return rhs.f;
  } else if constexpr (kD == Domain::kSigned) {
    return rhs.i;
  } else {
    return rhs.u;
  }
}

template <typename E, Domain kD, Op kOp>
size_t FirstPassLoop(const uint8_t* run, size_t from, size_t n,
                     const RunComparison::Operand& rhs) {
  const auto c = RhsOf<kD>(rhs);
  for (size_t k = from; k < n; ++k) {
    E v;
    std::memcpy(&v, run + k * sizeof(E), sizeof(E));
    if (CompareAs<kOp>(Convert<kD>(v, rhs), c)) {
      return k;
    }
  }
  return n;
}

template <typename E, Domain kD, Op kOp>
size_t CountLoop(const uint8_t* run, size_t from, size_t n, const RunComparison::Operand& rhs) {
  const auto c = RhsOf<kD>(rhs);
  size_t passes = 0;
  for (size_t k = from; k < n; ++k) {
    E v;
    std::memcpy(&v, run + k * sizeof(E), sizeof(E));
    passes += CompareAs<kOp>(Convert<kD>(v, rhs), c) ? 1 : 0;
  }
  return passes;
}

template <typename E, Domain kD, Op kOp>
bool UseLoops(RunComparison::Loop* first, RunComparison::Loop* count) {
  *first = &FirstPassLoop<E, kD, kOp>;
  *count = &CountLoop<E, kD, kOp>;
  return true;
}

template <typename E, Domain kD>
bool PickLoops(Op op, RunComparison::Loop* first, RunComparison::Loop* count) {
  switch (op) {
    case Op::kLt: return UseLoops<E, kD, Op::kLt>(first, count);
    case Op::kGt: return UseLoops<E, kD, Op::kGt>(first, count);
    case Op::kLe: return UseLoops<E, kD, Op::kLe>(first, count);
    case Op::kGe: return UseLoops<E, kD, Op::kGe>(first, count);
    case Op::kEq: return UseLoops<E, kD, Op::kEq>(first, count);
    case Op::kNe: return UseLoops<E, kD, Op::kNe>(first, count);
    default: return false;
  }
}

template <typename E>
bool PickLoops(Domain d, Op op, RunComparison::Loop* first, RunComparison::Loop* count) {
  switch (d) {
    case Domain::kSigned: return PickLoops<E, Domain::kSigned>(op, first, count);
    case Domain::kUnsigned: return PickLoops<E, Domain::kUnsigned>(op, first, count);
    case Domain::kFloating: return PickLoops<E, Domain::kFloating>(op, first, count);
  }
  return false;
}

template <typename S, typename U>
bool PickIntLoops(bool is_signed, Domain d, Op op, RunComparison::Loop* first,
                  RunComparison::Loop* count) {
  return is_signed ? PickLoops<S>(d, op, first, count) : PickLoops<U>(d, op, first, count);
}

}  // namespace

bool RunComparison::Set(Op op, TypeRef elem, TypeRef ct, const Scalar& rhs) {
  // The constant, converted as CompareScalars converts its right operand.
  Domain d;
  rhs_ = Operand();
  if (ct->kind() == TypeKind::kPointer) {
    d = Domain::kUnsigned;
    rhs_.u = rhs.type->kind() == TypeKind::kPointer ? rhs.Ptr() : rhs.U64();
  } else if (ct->IsFloating()) {
    d = Domain::kFloating;
    rhs_.f = rhs.F64();
  } else if (ct->IsUnsignedInteger()) {
    d = Domain::kUnsigned;
    rhs_.mask = MaskTo(~uint64_t{0}, ct->size());
    rhs_.u = MaskTo(static_cast<uint64_t>(rhs.I64()), ct->size());
  } else {
    d = Domain::kSigned;
    rhs_.i = rhs.I64();
  }
  if (elem->IsFloating()) {
    // A floating element only ever compares as a double.
    if (d != Domain::kFloating) {
      return false;
    }
    return elem->kind() == TypeKind::kFloat ? PickLoops<float>(d, op, &first_, &count_)
                                            : PickLoops<double>(d, op, &first_, &count_);
  }
  const bool is_signed = elem->IsSignedInteger() || elem->kind() == TypeKind::kEnum;
  switch (elem->size()) {
    case 1: return PickIntLoops<int8_t, uint8_t>(is_signed, d, op, &first_, &count_);
    case 2: return PickIntLoops<int16_t, uint16_t>(is_signed, d, op, &first_, &count_);
    case 4: return PickIntLoops<int32_t, uint32_t>(is_signed, d, op, &first_, &count_);
    case 8: return PickIntLoops<int64_t, uint64_t>(is_signed, d, op, &first_, &count_);
    default: return false;
  }
}

Value IndexedLvalue(EvalContext& ctx, const Value& base, const Value& index, TypeRef elem,
                    Addr addr) {
  Sym sym = ctx.sym_on() ? ComposeIndex(ctx.arena(), base.sym(), index.sym()) : Sym::None();
  return Value::LV(elem, addr, sym);
}

bool ApplyComparisonImpl(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                         SourceRange range) {
  ctx.counters().applies++;
  Scalar a = ctx.Load(va);
  Scalar b = ctx.Load(vb);
  Typing t = ComparisonType(ctx.types(), op, a.type, b.type);
  if (!t) {
    t.Throw(range);
  }
  return CompareScalars(op, t.type(), a, b);
}

// ApplyBinary (`compose`) or ApplyArith: the same arithmetic, with or
// without the result's symbolic. Without it, a division by zero cannot name
// its expression.
Value ApplyArithImpl(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                     SourceRange range, bool compose) {
  ctx.counters().applies++;
  if (IsComparisonOp(op)) {
    bool r = ApplyComparison(ctx, op, va, vb, range);
    return Value::Int(ctx.types().Int(), r ? 1 : 0,
                      compose ? BinSym(ctx, op, va, vb) : Sym::None());
  }
  if (!IsArithOp(op)) {
    throw DuelError(ErrorKind::kInternal, "ApplyBinary: unexpected operator");
  }

  Scalar a = ctx.Load(va);
  Scalar b = ctx.Load(vb);
  Typing t = BinaryType(ctx.types(), op, a.type, b.type);
  if (!t) {
    t.Throw(range);
  }
  TypeRef rt = t.type();
  Sym sym = compose ? BinSym(ctx, op, va, vb) : Sym::None();

  // Pointer arithmetic.
  bool pa = a.type->kind() == TypeKind::kPointer;
  bool pb = b.type->kind() == TypeKind::kPointer;
  if (pa && pb) {
    int64_t diff = static_cast<int64_t>(a.Ptr() - b.Ptr()) /
                   static_cast<int64_t>(a.type->target()->size());
    return Value::Int(rt, diff, sym);
  }
  if (pa || pb) {
    uint64_t delta = static_cast<uint64_t>((pa ? b : a).I64()) * rt->target()->size();
    Addr p = (pa ? a : b).Ptr();
    return Value::Pointer(rt, op == Op::kAdd ? p + delta : p - delta, sym);
  }

  // Floating arithmetic: * / + - only.
  if (rt->IsFloating()) {
    double da = a.F64();
    double db = b.F64();
    double r = op == Op::kMul ? da * db : op == Op::kDiv ? da / db : op == Op::kAdd ? da + db
                                                                                    : da - db;
    return Value::Double(rt, r, sym);
  }

  size_t size = rt->size();
  if (op == Op::kShl || op == Op::kShr) {
    uint64_t count = static_cast<uint64_t>(b.I64()) & 63;
    uint64_t xa = MaskTo(static_cast<uint64_t>(a.I64()), size);
    uint64_t r;
    if (op == Op::kShl) {
      r = xa << count;
    } else if (rt->IsSignedInteger()) {
      r = static_cast<uint64_t>(SignExtend(xa, size) >> count);
    } else {
      r = xa >> count;
    }
    return Value::Int(rt, static_cast<int64_t>(MaskTo(r, size)), sym);
  }

  uint64_t xa = MaskTo(static_cast<uint64_t>(a.I64()), size);
  uint64_t xb = MaskTo(static_cast<uint64_t>(b.I64()), size);
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
      if (rt->IsUnsignedInteger()) {
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
      break;  // shifts were handled above
  }
  return Value::Int(rt, static_cast<int64_t>(MaskTo(r, size)), sym);
}

Value ApplyUnaryImpl(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  ctx.counters().applies++;
  auto usym = [&] {
    if (!ctx.sym_on()) {
      return Sym::None();
    }
    ctx.counters().symbolic_builds++;
    return ComposeUnary(ctx.arena(), op, v.sym());
  };
  if (op == Op::kNot) {
    bool truth = ctx.Truthy(v);  // applies ConditionType
    return Value::Int(ctx.types().Int(), truth ? 0 : 1, usym());
  }
  if (op == Op::kAddrOf) {
    Typing t = AddressType(ctx.types(), v.type(), v.is_lvalue(), v.is_bitfield());
    if (!t) {
      t.Throw(range);
    }
    return Value::Pointer(t.type(), v.addr(), usym());
  }
  Scalar r = ctx.Load(v);
  Typing t = UnaryType(ctx.types(), op, r.type);
  if (!t) {
    t.Throw(range);
  }
  TypeRef rt = t.type();
  switch (op) {
    case Op::kPos:
      return Value::RV(r.type, &r.bits, r.type->size(), usym());
    case Op::kNeg: {
      if (rt->IsFloating()) {
        return Value::Double(rt, -r.F64(), usym());
      }
      uint64_t x = MaskTo(static_cast<uint64_t>(r.I64()), rt->size());
      return Value::Int(rt, static_cast<int64_t>(MaskTo(0 - x, rt->size())), usym());
    }
    case Op::kBitNot: {
      uint64_t x = static_cast<uint64_t>(r.I64());
      return Value::Int(rt, static_cast<int64_t>(MaskTo(~x, rt->size())), usym());
    }
    default:  // kDeref
      return Value::LV(rt, r.Ptr(), usym());
  }
}

Value ApplyIndexImpl(EvalContext& ctx, const Value& base, const Value& index, SourceRange range) {
  ctx.counters().applies++;
  Scalar b = ctx.Load(base);  // decays arrays
  Typing t = IndexType(b.type, RvalueTypeOf(ctx.types(), index));
  if (!t) {
    t.Throw(range);
  }
  Scalar i = ctx.Load(index);
  if (b.type->kind() != TypeKind::kPointer) {
    std::swap(b, i);  // 2[x]
  }
  Addr addr = b.Ptr() + static_cast<uint64_t>(i.I64()) * t.type()->size();
  return IndexedLvalue(ctx, base, index, t.type(), addr);
}

Value ApplyCastImpl(EvalContext& ctx, TypeRef type, const Value& v, SourceRange range) {
  ctx.counters().applies++;
  Sym sym = ctx.sym_on() ? ComposeCast(ctx.arena(), type->ToString(), v.sym()) : Sym::None();
  if (type->kind() == TypeKind::kVoid) {
    return Value::RV(type, nullptr, 0, sym);
  }
  Value r = ctx.Rvalue(v);
  TypeRef st = r.type();
  if (st == nullptr) {
    throw DuelError(ErrorKind::kType, "cannot cast a frame handle", range);
  }
  if (type->IsRecord() || type->kind() == TypeKind::kArray) {
    if (!target::TypeEquals(type, st)) {
      throw DuelError(ErrorKind::kType,
                      "cannot cast " + st->ToString() + " to " + type->ToString(), range);
    }
    Value out = r;
    out.set_sym(sym);
    return out;
  }
  if (type->IsFloating()) {
    return Value::Double(type, ctx.ToF64(r), sym);
  }
  if (type->kind() == TypeKind::kPointer) {
    uint64_t p = st->kind() == TypeKind::kPointer ? ctx.ToPtr(r) : ctx.ToU64(r);
    return Value::Pointer(type, p, sym);
  }
  if (type->IsInteger() || type->kind() == TypeKind::kEnum) {
    int64_t x = st->kind() == TypeKind::kPointer ? static_cast<int64_t>(ctx.ToPtr(r))
                                                 : ctx.ToI64(r);
    return Value::Int(type, x, sym);
  }
  throw DuelError(ErrorKind::kType, "unsupported cast to " + type->ToString(), range);
}

Value ApplyAssignImpl(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                      SourceRange range) {
  ctx.counters().applies++;
  if (op == Op::kAssign) {
    ctx.Store(lhs, rhs);
  } else {
    Op base = Info(op).base;
    if (!IsArithOp(base)) {
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
  if (Typing t = IncDecType(ctx.types(), v.type(), v.is_lvalue()); !t) {
    t.Throw(range);
  }
  Value old = ctx.Rvalue(v);
  TypeRef t = old.type();
  bool inc = op == Op::kPreInc || op == Op::kPostInc;
  Value next;
  Sym none = Sym::None();
  if (t->kind() == TypeKind::kPointer) {
    uint64_t delta = t->target()->size();
    Addr p = ctx.ToPtr(old);
    next = Value::Pointer(t, inc ? p + delta : p - delta, none);
  } else if (t->IsFloating()) {
    double d = ctx.ToF64(old);
    next = Value::Double(t, inc ? d + 1 : d - 1, none);
  } else {
    int64_t x = ctx.ToI64(old);
    next = Value::Int(t, inc ? x + 1 : x - 1, none);
  }
  ctx.Store(v, next);
  bool pre = op == Op::kPreInc || op == Op::kPreDec;
  Value result = pre ? next : old;
  result.set_sym(ctx.sym_on() ? ComposeUnary(ctx.arena(), op, v.sym()) : Sym::None());
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

namespace {

template <typename F>
auto Stamped(SourceRange range, F&& apply) {
  try {
    return apply();
  } catch (DuelError& e) {
    e.set_range(range);
    throw;
  }
}

}  // namespace

bool ApplyComparison(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                     SourceRange range) {
  return Stamped(range, [&] { return ApplyComparisonImpl(ctx, op, va, vb, range); });
}

Value ApplyBinary(EvalContext& ctx, Op op, const Value& va, const Value& vb,
                  SourceRange range) {
  return Stamped(range, [&] { return ApplyArithImpl(ctx, op, va, vb, range, true); });
}

Value ApplyArith(EvalContext& ctx, Op op, const Value& va, const Value& vb, SourceRange range) {
  return Stamped(range, [&] { return ApplyArithImpl(ctx, op, va, vb, range, false); });
}

Value ApplyUnary(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  return Stamped(range, [&] { return ApplyUnaryImpl(ctx, op, v, range); });
}

Value ApplyIndex(EvalContext& ctx, const Value& base, const Value& index, SourceRange range) {
  return Stamped(range, [&] { return ApplyIndexImpl(ctx, base, index, range); });
}

Value ApplyCast(EvalContext& ctx, TypeRef type, const Value& v, SourceRange range) {
  return Stamped(range, [&] { return ApplyCastImpl(ctx, type, v, range); });
}

Value ApplyAssign(EvalContext& ctx, Op op, const Value& lhs, const Value& rhs,
                  SourceRange range) {
  return Stamped(range, [&] { return ApplyAssignImpl(ctx, op, lhs, rhs, range); });
}

Value ApplyIncDec(EvalContext& ctx, Op op, const Value& v, SourceRange range) {
  return Stamped(range, [&] { return ApplyIncDecImpl(ctx, op, v, range); });
}

}  // namespace duel
