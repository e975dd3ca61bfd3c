#include "src/duel/ast.h"

#include <array>

#include "src/support/strings.h"

namespace duel {

namespace {

using F = OpFamily;
constexpr Tok kNoTok = Tok::kEnd;

}  // namespace

// One row per operator, in enum order (checked below).
constexpr OpInfo kOpTable[kNumOps] = {
    // op, DumpAst name, spelling, token, precedence, family, base
    {Op::kIntConst, "constant", "", kNoTok, kPrecPrimary, F::kStructured, Op::kIntConst},
    {Op::kFloatConst, "fconstant", "", kNoTok, kPrecPrimary, F::kStructured, Op::kFloatConst},
    {Op::kCharConst, "cconstant", "", kNoTok, kPrecPrimary, F::kStructured, Op::kCharConst},
    {Op::kStringConst, "string", "", kNoTok, kPrecPrimary, F::kStructured, Op::kStringConst},
    {Op::kName, "name", "", Tok::kIdent, kPrecPrimary, F::kStructured, Op::kName},
    {Op::kUnderscore, "underscore", "_", Tok::kUnderscore, kPrecPrimary, F::kStructured,
     Op::kUnderscore},
    {Op::kBrace, "brace", "{", Tok::kLBrace, kPrecPrimary, F::kStructured, Op::kBrace},
    {Op::kTo, "to", "..", Tok::kDotDot, kPrecRange, F::kStructured, Op::kTo},
    {Op::kToOpen, "to-open", "..", Tok::kDotDot, kPrecRange, F::kStructured, Op::kToOpen},
    {Op::kToPrefix, "to-prefix", "..", Tok::kDotDot, kPrecRange, F::kStructured, Op::kToPrefix},
    {Op::kAlternate, "alternate", ",", Tok::kComma, kPrecAlt, F::kStructured, Op::kAlternate},
    {Op::kIfGt, "ifgt", ">?", Tok::kIfGt, kPrecRel, F::kFilter, Op::kGt},
    {Op::kIfLt, "iflt", "<?", Tok::kIfLt, kPrecRel, F::kFilter, Op::kLt},
    {Op::kIfGe, "ifge", ">=?", Tok::kIfGe, kPrecRel, F::kFilter, Op::kGe},
    {Op::kIfLe, "ifle", "<=?", Tok::kIfLe, kPrecRel, F::kFilter, Op::kLe},
    {Op::kIfEq, "ifeq", "==?", Tok::kIfEq, kPrecEq, F::kFilter, Op::kEq},
    {Op::kIfNe, "ifne", "!=?", Tok::kIfNe, kPrecEq, F::kFilter, Op::kNe},
    {Op::kSeqEq, "equality", "===", Tok::kSeqEq, kPrecEq, F::kStructured, Op::kSeqEq},
    {Op::kImply, "imply", "=>", Tok::kImply, kPrecImply, F::kStructured, Op::kImply},
    {Op::kSequence, "sequence", ";", Tok::kSemi, kPrecSeq, F::kStructured, Op::kSequence},
    {Op::kDiscard, "discard", ";", Tok::kSemi, kPrecSeq, F::kStructured, Op::kDiscard},
    {Op::kDefine, "define", ":=", Tok::kDefine, kPrecAssign, F::kStructured, Op::kDefine},
    {Op::kWith, "with", ".", Tok::kDot, kPrecPostfix, F::kStructured, Op::kWith},
    {Op::kArrowWith, "arrow-with", "->", Tok::kArrow, kPrecPostfix, F::kStructured,
     Op::kArrowWith},
    {Op::kDfs, "dfs", "-->", Tok::kExpand, kPrecPostfix, F::kStructured, Op::kDfs},
    {Op::kBfs, "bfs", "-->>", Tok::kExpandBfs, kPrecPostfix, F::kStructured, Op::kBfs},
    {Op::kSelect, "select", "[[", Tok::kLSelect, kPrecPostfix, F::kStructured, Op::kSelect},
    {Op::kCount, "count", "#/", Tok::kCountOf, kPrecUnary, F::kStructured, Op::kCount},
    {Op::kSum, "sum", "+/", Tok::kSumOf, kPrecUnary, F::kStructured, Op::kSum},
    {Op::kAll, "all", "&&/", Tok::kAllOf, kPrecUnary, F::kStructured, Op::kAll},
    {Op::kAny, "any", "||/", Tok::kAnyOf, kPrecUnary, F::kStructured, Op::kAny},
    {Op::kUntil, "until", "@", Tok::kAt, kPrecPostfix, F::kStructured, Op::kUntil},
    {Op::kIndexAlias, "index-alias", "#", Tok::kHash, kPrecPostfix, F::kStructured,
     Op::kIndexAlias},
    {Op::kIf, "if", "if", Tok::kKwIf, kPrecPrimary, F::kStructured, Op::kIf},
    {Op::kWhile, "while", "while", Tok::kKwWhile, kPrecPrimary, F::kStructured, Op::kWhile},
    {Op::kFor, "for", "for", Tok::kKwFor, kPrecPrimary, F::kStructured, Op::kFor},
    {Op::kCall, "call", "(", Tok::kLParen, kPrecPostfix, F::kStructured, Op::kCall},
    {Op::kCast, "cast", "", kNoTok, kPrecUnary, F::kMapUnary, Op::kCast},
    {Op::kSizeofType, "sizeof-type", "sizeof", Tok::kKwSizeof, kPrecPrimary, F::kStructured,
     Op::kSizeofType},
    {Op::kSizeofExpr, "sizeof", "sizeof", Tok::kKwSizeof, kPrecUnary, F::kStructured,
     Op::kSizeofExpr},
    {Op::kDecl, "decl", "", kNoTok, kPrecPrimary, F::kStructured, Op::kDecl},
    {Op::kIndex, "index", "[", Tok::kLBracket, kPrecPostfix, F::kBinaryProduct, Op::kIndex},
    {Op::kDeref, "indirect", "*", Tok::kStar, kPrecUnary, F::kMapUnary, Op::kDeref},
    {Op::kAddrOf, "address", "&", Tok::kAmp, kPrecUnary, F::kMapUnary, Op::kAddrOf},
    {Op::kNeg, "negate", "-", Tok::kMinus, kPrecUnary, F::kMapUnary, Op::kNeg},
    {Op::kPos, "plus-unary", "+", Tok::kPlus, kPrecUnary, F::kMapUnary, Op::kPos},
    {Op::kBitNot, "bitnot", "~", Tok::kTilde, kPrecUnary, F::kMapUnary, Op::kBitNot},
    {Op::kNot, "not", "!", Tok::kBang, kPrecUnary, F::kMapUnary, Op::kNot},
    {Op::kPreInc, "preinc", "++", Tok::kInc, kPrecUnary, F::kMapUnary, Op::kPreInc},
    {Op::kPreDec, "predec", "--", Tok::kDec, kPrecUnary, F::kMapUnary, Op::kPreDec},
    {Op::kPostInc, "postinc", "++", Tok::kInc, kPrecPostfix, F::kMapUnary, Op::kPostInc},
    {Op::kPostDec, "postdec", "--", Tok::kDec, kPrecPostfix, F::kMapUnary, Op::kPostDec},
    {Op::kMul, "multiply", "*", Tok::kStar, kPrecMul, F::kBinaryProduct, Op::kMul},
    {Op::kDiv, "divide", "/", Tok::kSlash, kPrecMul, F::kBinaryProduct, Op::kDiv},
    {Op::kMod, "modulo", "%", Tok::kPercent, kPrecMul, F::kBinaryProduct, Op::kMod},
    {Op::kAdd, "plus", "+", Tok::kPlus, kPrecAdd, F::kBinaryProduct, Op::kAdd},
    {Op::kSub, "minus", "-", Tok::kMinus, kPrecAdd, F::kBinaryProduct, Op::kSub},
    {Op::kShl, "lshift", "<<", Tok::kShl, kPrecShift, F::kBinaryProduct, Op::kShl},
    {Op::kShr, "rshift", ">>", Tok::kShr, kPrecShift, F::kBinaryProduct, Op::kShr},
    {Op::kLt, "lt", "<", Tok::kLt, kPrecRel, F::kBinaryProduct, Op::kLt},
    {Op::kGt, "gt", ">", Tok::kGt, kPrecRel, F::kBinaryProduct, Op::kGt},
    {Op::kLe, "le", "<=", Tok::kLe, kPrecRel, F::kBinaryProduct, Op::kLe},
    {Op::kGe, "ge", ">=", Tok::kGe, kPrecRel, F::kBinaryProduct, Op::kGe},
    {Op::kEq, "eq", "==", Tok::kEq, kPrecEq, F::kBinaryProduct, Op::kEq},
    {Op::kNe, "ne", "!=", Tok::kNe, kPrecEq, F::kBinaryProduct, Op::kNe},
    {Op::kBitAnd, "bitand", "&", Tok::kAmp, kPrecBitAnd, F::kBinaryProduct, Op::kBitAnd},
    {Op::kBitXor, "bitxor", "^", Tok::kCaret, kPrecBitXor, F::kBinaryProduct, Op::kBitXor},
    {Op::kBitOr, "bitor", "|", Tok::kPipe, kPrecBitOr, F::kBinaryProduct, Op::kBitOr},
    {Op::kAndAnd, "andand", "&&", Tok::kAndAnd, kPrecAndAnd, F::kStructured, Op::kAndAnd},
    {Op::kOrOr, "oror", "||", Tok::kOrOr, kPrecOrOr, F::kStructured, Op::kOrOr},
    {Op::kCond, "cond", "?", Tok::kQuestion, kPrecCond, F::kStructured, Op::kCond},
    {Op::kAssign, "assign", "=", Tok::kAssign, kPrecAssign, F::kBinaryProduct, Op::kAssign},
    {Op::kMulEq, "mul-assign", "*=", Tok::kStarEq, kPrecAssign, F::kBinaryProduct, Op::kMul},
    {Op::kDivEq, "div-assign", "/=", Tok::kSlashEq, kPrecAssign, F::kBinaryProduct, Op::kDiv},
    {Op::kModEq, "mod-assign", "%=", Tok::kPercentEq, kPrecAssign, F::kBinaryProduct,
     Op::kMod},
    {Op::kAddEq, "add-assign", "+=", Tok::kPlusEq, kPrecAssign, F::kBinaryProduct, Op::kAdd},
    {Op::kSubEq, "sub-assign", "-=", Tok::kMinusEq, kPrecAssign, F::kBinaryProduct, Op::kSub},
    {Op::kShlEq, "shl-assign", "<<=", Tok::kShlEq, kPrecAssign, F::kBinaryProduct, Op::kShl},
    {Op::kShrEq, "shr-assign", ">>=", Tok::kShrEq, kPrecAssign, F::kBinaryProduct, Op::kShr},
    {Op::kAndEq, "and-assign", "&=", Tok::kAmpEq, kPrecAssign, F::kBinaryProduct,
     Op::kBitAnd},
    {Op::kXorEq, "xor-assign", "^=", Tok::kCaretEq, kPrecAssign, F::kBinaryProduct,
     Op::kBitXor},
    {Op::kOrEq, "or-assign", "|=", Tok::kPipeEq, kPrecAssign, F::kBinaryProduct, Op::kBitOr},
};

namespace {

// Every operator has exactly one row, at its own index.
constexpr bool RowsCoverEveryOp() {
  for (size_t i = 0; i < kNumOps; ++i) {
    if (static_cast<size_t>(kOpTable[i].op) != i || kOpTable[i].name == nullptr) {
      return false;
    }
  }
  return true;
}
static_assert(RowsCoverEveryOp(), "kOpTable needs one row per Op, in enum order");

constexpr size_t kNumToks = static_cast<size_t>(Tok::kKwVoid) + 1;

// A Tok-indexed inverse of the table over the rows `in_position` selects;
// two such rows sharing a token is a compile error.
template <typename Pred>
constexpr std::array<int16_t, kNumToks> TokIndex(Pred in_position) {
  std::array<int16_t, kNumToks> index{};
  index.fill(-1);
  for (const OpInfo& row : kOpTable) {
    if (row.tok == kNoTok || !in_position(row)) {
      continue;
    }
    int16_t& slot = index[static_cast<size_t>(row.tok)];
    if (slot != -1) {
      throw "two operators share a token in one position";
    }
    slot = static_cast<int16_t>(row.op);
  }
  return index;
}

constexpr auto kInfix = TokIndex([](const OpInfo& r) {
  return r.prec >= kPrecOrOr && r.prec <= kPrecMul && r.prec != kPrecRange;
});
constexpr auto kAssign = TokIndex([](const OpInfo& r) { return r.prec == kPrecAssign; });
constexpr auto kPrefix = TokIndex([](const OpInfo& r) { return r.prec == kPrecUnary; });
constexpr auto kPostfix = TokIndex([](const OpInfo& r) { return r.prec == kPrecPostfix; });

std::optional<Op> Lookup(const std::array<int16_t, kNumToks>& index, Tok t) {
  int16_t op = index[static_cast<size_t>(t)];
  if (op < 0) {
    return std::nullopt;
  }
  return static_cast<Op>(op);
}

}  // namespace

std::optional<Op> InfixOp(Tok t) { return Lookup(kInfix, t); }
std::optional<Op> AssignOp(Tok t) { return Lookup(kAssign, t); }
std::optional<Op> PrefixOp(Tok t) { return Lookup(kPrefix, t); }
std::optional<Op> PostfixOp(Tok t) { return Lookup(kPostfix, t); }

std::string TypeSpec::ToString() const {
  std::string s;
  switch (base) {
    case Base::kVoid: s = "void"; break;
    case Base::kBool: s = "_Bool"; break;
    case Base::kChar: s = "char"; break;
    case Base::kSChar: s = "signed char"; break;
    case Base::kUChar: s = "unsigned char"; break;
    case Base::kShort: s = "short"; break;
    case Base::kUShort: s = "unsigned short"; break;
    case Base::kInt: s = "int"; break;
    case Base::kUInt: s = "unsigned"; break;
    case Base::kLong: s = "long"; break;
    case Base::kULong: s = "unsigned long"; break;
    case Base::kLongLong: s = "long long"; break;
    case Base::kULongLong: s = "unsigned long long"; break;
    case Base::kFloat: s = "float"; break;
    case Base::kDouble: s = "double"; break;
    case Base::kStruct: s = "struct " + tag; break;
    case Base::kUnion: s = "union " + tag; break;
    case Base::kEnum: s = "enum " + tag; break;
    case Base::kTypedef: s = tag; break;
  }
  if (pointer_depth > 0) {
    s += " " + std::string(static_cast<size_t>(pointer_depth), '*');
  }
  for (size_t d : array_dims) {
    s += StrPrintf("[%zu]", d);
  }
  return s;
}

bool MutatesTarget(const Node& n) {
  switch (n.op) {
    case Op::kPreInc:
    case Op::kPreDec:
    case Op::kPostInc:
    case Op::kPostDec:
    case Op::kCall:
    case Op::kDecl:
      return true;
    default:
      if (IsAssignOp(n.op)) {
        return true;
      }
      break;
  }
  for (const NodePtr& k : n.kids) {
    if (k != nullptr && MutatesTarget(*k)) {
      return true;
    }
  }
  return false;
}

std::string DumpAst(const Node& n) {
  std::string s = "(" + std::string(OpName(n.op));
  switch (n.op) {
    case Op::kIntConst:
      s += StrPrintf(" %llu", static_cast<unsigned long long>(n.int_value));
      break;
    case Op::kCharConst:
      s += StrPrintf(" '%s'", EscapeChar(static_cast<char>(n.int_value)).c_str());
      break;
    case Op::kFloatConst:
      s += " " + FormatDouble(n.float_value);
      break;
    case Op::kStringConst:
      s += " \"" + EscapeString(n.text) + "\"";
      break;
    case Op::kName:
    case Op::kDefine:
    case Op::kIndexAlias:
      s += " \"" + n.text + "\"";
      break;
    case Op::kCast:
    case Op::kSizeofType:
      s += " \"" + n.type_spec.ToString() + "\"";
      break;
    case Op::kDecl:
      for (const DeclItem& d : n.decls) {
        s += " (" + d.type.ToString() + " \"" + d.name + "\")";
      }
      break;
    default:
      break;
  }
  for (const NodePtr& k : n.kids) {
    s += " " + DumpAst(*k);
  }
  s += ")";
  return s;
}

}  // namespace duel
