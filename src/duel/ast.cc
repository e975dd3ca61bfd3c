#include "src/duel/ast.h"

#include "src/support/strings.h"

namespace duel {

const char* OpName(Op op) {
  switch (op) {
    case Op::kIntConst: return "constant";
    case Op::kFloatConst: return "fconstant";
    case Op::kCharConst: return "cconstant";
    case Op::kStringConst: return "string";
    case Op::kName: return "name";
    case Op::kUnderscore: return "underscore";
    case Op::kBrace: return "brace";
    case Op::kTo: return "to";
    case Op::kToOpen: return "to-open";
    case Op::kToPrefix: return "to-prefix";
    case Op::kAlternate: return "alternate";
    case Op::kIfGt: return "ifgt";
    case Op::kIfLt: return "iflt";
    case Op::kIfGe: return "ifge";
    case Op::kIfLe: return "ifle";
    case Op::kIfEq: return "ifeq";
    case Op::kIfNe: return "ifne";
    case Op::kSeqEq: return "equality";
    case Op::kImply: return "imply";
    case Op::kSequence: return "sequence";
    case Op::kDiscard: return "discard";
    case Op::kDefine: return "define";
    case Op::kWith: return "with";
    case Op::kArrowWith: return "arrow-with";
    case Op::kDfs: return "dfs";
    case Op::kBfs: return "bfs";
    case Op::kSelect: return "select";
    case Op::kCount: return "count";
    case Op::kSum: return "sum";
    case Op::kAll: return "all";
    case Op::kAny: return "any";
    case Op::kUntil: return "until";
    case Op::kIndexAlias: return "index-alias";
    case Op::kIf: return "if";
    case Op::kWhile: return "while";
    case Op::kFor: return "for";
    case Op::kCall: return "call";
    case Op::kCast: return "cast";
    case Op::kSizeofType: return "sizeof-type";
    case Op::kSizeofExpr: return "sizeof";
    case Op::kDecl: return "decl";
    case Op::kIndex: return "index";
    case Op::kDeref: return "indirect";
    case Op::kAddrOf: return "address";
    case Op::kNeg: return "negate";
    case Op::kPos: return "plus-unary";
    case Op::kBitNot: return "bitnot";
    case Op::kNot: return "not";
    case Op::kPreInc: return "preinc";
    case Op::kPreDec: return "predec";
    case Op::kPostInc: return "postinc";
    case Op::kPostDec: return "postdec";
    case Op::kMul: return "multiply";
    case Op::kDiv: return "divide";
    case Op::kMod: return "modulo";
    case Op::kAdd: return "plus";
    case Op::kSub: return "minus";
    case Op::kShl: return "lshift";
    case Op::kShr: return "rshift";
    case Op::kLt: return "lt";
    case Op::kGt: return "gt";
    case Op::kLe: return "le";
    case Op::kGe: return "ge";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kBitAnd: return "bitand";
    case Op::kBitXor: return "bitxor";
    case Op::kBitOr: return "bitor";
    case Op::kAndAnd: return "andand";
    case Op::kOrOr: return "oror";
    case Op::kCond: return "cond";
    case Op::kAssign: return "assign";
    case Op::kMulEq: return "mul-assign";
    case Op::kDivEq: return "div-assign";
    case Op::kModEq: return "mod-assign";
    case Op::kAddEq: return "add-assign";
    case Op::kSubEq: return "sub-assign";
    case Op::kShlEq: return "shl-assign";
    case Op::kShrEq: return "shr-assign";
    case Op::kAndEq: return "and-assign";
    case Op::kXorEq: return "xor-assign";
    case Op::kOrEq: return "or-assign";
  }
  return "?";
}

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
    case Op::kCall:
    case Op::kDecl:
      return true;
    default:
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
