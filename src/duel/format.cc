#include "src/duel/format.h"

#include "src/duel/apply.h"
#include "src/support/strings.h"

namespace duel {

namespace {

// Precedence of the expression a node renders as (parser grammar levels).
int NodePrec(const Node& n) {
  switch (n.op) {
    case Op::kSequence:
    case Op::kDiscard:
      return kPrecSeq;
    case Op::kAlternate:
      return kPrecAlt;
    case Op::kImply:
      return kPrecImply;
    case Op::kDefine:
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
      return kPrecAssign;
    case Op::kCond:
      return kPrecCond;
    case Op::kOrOr:
      return kPrecOrOr;
    case Op::kAndAnd:
      return kPrecAndAnd;
    case Op::kBitOr:
      return kPrecBitOr;
    case Op::kBitXor:
      return kPrecBitXor;
    case Op::kBitAnd:
      return kPrecBitAnd;
    case Op::kEq:
    case Op::kNe:
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kSeqEq:
      return kPrecEq;
    case Op::kLt:
    case Op::kGt:
    case Op::kLe:
    case Op::kGe:
    case Op::kIfLt:
    case Op::kIfGt:
    case Op::kIfLe:
    case Op::kIfGe:
      return kPrecRel;
    case Op::kTo:
    case Op::kToOpen:
    case Op::kToPrefix:
      return kPrecRange;
    case Op::kShl:
    case Op::kShr:
      return kPrecShift;
    case Op::kAdd:
    case Op::kSub:
      return kPrecAdd;
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
      return kPrecMul;
    case Op::kNeg:
    case Op::kPos:
    case Op::kBitNot:
    case Op::kNot:
    case Op::kDeref:
    case Op::kAddrOf:
    case Op::kPreInc:
    case Op::kPreDec:
    case Op::kCast:
    case Op::kSizeofExpr:
    case Op::kCount:
    case Op::kSum:
    case Op::kAll:
    case Op::kAny:
      return kPrecUnary;
    case Op::kIndex:
    case Op::kSelect:
    case Op::kWith:
    case Op::kArrowWith:
    case Op::kDfs:
    case Op::kBfs:
    case Op::kUntil:
    case Op::kIndexAlias:
    case Op::kCall:
    case Op::kPostInc:
    case Op::kPostDec:
      return kPrecPostfix;
    // if/while/for/decl parse as primaries; their bodies bind greedily so
    // they must be parenthesized when used as operands (handled below).
    default:
      return kPrecPrimary;
  }
}

std::string Render(const Node& n);

// Renders a child, parenthesizing when its precedence is looser than the
// context requires.
std::string Operand(const Node& n, int min_prec) {
  std::string text = Render(n);
  if (NodePrec(n) < min_prec) {
    return "(" + text + ")";
  }
  // Control expressions swallow trailing operators greedily; parenthesize
  // them whenever they are not at statement level.
  if ((n.op == Op::kIf || n.op == Op::kWhile || n.op == Op::kFor) &&
      min_prec > kPrecSeq) {
    return "(" + text + ")";
  }
  return text;
}

std::string RenderBinary(const Node& n, const char* op, int prec) {
  // Left-associative: the left child may sit at the same level.
  return Operand(*n.kids[0], prec) + op + Operand(*n.kids[1], prec + 1);
}

std::string RenderWith(const Node& n, const char* sep) {
  std::string lhs = Operand(*n.kids[0], kPrecPostfix);
  const Node& member = *n.kids[1];
  if (member.op == Op::kName) {
    return lhs + sep + member.text;
  }
  if (member.op == Op::kUnderscore) {
    return lhs + sep + "_";
  }
  return lhs + sep + "(" + Render(member) + ")";
}

std::string RenderTypeSpec(const TypeSpec& spec) { return spec.ToString(); }

std::string Render(const Node& n) {
  switch (n.op) {
    case Op::kIntConst:
      return n.is_unsigned
                 ? StrPrintf("%lluu", static_cast<unsigned long long>(n.int_value)) +
                       (n.is_long ? "l" : "")
                 : StrPrintf("%lld", static_cast<long long>(n.int_value)) +
                       (n.is_long ? "l" : "");
    case Op::kFloatConst:
      {
        std::string s = FormatDouble(n.float_value);
        // Ensure it re-lexes as a float, not an int.
        if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
            s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
          s += ".0";
        }
        return s;
      }
    case Op::kCharConst:
      return "'" + EscapeChar(static_cast<char>(n.int_value)) + "'";
    case Op::kStringConst:
      return "\"" + EscapeString(n.text) + "\"";
    case Op::kName:
      return n.text;
    case Op::kUnderscore:
      return "_";
    case Op::kBrace:
      return "{" + Render(*n.kids[0]) + "}";
    case Op::kTo:
      return Operand(*n.kids[0], kPrecShift) + ".." + Operand(*n.kids[1], kPrecShift);
    case Op::kToOpen:
      return Operand(*n.kids[0], kPrecShift) + "..";
    case Op::kToPrefix:
      return ".." + Operand(*n.kids[0], kPrecShift);
    case Op::kAlternate:
      return RenderBinary(n, ",", kPrecAlt);
    case Op::kImply:
      return RenderBinary(n, " => ", kPrecImply);
    case Op::kSequence:
      return RenderBinary(n, "; ", kPrecSeq);
    case Op::kDiscard:
      return Operand(*n.kids[0], kPrecSeq) + " ;";
    case Op::kDefine:
      return n.text + " := " + Operand(*n.kids[0], kPrecAssign);
    case Op::kWith:
      return RenderWith(n, ".");
    case Op::kArrowWith:
      return RenderWith(n, "->");
    case Op::kDfs:
      return RenderWith(n, "-->");
    case Op::kBfs:
      return RenderWith(n, "-->>");
    case Op::kSelect:
      return Operand(*n.kids[0], kPrecPostfix) + "[[" + Render(*n.kids[1]) + "]]";
    case Op::kIndex:
      return Operand(*n.kids[0], kPrecPostfix) + "[" + Render(*n.kids[1]) + "]";
    case Op::kUntil:
      return Operand(*n.kids[0], kPrecPostfix) + "@" + Operand(*n.kids[1], kPrecUnary);
    case Op::kIndexAlias:
      return Operand(*n.kids[0], kPrecPostfix) + "#" + n.text;
    case Op::kCount:
      return "#/" + Operand(*n.kids[0], kPrecUnary);
    case Op::kSum:
      return "+/" + Operand(*n.kids[0], kPrecUnary);
    case Op::kAll:
      return "&&/" + Operand(*n.kids[0], kPrecUnary);
    case Op::kAny:
      return "||/" + Operand(*n.kids[0], kPrecUnary);
    case Op::kIf: {
      std::string out = "if (" + Render(*n.kids[0]) + ") " + Operand(*n.kids[1], kPrecAssign);
      if (n.kids.size() > 2) {
        out += " else " + Operand(*n.kids[2], kPrecAssign);
      }
      return out;
    }
    case Op::kWhile:
      return "while (" + Render(*n.kids[0]) + ") " + Operand(*n.kids[1], kPrecAssign);
    case Op::kFor:
      return "for (" + Render(*n.kids[0]) + "; " + Render(*n.kids[1]) + "; " +
             Render(*n.kids[2]) + ") " + Operand(*n.kids[3], kPrecAssign);
    case Op::kCond:
      return Operand(*n.kids[0], kPrecOrOr) + " ? " + Operand(*n.kids[1], kPrecAssign) +
             " : " + Operand(*n.kids[2], kPrecCond);
    case Op::kCall: {
      std::string out = Operand(*n.kids[0], kPrecPostfix) + "(";
      for (size_t i = 1; i < n.kids.size(); ++i) {
        if (i != 1) {
          out += ", ";
        }
        out += Operand(*n.kids[i], kPrecImply);
      }
      return out + ")";
    }
    case Op::kCast:
      return "(" + RenderTypeSpec(n.type_spec) + ")" + Operand(*n.kids[0], kPrecUnary);
    case Op::kSizeofType:
      return "sizeof(" + RenderTypeSpec(n.type_spec) + ")";
    case Op::kSizeofExpr:
      return "sizeof " + Operand(*n.kids[0], kPrecUnary);
    case Op::kDecl: {
      std::vector<std::string> parts;
      for (const DeclItem& d : n.decls) {
        // Re-render as "type name" per declarator (splitting shared bases).
        std::string t = d.type.ToString();
        // "int *" + name / "int" + name + dims: ToString already folds dims.
        size_t bracket = t.find('[');
        if (bracket == std::string::npos) {
          parts.push_back(t + " " + d.name);
        } else {
          std::string base = t.substr(0, bracket);
          if (!base.empty() && base.back() != ' ' && base.back() != '*') {
            base += ' ';
          }
          parts.push_back(base + d.name + t.substr(bracket));
        }
      }
      return Join(parts, "; ");
    }
    case Op::kNeg:
      return "-" + Operand(*n.kids[0], kPrecUnary);
    case Op::kPos:
      return "+" + Operand(*n.kids[0], kPrecUnary);
    case Op::kBitNot:
      return "~" + Operand(*n.kids[0], kPrecUnary);
    case Op::kNot:
      return "!" + Operand(*n.kids[0], kPrecUnary);
    case Op::kDeref:
      return "*" + Operand(*n.kids[0], kPrecUnary);
    case Op::kAddrOf:
      return "&" + Operand(*n.kids[0], kPrecUnary);
    case Op::kPreInc:
      return "++" + Operand(*n.kids[0], kPrecUnary);
    case Op::kPreDec:
      return "--" + Operand(*n.kids[0], kPrecUnary);
    case Op::kPostInc:
      return Operand(*n.kids[0], kPrecPostfix) + "++";
    case Op::kPostDec:
      return Operand(*n.kids[0], kPrecPostfix) + "--";
    default: {
      // Remaining binary operators (arithmetic, comparisons, filters, ===).
      const char* text = BinOpText(n.op);
      int prec = BinOpPrec(n.op);
      std::string spaced = std::string(" ") + text + " ";
      return RenderBinary(n, spaced.c_str(), prec);
    }
  }
}

}  // namespace

std::string FormatAst(const Node& n) { return Render(n); }

}  // namespace duel
