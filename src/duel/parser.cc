#include "src/duel/parser.h"

#include "src/duel/lexer.h"
#include "src/support/strings.h"

namespace duel {

namespace {

// Bottom-up pass growing every node's range over its kids, so an operator
// node spans its whole subexpression (NewNode gives it only the operator
// token). Diagnostics rely on this to underline operands, not just sigils.
void WidenRanges(Node& n) {
  for (const NodePtr& k : n.kids) {
    WidenRanges(*k);
    n.range = Cover(n.range, k->range);
  }
}

}  // namespace

Parser::Parser(std::string_view input, TypeNamePredicate is_type_name)
    : input_(input), is_type_name_(std::move(is_type_name)) {
  tokens_ = Lexer(input).LexAll();
}

Parser::Parser(std::vector<Token> tokens, TypeNamePredicate is_type_name)
    : is_type_name_(std::move(is_type_name)) {
  tokens_ = std::move(tokens);
}

const Token& Parser::Ahead(size_t n) const {
  size_t i = pos_ + n;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

void Parser::Advance() {
  if (pos_ + 1 < tokens_.size()) {
    ++pos_;
  }
}

bool Parser::Accept(Tok t) {
  if (At(t)) {
    Advance();
    return true;
  }
  return false;
}

void Parser::Expect(Tok t) {
  if (!Accept(t)) {
    Fail(StrPrintf("expected '%s', got '%s'", TokName(t), TokName(Cur().kind)));
  }
}

void Parser::Fail(const std::string& message) const {
  throw DuelError(ErrorKind::kParse, message, Cur().range);
}

Parser::DepthGuard::DepthGuard(Parser* p) : parser(p) {
  if (++parser->depth_ > kMaxDepth) {
    --parser->depth_;
    parser->Fail("expression nested too deeply");
  }
}

NodePtr Parser::NewNode(Op op, SourceRange range) {
  auto n = std::make_unique<Node>(op, range);
  n->id = next_id_++;
  return n;
}

ParseResult Parser::Parse() {
  NodePtr root = ParseTop();
  if (!At(Tok::kEnd)) {
    Fail(StrPrintf("unexpected '%s'", TokName(Cur().kind)));
  }
  WidenRanges(*root);
  ParseResult r;
  r.root = std::move(root);
  r.num_nodes = next_id_;
  return r;
}

bool Parser::StartsExpr(Tok t) const {
  switch (t) {
    case Tok::kIdent:
    case Tok::kIntLit:
    case Tok::kFloatLit:
    case Tok::kCharLit:
    case Tok::kStringLit:
    case Tok::kUnderscore:
    case Tok::kLParen:
    case Tok::kLBrace:
    case Tok::kKwIf:
    case Tok::kKwWhile:
    case Tok::kKwFor:
    case Tok::kDotDot:
      return true;
    default:
      return PrefixOp(t).has_value();
  }
}

bool Parser::AtTypeName() const {
  switch (Cur().kind) {
    case Tok::kKwStruct:
    case Tok::kKwUnion:
    case Tok::kKwEnum:
    case Tok::kKwInt:
    case Tok::kKwChar:
    case Tok::kKwLong:
    case Tok::kKwShort:
    case Tok::kKwUnsigned:
    case Tok::kKwSigned:
    case Tok::kKwFloat:
    case Tok::kKwDouble:
    case Tok::kKwVoid:
      return true;
    case Tok::kIdent:
      return is_type_name_ && is_type_name_(Cur().text);
    default:
      return false;
  }
}

bool Parser::AtDeclStart() const {
  if (!AtTypeName()) {
    return false;
  }
  // A typedef-name is a declaration start only when a declarator shape
  // follows (`foo x`, `foo *x`); bare `foo + 1` is an expression.
  if (Cur().kind == Tok::kIdent) {
    size_t i = 1;
    while (Ahead(i).kind == Tok::kStar) {
      ++i;
    }
    return Ahead(i).kind == Tok::kIdent;
  }
  return true;
}

NodePtr Parser::ParseTop() {
  if (At(Tok::kEnd)) {
    Fail("empty expression");
  }
  return ParseSequence();
}

NodePtr Parser::ParseSequence() {
  NodePtr left = AtDeclStart() ? ParseDecl() : ParseAlternate();
  while (At(Tok::kSemi)) {
    SourceRange r = Cur().range;
    Advance();
    if (AtDeclStart() || StartsExpr(Cur().kind)) {
      NodePtr right = AtDeclStart() ? ParseDecl() : ParseAlternate();
      NodePtr n = NewNode(Op::kSequence, r);
      n->kids.push_back(std::move(left));
      n->kids.push_back(std::move(right));
      left = std::move(n);
    } else {
      // Trailing ';': evaluate for side effects, print nothing.
      NodePtr n = NewNode(Op::kDiscard, r);
      n->kids.push_back(std::move(left));
      left = std::move(n);
      break;
    }
  }
  return left;
}

NodePtr Parser::ParseAlternate() {
  DepthGuard guard(this);
  NodePtr left = ParseImply();
  while (At(Tok::kComma)) {
    SourceRange r = Cur().range;
    Advance();
    NodePtr right = ParseImply();
    NodePtr n = NewNode(Op::kAlternate, r);
    n->kids.push_back(std::move(left));
    n->kids.push_back(std::move(right));
    left = std::move(n);
  }
  return left;
}

NodePtr Parser::ParseImply() {
  NodePtr left = ParseAssign();
  while (At(Tok::kImply)) {
    SourceRange r = Cur().range;
    Advance();
    NodePtr right = ParseAssign();
    NodePtr n = NewNode(Op::kImply, r);
    n->kids.push_back(std::move(left));
    n->kids.push_back(std::move(right));
    left = std::move(n);
  }
  return left;
}

NodePtr Parser::ParseAssign() {
  NodePtr left = ParseTernary();
  std::optional<Op> assign = AssignOp(Cur().kind);
  if (!assign) {
    return left;
  }
  Op op = *assign;
  SourceRange r = Cur().range;
  Advance();
  NodePtr right = ParseAssign();  // right-associative
  if (op == Op::kDefine) {
    if (left->op != Op::kName) {
      Fail("the left operand of ':=' must be a name");
    }
    NodePtr n = NewNode(Op::kDefine, r);
    n->text = left->text;
    n->range = Cover(left->range, r);  // the name node is dropped; keep its span
    n->kids.push_back(std::move(right));
    return n;
  }
  NodePtr n = NewNode(op, r);
  n->kids.push_back(std::move(left));
  n->kids.push_back(std::move(right));
  return n;
}

NodePtr Parser::ParseTernary() {
  NodePtr cond = ParseBinaryLevel(kPrecOrOr);
  if (!At(Tok::kQuestion)) {
    return cond;
  }
  SourceRange r = Cur().range;
  Advance();
  NodePtr t = ParseAssign();
  Expect(Tok::kColon);
  NodePtr f = ParseTernary();
  NodePtr n = NewNode(Op::kCond, r);
  n->kids.push_back(std::move(cond));
  n->kids.push_back(std::move(t));
  n->kids.push_back(std::move(f));
  return n;
}

NodePtr Parser::ParseBinaryLevel(int prec) {
  DepthGuard guard(this);
  auto parse_operand = [&]() -> NodePtr {
    if (prec == kPrecRel) {
      return ParseRange();  // the range level sits just below relational
    }
    if (prec == kPrecMul) {
      return ParseUnary();  // the tightest binary level's operands are unary
    }
    return ParseBinaryLevel(prec + 1);
  };
  NodePtr left = parse_operand();
  for (;;) {
    std::optional<Op> op = InfixOp(Cur().kind);
    if (!op || Info(*op).prec != prec) {
      return left;
    }
    SourceRange r = Cur().range;
    Advance();
    NodePtr right = parse_operand();
    NodePtr n = NewNode(*op, r);
    n->kids.push_back(std::move(left));
    n->kids.push_back(std::move(right));
    left = std::move(n);
  }
}

NodePtr Parser::ParseRange() {
  if (At(Tok::kDotDot)) {  // ..e  ==  0 .. e-1
    SourceRange r = Cur().range;
    Advance();
    NodePtr operand = ParseBinaryLevel(kPrecShift);
    NodePtr n = NewNode(Op::kToPrefix, r);
    n->kids.push_back(std::move(operand));
    return n;
  }
  NodePtr left = ParseBinaryLevel(kPrecShift);
  if (!At(Tok::kDotDot)) {
    return left;
  }
  SourceRange r = Cur().range;
  Advance();
  if (StartsExpr(Cur().kind)) {
    NodePtr right = ParseBinaryLevel(kPrecShift);
    NodePtr n = NewNode(Op::kTo, r);
    n->kids.push_back(std::move(left));
    n->kids.push_back(std::move(right));
    return n;
  }
  NodePtr n = NewNode(Op::kToOpen, r);  // e.. : unbounded
  n->kids.push_back(std::move(left));
  return n;
}

NodePtr Parser::ParseUnary() {
  DepthGuard guard(this);
  SourceRange r = Cur().range;
  switch (Cur().kind) {
    case Tok::kKwSizeof: {
      Advance();
      if (At(Tok::kLParen)) {
        // Could be sizeof(type) or sizeof(expr): decide by lookahead.
        size_t save = pos_;
        Advance();
        if (AtTypeName()) {
          TypeSpec spec = ParseCastTypeName();
          Expect(Tok::kRParen);
          NodePtr n = NewNode(Op::kSizeofType, ExtendToPrev(r));
          n->type_spec = std::move(spec);
          return n;
        }
        pos_ = save;
      }
      NodePtr operand = ParseUnary();
      NodePtr n = NewNode(Op::kSizeofExpr, r);
      n->kids.push_back(std::move(operand));
      return n;
    }
    case Tok::kLParen: {
      // Cast if a type-name follows the '('.
      size_t save = pos_;
      Advance();
      if (AtTypeName()) {
        TypeSpec spec = ParseCastTypeName();
        if (At(Tok::kRParen)) {
          Advance();
          NodePtr operand = ParseUnary();
          NodePtr n = NewNode(Op::kCast, r);
          n->type_spec = std::move(spec);
          n->kids.push_back(std::move(operand));
          return n;
        }
      }
      pos_ = save;
      return ParsePostfix();
    }
    default:
      break;
  }
  if (std::optional<Op> op = PrefixOp(Cur().kind)) {
    Advance();
    NodePtr operand = ParseUnary();
    NodePtr n = NewNode(*op, r);
    n->kids.push_back(std::move(operand));
    return n;
  }
  return ParsePostfix();
}

NodePtr Parser::ParsePostfix() {
  NodePtr left = ParsePrimary();
  for (;;) {
    SourceRange r = Cur().range;
    switch (Cur().kind) {
      case Tok::kLBracket: {
        Advance();
        NodePtr idx = ParseAlternate();
        Expect(Tok::kRBracket);
        NodePtr n = NewNode(Op::kIndex, ExtendToPrev(r));
        n->kids.push_back(std::move(left));
        n->kids.push_back(std::move(idx));
        left = std::move(n);
        break;
      }
      case Tok::kLSelect: {
        Advance();
        NodePtr idx = ParseAlternate();
        Expect(Tok::kRBracket);  // ']]' is two ']' tokens (see lexer)
        Expect(Tok::kRBracket);
        NodePtr n = NewNode(Op::kSelect, ExtendToPrev(r));
        n->kids.push_back(std::move(left));
        n->kids.push_back(std::move(idx));
        left = std::move(n);
        break;
      }
      case Tok::kLParen: {
        Advance();
        NodePtr n = NewNode(Op::kCall, r);
        n->kids.push_back(std::move(left));
        if (!At(Tok::kRParen)) {
          do {
            n->kids.push_back(ParseImply());
          } while (Accept(Tok::kComma));
        }
        Expect(Tok::kRParen);
        n->range = ExtendToPrev(r);
        left = std::move(n);
        break;
      }
      case Tok::kDot:
      case Tok::kArrow:
      case Tok::kExpand:
      case Tok::kExpandBfs: {
        Op op = *PostfixOp(Cur().kind);
        Advance();
        NodePtr member = ParseWithOperand();
        NodePtr n = NewNode(op, r);
        n->kids.push_back(std::move(left));
        n->kids.push_back(std::move(member));
        left = std::move(n);
        break;
      }
      case Tok::kAt: {
        Advance();
        // The until-operand is a primary (optionally negated) so that a
        // postfix chain can continue after it: e@(pred)->field.
        NodePtr pred;
        if (At(Tok::kMinus)) {
          SourceRange nr = Cur().range;
          Advance();
          NodePtr operand = ParsePrimary();
          pred = NewNode(Op::kNeg, nr);
          pred->kids.push_back(std::move(operand));
        } else {
          pred = ParsePrimary();
        }
        NodePtr n = NewNode(Op::kUntil, r);
        n->kids.push_back(std::move(left));
        n->kids.push_back(std::move(pred));
        left = std::move(n);
        break;
      }
      case Tok::kHash: {
        Advance();
        if (!At(Tok::kIdent)) {
          Fail("expected an alias name after '#'");
        }
        NodePtr n = NewNode(Op::kIndexAlias, r);
        n->text = Cur().text;
        Advance();
        n->range = ExtendToPrev(r);  // cover the alias name
        n->kids.push_back(std::move(left));
        left = std::move(n);
        break;
      }
      case Tok::kInc:
      case Tok::kDec: {
        Op op = *PostfixOp(Cur().kind);
        Advance();
        NodePtr n = NewNode(op, r);
        n->kids.push_back(std::move(left));
        left = std::move(n);
        break;
      }
      default:
        return left;
    }
  }
}

NodePtr Parser::ParseWithOperand() {
  SourceRange r = Cur().range;
  switch (Cur().kind) {
    case Tok::kIdent: {
      NodePtr n = NewNode(Op::kName, r);
      n->text = Cur().text;
      Advance();
      return n;
    }
    case Tok::kUnderscore: {
      Advance();
      return NewNode(Op::kUnderscore, r);
    }
    case Tok::kLParen: {
      Advance();
      NodePtr e = ParseSequence();
      Expect(Tok::kRParen);
      return e;
    }
    case Tok::kLBrace: {
      Advance();
      NodePtr e = ParseSequence();
      Expect(Tok::kRBrace);
      NodePtr n = NewNode(Op::kBrace, ExtendToPrev(r));
      n->kids.push_back(std::move(e));
      return n;
    }
    case Tok::kKwIf:
      return ParseIfExpr();
    default:
      Fail("expected a member name, '_', '(...)' or 'if' after '.', '->' or '-->'");
  }
}

NodePtr Parser::ParseIfExpr() {
  SourceRange r = Cur().range;
  Expect(Tok::kKwIf);
  Expect(Tok::kLParen);
  NodePtr cond = ParseSequence();
  Expect(Tok::kRParen);
  NodePtr then = ParseAssign();
  NodePtr n = NewNode(Op::kIf, r);
  n->kids.push_back(std::move(cond));
  n->kids.push_back(std::move(then));
  if (Accept(Tok::kKwElse)) {
    n->kids.push_back(ParseAssign());
  }
  return n;
}

NodePtr Parser::ParsePrimary() {
  DepthGuard guard(this);
  SourceRange r = Cur().range;
  switch (Cur().kind) {
    case Tok::kIntLit: {
      NodePtr n = NewNode(Op::kIntConst, r);
      n->int_value = Cur().int_value;
      n->is_unsigned = Cur().is_unsigned;
      n->is_long = Cur().is_long;
      Advance();
      return n;
    }
    case Tok::kFloatLit: {
      NodePtr n = NewNode(Op::kFloatConst, r);
      n->float_value = Cur().float_value;
      Advance();
      return n;
    }
    case Tok::kCharLit: {
      NodePtr n = NewNode(Op::kCharConst, r);
      n->int_value = Cur().int_value;
      Advance();
      return n;
    }
    case Tok::kStringLit: {
      NodePtr n = NewNode(Op::kStringConst, r);
      n->text = Cur().text;
      Advance();
      return n;
    }
    case Tok::kIdent: {
      NodePtr n = NewNode(Op::kName, r);
      n->text = Cur().text;
      Advance();
      return n;
    }
    case Tok::kUnderscore:
      Advance();
      return NewNode(Op::kUnderscore, r);
    case Tok::kLParen: {
      Advance();
      NodePtr e = ParseSequence();
      Expect(Tok::kRParen);
      return e;
    }
    case Tok::kLBrace: {
      Advance();
      NodePtr e = ParseSequence();
      Expect(Tok::kRBrace);
      NodePtr n = NewNode(Op::kBrace, ExtendToPrev(r));
      n->kids.push_back(std::move(e));
      return n;
    }
    case Tok::kKwIf:
      return ParseIfExpr();
    case Tok::kKwWhile: {
      Advance();
      Expect(Tok::kLParen);
      NodePtr cond = ParseSequence();
      Expect(Tok::kRParen);
      NodePtr body = ParseAssign();
      NodePtr n = NewNode(Op::kWhile, r);
      n->kids.push_back(std::move(cond));
      n->kids.push_back(std::move(body));
      return n;
    }
    case Tok::kKwFor: {
      Advance();
      Expect(Tok::kLParen);
      auto clause = [&](Tok terminator) -> NodePtr {
        if (At(terminator)) {
          // Empty clause: a constant that has no effect (cond: always true).
          NodePtr c = NewNode(Op::kIntConst, Cur().range);
          c->int_value = 1;
          return c;
        }
        return ParseAlternate();
      };
      NodePtr init = clause(Tok::kSemi);
      Expect(Tok::kSemi);
      NodePtr cond = clause(Tok::kSemi);
      Expect(Tok::kSemi);
      NodePtr step = clause(Tok::kRParen);
      Expect(Tok::kRParen);
      NodePtr body = ParseAssign();
      NodePtr n = NewNode(Op::kFor, r);
      n->kids.push_back(std::move(init));
      n->kids.push_back(std::move(cond));
      n->kids.push_back(std::move(step));
      n->kids.push_back(std::move(body));
      return n;
    }
    default:
      Fail(StrPrintf("unexpected '%s'", TokName(Cur().kind)));
  }
}

TypeSpec Parser::ParseTypeSpecBase() {
  TypeSpec spec;
  switch (Cur().kind) {
    case Tok::kKwStruct:
    case Tok::kKwUnion:
    case Tok::kKwEnum: {
      spec.base = Cur().kind == Tok::kKwStruct  ? TypeSpec::Base::kStruct
                  : Cur().kind == Tok::kKwUnion ? TypeSpec::Base::kUnion
                                                : TypeSpec::Base::kEnum;
      Advance();
      if (!At(Tok::kIdent)) {
        Fail("expected a tag name");
      }
      spec.tag = Cur().text;
      Advance();
      return spec;
    }
    case Tok::kIdent:
      spec.base = TypeSpec::Base::kTypedef;
      spec.tag = Cur().text;
      Advance();
      return spec;
    default:
      break;
  }
  // Combinations of: void, char, short, int, long (x2), float, double,
  // signed, unsigned.
  bool is_unsigned = false, is_signed = false, saw_char = false, saw_short = false;
  bool saw_int = false, saw_float = false, saw_double = false, saw_void = false;
  int longs = 0;
  bool any = false;
  for (;;) {
    switch (Cur().kind) {
      case Tok::kKwUnsigned: is_unsigned = true; break;
      case Tok::kKwSigned: is_signed = true; break;
      case Tok::kKwChar: saw_char = true; break;
      case Tok::kKwShort: saw_short = true; break;
      case Tok::kKwInt: saw_int = true; break;
      case Tok::kKwLong: longs++; break;
      case Tok::kKwFloat: saw_float = true; break;
      case Tok::kKwDouble: saw_double = true; break;
      case Tok::kKwVoid: saw_void = true; break;
      default:
        if (!any) {
          Fail("expected a type name");
        }
        goto done;
    }
    any = true;
    Advance();
  }
done:
  (void)is_signed;
  if (saw_void) {
    spec.base = TypeSpec::Base::kVoid;
  } else if (saw_float) {
    spec.base = TypeSpec::Base::kFloat;
  } else if (saw_double) {
    spec.base = TypeSpec::Base::kDouble;
  } else if (saw_char) {
    spec.base = is_unsigned  ? TypeSpec::Base::kUChar
                : is_signed  ? TypeSpec::Base::kSChar
                             : TypeSpec::Base::kChar;
  } else if (saw_short) {
    spec.base = is_unsigned ? TypeSpec::Base::kUShort : TypeSpec::Base::kShort;
  } else if (longs >= 2) {
    spec.base = is_unsigned ? TypeSpec::Base::kULongLong : TypeSpec::Base::kLongLong;
  } else if (longs == 1) {
    spec.base = is_unsigned ? TypeSpec::Base::kULong : TypeSpec::Base::kLong;
  } else {
    (void)saw_int;
    spec.base = is_unsigned ? TypeSpec::Base::kUInt : TypeSpec::Base::kInt;
  }
  return spec;
}

TypeSpec Parser::ParseCastTypeName() {
  TypeSpec spec = ParseTypeSpecBase();
  while (Accept(Tok::kStar)) {
    spec.pointer_depth++;
  }
  return spec;
}

NodePtr Parser::ParseDecl() {
  SourceRange r = Cur().range;
  TypeSpec base = ParseTypeSpecBase();
  NodePtr n = NewNode(Op::kDecl, r);
  do {
    DeclItem item;
    item.type = base;
    while (Accept(Tok::kStar)) {
      item.type.pointer_depth++;
    }
    if (!At(Tok::kIdent)) {
      Fail("expected a declarator name");
    }
    item.name = Cur().text;
    Advance();
    while (At(Tok::kLBracket)) {
      Advance();
      if (!At(Tok::kIntLit)) {
        Fail("expected an array dimension");
      }
      item.type.array_dims.push_back(static_cast<size_t>(Cur().int_value));
      Advance();
      Expect(Tok::kRBracket);
    }
    n->decls.push_back(std::move(item));
  } while (Accept(Tok::kComma));
  n->range = ExtendToPrev(r);
  return n;
}

}  // namespace duel
