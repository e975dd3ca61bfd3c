// Recursive-descent parser for the DUEL concrete syntax (the original used
// yacc; the grammar is the same superset of C described in the paper).
//
// Precedence, loosest to tightest:
//   ;   (sequence / trailing discard)
//   ,   (alternate)
//   =>  (imply)
//   = := op= ?:            (right-assoc)
//   || | && | '|' ^ &      (C levels)
//   == != ==? !=? ===
//   < > <= >= <? >? <=? >=?
//   ..  (x..y, x.., ..y)
//   << >>
//   + - | * / %
//   unary (! ~ - + * & ++ -- sizeof casts  #/ +/ &&/ ||/)
//   postfix ([] [[]] () . -> --> -->> @primary #name ++ --)
//
// Declarations (`int i; ...`) are allowed at the start of the input and
// after any ';'.
//
// Operators are found by token in the operator table (ast.h): an infix
// operator's row gives its level, so the grammar above and the symbolic
// printer's parenthesization read the same precedences.

#ifndef DUEL_DUEL_PARSER_H_
#define DUEL_DUEL_PARSER_H_

#include <functional>
#include <string_view>

#include "src/duel/ast.h"
#include "src/duel/token.h"

namespace duel {

struct ParseResult {
  NodePtr root;
  int num_nodes = 0;  // node ids are 0..num_nodes-1
};

class Parser {
 public:
  // `is_type_name` tells the parser whether an identifier names a target
  // typedef (needed to recognize casts and declarations); may be empty.
  using TypeNamePredicate = std::function<bool(const std::string&)>;

  explicit Parser(std::string_view input, TypeNamePredicate is_type_name = {});

  // Parses a pre-lexed token stream (must end with the lexer's kEnd token).
  // The staged pipeline uses this to time lexing separately from parsing
  // (see Session::BuildPlan).
  explicit Parser(std::vector<Token> tokens, TypeNamePredicate is_type_name = {});

  // Parses the whole input. Throws DuelError(kParse / kLex).
  ParseResult Parse();

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t n) const;
  void Advance();
  bool At(Tok t) const { return Cur().kind == t; }
  bool Accept(Tok t);
  void Expect(Tok t);
  [[noreturn]] void Fail(const std::string& message) const;

  NodePtr NewNode(Op op, SourceRange range);
  NodePtr NewNode(Op op) { return NewNode(op, Cur().range); }

  // Extends `r` to the end of the last consumed token. Nodes whose extent is
  // closed by punctuation that never becomes a kid (')', ']', a declarator,
  // an alias name) use this right after consuming it, so diagnostics can
  // underline the full construct; everything kid-shaped is handled by the
  // WidenRanges pass at the end of Parse().
  SourceRange ExtendToPrev(SourceRange r) const {
    return Cover(r, tokens_[pos_ > 0 ? pos_ - 1 : 0].range);
  }

  bool StartsExpr(Tok t) const;
  bool AtTypeName() const;       // current token begins a type-name
  bool AtDeclStart() const;      // current tokens begin a declaration

  NodePtr ParseTop();
  NodePtr ParseSequence();
  NodePtr ParseAlternate();
  NodePtr ParseImply();
  NodePtr ParseAssign();
  NodePtr ParseTernary();
  NodePtr ParseBinaryLevel(int prec);  // one infix level, kPrecOrOr..kPrecMul
  NodePtr ParseRange();
  NodePtr ParseUnary();
  NodePtr ParsePostfix();
  NodePtr ParsePrimary();
  NodePtr ParseWithOperand();
  NodePtr ParseIfExpr();

  TypeSpec ParseTypeSpecBase();  // base type without declarator
  TypeSpec ParseCastTypeName();  // base + '*'s (abstract declarator)
  NodePtr ParseDecl();

  // Guards against stack overflow on pathologically nested input.
  struct DepthGuard {
    explicit DepthGuard(Parser* p);
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  std::string_view input_;
  TypeNamePredicate is_type_name_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int next_id_ = 0;
  int depth_ = 0;

  // ~130 paren levels (each costs ~15 frames). Sized so the deepest accepted
  // query fits an 8 MiB stack even with AddressSanitizer's larger frames.
  static constexpr int kMaxDepth = 2000;
};

}  // namespace duel

#endif  // DUEL_DUEL_PARSER_H_
