// Parser tests: golden AST dumps in the paper's LISP-like notation, plus
// precedence and error behaviour.

#include "src/duel/parser.h"

#include <gtest/gtest.h>

namespace duel {
namespace {

std::string Dump(const std::string& expr,
                 Parser::TypeNamePredicate is_type = {}) {
  Parser p(expr, std::move(is_type));
  return DumpAst(*p.Parse().root);
}

TEST(ParserTest, PaperAstExample) {
  // The paper: a*5 + *b  =>  (plus (multiply (name "a") (constant 5))
  //                                (indirect (name "b")))
  EXPECT_EQ(Dump("a*5 + *b"),
            "(plus (multiply (name \"a\") (constant 5)) (indirect (name \"b\")))");
}

TEST(ParserTest, RangeBindsBelowAdditive) {
  // "..e is shorthand for 0..e-1" implies e-1 binds tighter than "..".
  EXPECT_EQ(Dump("1..100+i"),
            "(to (constant 1) (plus (constant 100) (name \"i\")))");
  EXPECT_EQ(Dump("..1024"), "(to-prefix (constant 1024))");
  EXPECT_EQ(Dump("5.."), "(to-open (constant 5))");
}

TEST(ParserTest, RangeBindsAboveRelational) {
  EXPECT_EQ(Dump("x[..4] >? 5"),
            "(ifgt (index (name \"x\") (to-prefix (constant 4))) (constant 5))");
}

TEST(ParserTest, AlternationInsideIndex) {
  EXPECT_EQ(Dump("x[1..4,8]"),
            "(index (name \"x\") (alternate (to (constant 1) (constant 4)) (constant 8)))");
}

TEST(ParserTest, FilterChainsLeftAssociative) {
  EXPECT_EQ(Dump("a >? 5 <? 10"),
            "(iflt (ifgt (name \"a\") (constant 5)) (constant 10))");
}

TEST(ParserTest, ImplyDefineSequenceLayering) {
  EXPECT_EQ(Dump("x := a => y := b => y = 0"),
            "(imply (imply (define \"x\" (name \"a\")) (define \"y\" (name \"b\"))) "
            "(assign (name \"y\") (constant 0)))");
  EXPECT_EQ(Dump("i := 1..3; i + 4"),
            "(sequence (define \"i\" (to (constant 1) (constant 3))) "
            "(plus (name \"i\") (constant 4)))");
}

TEST(ParserTest, TrailingSemicolonBecomesDiscard) {
  EXPECT_EQ(Dump("a = 0 ;"), "(discard (assign (name \"a\") (constant 0)))");
}

TEST(ParserTest, WithOperandForms) {
  EXPECT_EQ(Dump("p->name"), "(arrow-with (name \"p\") (name \"name\"))");
  EXPECT_EQ(Dump("s.f"), "(with (name \"s\") (name \"f\"))");
  EXPECT_EQ(Dump("p->(a,b)"),
            "(arrow-with (name \"p\") (alternate (name \"a\") (name \"b\")))");
  EXPECT_EQ(Dump("p->_"), "(arrow-with (name \"p\") (underscore))");
  // Unparenthesized if after -> (from the sortedness example).
  EXPECT_EQ(Dump("p->if (a) b"),
            "(arrow-with (name \"p\") (if (name \"a\") (name \"b\")))");
}

TEST(ParserTest, ExpansionOperators) {
  EXPECT_EQ(Dump("head-->next"), "(dfs (name \"head\") (name \"next\"))");
  EXPECT_EQ(Dump("root-->(left,right)->key"),
            "(arrow-with (dfs (name \"root\") (alternate (name \"left\") (name \"right\"))) "
            "(name \"key\"))");
  EXPECT_EQ(Dump("root-->>next"), "(bfs (name \"root\") (name \"next\"))");
}

TEST(ParserTest, SelectAndNestedBrackets) {
  EXPECT_EQ(Dump("e[[2]]"), "(select (name \"e\") (constant 2))");
  // "]]]" must close an inner select then an index, and vice versa.
  EXPECT_EQ(Dump("x[a[[b]]]"),
            "(index (name \"x\") (select (name \"a\") (name \"b\")))");
  EXPECT_EQ(Dump("x[[a[b]]]"),
            "(select (name \"x\") (index (name \"a\") (name \"b\")))");
}

TEST(ParserTest, UntilAndIndexAlias) {
  EXPECT_EQ(Dump("argv[0..]@0"),
            "(until (index (name \"argv\") (to-open (constant 0))) (constant 0))");
  EXPECT_EQ(Dump("L-->next#i"), "(index-alias \"i\" (dfs (name \"L\") (name \"next\")))");
}

TEST(ParserTest, Reductions) {
  EXPECT_EQ(Dump("#/e"), "(count (name \"e\"))");
  EXPECT_EQ(Dump("+/(1..3)"), "(sum (to (constant 1) (constant 3)))");
  EXPECT_EQ(Dump("&&/x"), "(all (name \"x\"))");
  EXPECT_EQ(Dump("||/x"), "(any (name \"x\"))");
  EXPECT_EQ(Dump("a === b"), "(equality (name \"a\") (name \"b\"))");
}

TEST(ParserTest, ControlExpressions) {
  EXPECT_EQ(Dump("if (a) b else c"), "(if (name \"a\") (name \"b\") (name \"c\"))");
  EXPECT_EQ(Dump("while (a) b"), "(while (name \"a\") (name \"b\"))");
  EXPECT_EQ(Dump("for (i = 0; i < 9; i++) x"),
            "(for (assign (name \"i\") (constant 0)) (lt (name \"i\") (constant 9)) "
            "(postinc (name \"i\")) (name \"x\"))");
}

TEST(ParserTest, IfBindsGreedilyAsOperand) {
  // 4 + if (c) i*5  ==  4 + (if (c) (i*5))
  EXPECT_EQ(Dump("4 + if (c) i*5"),
            "(plus (constant 4) (if (name \"c\") (multiply (name \"i\") (constant 5))))");
}

TEST(ParserTest, CastsAndSizeof) {
  EXPECT_EQ(Dump("(double)3/2"),
            "(divide (cast \"double\" (constant 3)) (constant 2))");
  EXPECT_EQ(Dump("(struct symbol *)p"), "(cast \"struct symbol *\" (name \"p\"))");
  EXPECT_EQ(Dump("sizeof(int)"), "(sizeof-type \"int\")");
  EXPECT_EQ(Dump("sizeof x"), "(sizeof (name \"x\"))");
  EXPECT_EQ(Dump("sizeof(x)"), "(sizeof (name \"x\"))");
}

TEST(ParserTest, TypedefNamesNeedThePredicate) {
  auto is_type = [](const std::string& s) { return s == "List"; };
  EXPECT_EQ(Dump("(List *)p", is_type), "(cast \"List *\" (name \"p\"))");
  // Without the predicate, (List *) p is a parse error (List*p is a product).
  EXPECT_EQ(Dump("List * p"), "(multiply (name \"List\") (name \"p\"))");
}

TEST(ParserTest, Declarations) {
  EXPECT_EQ(Dump("int i; i"),
            "(sequence (decl (int \"i\")) (name \"i\"))");
  EXPECT_EQ(Dump("int i, *p, a[10]; i"),
            "(sequence (decl (int \"i\") (int * \"p\") (int[10] \"a\")) (name \"i\"))");
  EXPECT_EQ(Dump("struct symbol *s; s"),
            "(sequence (decl (struct symbol * \"s\")) (name \"s\"))");
}

TEST(ParserTest, CallsSeparateArgumentsAtImplyLevel) {
  EXPECT_EQ(Dump("f((3,4), 5..7)"),
            "(call (name \"f\") (alternate (constant 3) (constant 4)) "
            "(to (constant 5) (constant 7)))");
}

TEST(ParserTest, BraceDisplayOverride) {
  EXPECT_EQ(Dump("{i}*5"), "(multiply (brace (name \"i\")) (constant 5))");
}

TEST(ParserTest, Ternary) {
  EXPECT_EQ(Dump("a ? b : c"), "(cond (name \"a\") (name \"b\") (name \"c\"))");
}

TEST(ParserTest, Errors) {
  EXPECT_THROW(Dump(""), DuelError);
  EXPECT_THROW(Dump("1 +"), DuelError);
  EXPECT_THROW(Dump("(1"), DuelError);
  EXPECT_THROW(Dump("x["), DuelError);
  EXPECT_THROW(Dump("5 := x"), DuelError);  // := needs a name
  EXPECT_THROW(Dump("x->5"), DuelError);    // bad with-operand
  EXPECT_THROW(Dump("a b"), DuelError);     // trailing junk
}

TEST(ParserTest, DeepNestingIsAnErrorNotACrash) {
  std::string deep(20000, '(');
  deep += "1";
  deep += std::string(20000, ')');
  try {
    Dump(deep);
    FAIL() << "expected a depth error";
  } catch (const DuelError& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"), std::string::npos);
  }
  // Moderate nesting still parses.
  for (size_t levels : {100, 120}) {
    std::string ok(levels, '(');
    ok += "1";
    ok += std::string(levels, ')');
    EXPECT_EQ(Dump(ok), "(constant 1)") << levels;
  }
}

TEST(ParserTest, NodeIdsAreDense) {
  Parser p("1 + 2 * 3");
  ParseResult r = p.Parse();
  EXPECT_EQ(r.num_nodes, 5);
}

}  // namespace
}  // namespace duel
