// Abstract syntax trees for DUEL expressions.
//
// Node kinds mirror the paper's abstract operators: generators (to,
// alternate, filters), sequence manipulators (select, until, index-alias,
// reductions), scope operators (with/dfs), control expressions (if/for/
// while), aliases, and all of C's operators. The paper specifies ASTs in a
// LISP-like notation — DumpAst() renders exactly that, and the parser tests
// golden-match it.
//
// Every fact about an operator lives in one row of the operator table
// (Info(op)): its DumpAst name, its DUEL spelling and source token, its
// precedence, its evaluation family and its base operator. The parser, the
// symbolic-value composers (value.h), the typing rules (apply.h) and the
// engine's dispatch all read that row; none keeps its own list.

#ifndef DUEL_DUEL_AST_H_
#define DUEL_DUEL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/duel/token.h"
#include "src/support/error.h"
#include "src/target/ctype.h"

namespace duel {

enum class Op {
  // Primaries.
  kIntConst,
  kFloatConst,
  kCharConst,
  kStringConst,
  kName,
  kUnderscore,  // `_`: the value of the innermost `with`
  kBrace,       // {e}: display override (symbolic becomes the value)

  // DUEL generators and sequence operators.
  kTo,          // e1..e2
  kToOpen,      // e1..      (unbounded)
  kToPrefix,    // ..e       (0..e-1)
  kAlternate,   // e1,e2
  kIfGt,        // e1 >? e2  (filter comparisons)
  kIfLt,
  kIfGe,
  kIfLe,
  kIfEq,
  kIfNe,
  kSeqEq,       // e1 === e2 (sequence equality; the paper's abstract `equality`)
  kImply,       // e1 => e2
  kSequence,    // e1 ; e2
  kDiscard,     // e ;       (evaluate for side effects only)
  kDefine,      // a := e    (text = alias name)
  kWith,        // e1 . e2
  kArrowWith,   // e1 -> e2
  kDfs,         // e1 --> e2
  kBfs,         // e1 -->> e2 (extension)
  kSelect,      // e1[[e2]]  (kids[0] = sequence, kids[1] = indices)
  kCount,       // #/e
  kSum,         // +/e
  kAll,         // &&/e
  kAny,         // ||/e
  kUntil,       // e @ p
  kIndexAlias,  // e # name  (text = alias name)
  kIf,          // if (e1) e2 [else e3]
  kWhile,       // while (e1) e2
  kFor,         // for (e1; e2; e3) e4
  kCall,        // kids[0] = callee, kids[1..] = args
  kCast,        // (type)e
  kSizeofType,  // sizeof(type)
  kSizeofExpr,  // sizeof e
  kDecl,        // int i, *p;  (declares debugger variables as aliases)

  // C unary operators.
  kIndex,    // e1[e2]
  kDeref,    // *e
  kAddrOf,   // &e
  kNeg,      // -e
  kPos,      // +e
  kBitNot,   // ~e
  kNot,      // !e
  kPreInc,
  kPreDec,
  kPostInc,
  kPostDec,

  // C binary operators.
  kMul,
  kDiv,
  kMod,
  kAdd,
  kSub,
  kShl,
  kShr,
  kLt,
  kGt,
  kLe,
  kGe,
  kEq,
  kNe,
  kBitAnd,
  kBitXor,
  kBitOr,
  kAndAnd,
  kOrOr,
  kCond,  // e1 ? e2 : e3

  // Assignments.
  kAssign,
  kMulEq,
  kDivEq,
  kModEq,
  kAddEq,
  kSubEq,
  kShlEq,
  kShrEq,
  kAndEq,
  kXorEq,
  kOrEq,
};

// The number of operators: Op::kOrEq is the last enumerator.
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kOrEq) + 1;

// Precedence levels of the concrete syntax, loosest first (higher binds
// tighter). The parser's binary levels are kPrecOrOr..kPrecMul, with the
// range level between relational and shift; symbolic values parenthesize by
// the same numbers.
enum Prec : uint8_t {
  kPrecSeq = 0,
  kPrecAlt = 1,
  kPrecImply = 2,
  kPrecAssign = 3,
  kPrecCond = 4,
  kPrecOrOr = 5,
  kPrecAndAnd = 6,
  kPrecBitOr = 7,
  kPrecBitXor = 8,
  kPrecBitAnd = 9,
  kPrecEq = 10,
  kPrecRel = 11,
  kPrecRange = 12,
  kPrecShift = 13,
  kPrecAdd = 14,
  kPrecMul = 15,
  kPrecUnary = 16,
  kPrecPostfix = 17,
  kPrecPrimary = 18,
};

// How the engine sequences an operator's operands (eval_sm.cc pre-dispatches
// on the family; only structured operators reach its per-op switch).
enum class OpFamily : uint8_t {
  kMapUnary,       // one operand; one output per input
  kBinaryProduct,  // nested product over two operands
  kFilter,         // product; yields the LEFT operand when the comparison holds
  kStructured,     // operator-specific sequencing (generators, control, scopes)
};

struct OpInfo {
  Op op;                 // the row's own operator (the table is indexed by it)
  const char* name;      // DumpAst name, e.g. "multiply"
  const char* spelling;  // DUEL spelling, e.g. "*" ("" for leaves and casts)
  Tok tok;               // the token the parser reads it from (kEnd: none)
  Prec prec;             // the precedence an expression with this root has
  OpFamily family;
  Op base;  // the operator it applies: kAddEq -> kAdd, kIfGt -> kGt; else itself
};

extern const OpInfo kOpTable[kNumOps];

inline const OpInfo& Info(Op op) { return kOpTable[static_cast<size_t>(op)]; }
inline const char* OpName(Op op) { return Info(op).name; }

// Families read off the row: C's arithmetic/bitwise/shift operators and its
// comparisons are the binary products at those precedence levels, and the
// assignments (plain and compound) are the ones at assignment level.
inline bool IsComparisonOp(Op op) {
  const OpInfo& i = Info(op);
  return i.family == OpFamily::kBinaryProduct && (i.prec == kPrecRel || i.prec == kPrecEq);
}
inline bool IsArithOp(Op op) {
  const OpInfo& i = Info(op);
  return i.family == OpFamily::kBinaryProduct && i.prec >= kPrecBitOr && i.prec <= kPrecMul &&
         !IsComparisonOp(op);
}
inline bool IsAssignOp(Op op) {
  const OpInfo& i = Info(op);
  return i.family == OpFamily::kBinaryProduct && i.prec == kPrecAssign;
}

// Where the parser finds an operator: the one whose row has token `t` in
// infix (kPrecOrOr..kPrecMul, the range level aside), assignment, prefix or
// postfix position. nullopt when `t` is no such operator.
std::optional<Op> InfixOp(Tok t);
std::optional<Op> AssignOp(Tok t);
std::optional<Op> PrefixOp(Tok t);
std::optional<Op> PostfixOp(Tok t);

// A syntactic type name, resolved against the debugger's type tables at
// evaluation time (DUEL type-checks during evaluation, not compilation).
struct TypeSpec {
  enum class Base {
    kVoid,
    kBool,
    kChar,
    kSChar,
    kUChar,
    kShort,
    kUShort,
    kInt,
    kUInt,
    kLong,
    kULong,
    kLongLong,
    kULongLong,
    kFloat,
    kDouble,
    kStruct,
    kUnion,
    kEnum,
    kTypedef,
  };

  Base base = Base::kInt;
  std::string tag;               // struct/union/enum tag or typedef name
  int pointer_depth = 0;
  std::vector<size_t> array_dims;

  std::string ToString() const;
};

// One declarator of a DUEL declaration, e.g. the `*p` of `int i, *p;`.
struct DeclItem {
  TypeSpec type;
  std::string name;
};

struct Node {
  Op op;
  SourceRange range;
  int id = -1;  // dense index used by evaluator state tables

  std::vector<std::unique_ptr<Node>> kids;

  // Payloads (used per op; see parser).
  uint64_t int_value = 0;
  bool is_unsigned = false;
  bool is_long = false;
  double float_value = 0;
  std::string text;  // name / string body / alias name
  TypeSpec type_spec;
  std::vector<DeclItem> decls;

  // Compile-time facts (name bindings, folded constants, resolved types)
  // live in the Annotations side table (sema.h), not on the node: the tree
  // stays immutable after parsing so a CompiledQuery can cache it.

  Node(Op o, SourceRange r) : op(o), range(r) {}
};

using NodePtr = std::unique_ptr<Node>;

// True when any node in the tree can write target state: assignment in all
// its spellings, ++/--, target calls (which can write anywhere) and
// declarations (which allocate target space). Session-local effects — alias
// definition with `:=` and `#` — do not count: each session is
// single-threaded, so its alias table is private.
//
// The serve layer takes the writer lock when this scan or a string literal
// (interned on its first run) marks the plan (Annotations::mutates_target);
// the checker's side-effect-reeval warning asks this scan alone. It must be
// sound in one direction only: a mutating query must never read as pure (it
// would race every concurrent reader), while a pure query read as mutating
// is merely serialized. It is a syntactic scan of the whole tree, so unlike
// the checker it cannot stop early.
bool MutatesTarget(const Node& n);

// Renders the AST in the paper's LISP-like notation, e.g.
//   (plus (multiply (name "a") (constant 5)) (indirect (name "b")))
std::string DumpAst(const Node& n);

}  // namespace duel

#endif  // DUEL_DUEL_AST_H_
