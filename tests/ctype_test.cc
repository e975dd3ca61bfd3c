// C type system: LP64 sizes, struct/union/bit-field layout, declarator
// printing, equality, interning.

#include "src/target/ctype.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace duel::target {
namespace {

TEST(CTypeTest, BasicSizesLP64) {
  TypeTable tt;
  EXPECT_EQ(tt.Char()->size(), 1u);
  EXPECT_EQ(tt.Short()->size(), 2u);
  EXPECT_EQ(tt.Int()->size(), 4u);
  EXPECT_EQ(tt.Long()->size(), 8u);
  EXPECT_EQ(tt.LongLong()->size(), 8u);
  EXPECT_EQ(tt.Float()->size(), 4u);
  EXPECT_EQ(tt.Double()->size(), 8u);
  EXPECT_EQ(tt.PointerTo(tt.Int())->size(), 8u);
}

TEST(CTypeTest, Predicates) {
  TypeTable tt;
  EXPECT_TRUE(tt.Char()->IsSignedInteger());  // char is signed here
  EXPECT_TRUE(tt.UInt()->IsUnsignedInteger());
  EXPECT_TRUE(tt.Double()->IsFloating());
  EXPECT_TRUE(tt.PointerTo(tt.Void())->IsScalar());
  EXPECT_FALSE(tt.PointerTo(tt.Void())->IsArithmetic());
}

TEST(CTypeTest, PointerAndArrayInterning) {
  TypeTable tt;
  EXPECT_EQ(tt.PointerTo(tt.Int()), tt.PointerTo(tt.Int()));
  EXPECT_EQ(tt.ArrayOf(tt.Int(), 10), tt.ArrayOf(tt.Int(), 10));
  EXPECT_NE(tt.ArrayOf(tt.Int(), 10), tt.ArrayOf(tt.Int(), 11));
}

// Array decay interns the element's pointer type once per table; every
// later decay reads it without the table's lock. Eight threads decaying one
// freshly built array type at the same moment must all see one pointer type
// (run under ThreadSanitizer with the other Serve tests).
TEST(ServeTypeTableTest, ConcurrentArrayDecayInternsOnePointer) {
  TypeTable tt;
  TypeRef rec = tt.DeclareStruct("fresh");
  tt.CompleteRecord(rec, {{"v", tt.Int(), 0, false, 0, 0}});
  TypeRef array = tt.ArrayOf(rec, 16);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<TypeRef> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      TypeRef first = tt.PointerTo(array->target());
      for (int k = 0; k < 1000; ++k) {
        if (tt.PointerTo(array->target()) != first) {
          first = nullptr;
        }
      }
      seen[static_cast<size_t>(i)] = first;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  TypeRef want = tt.PointerTo(rec);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(want->target(), rec);
  for (TypeRef p : seen) {
    EXPECT_EQ(p, want);
  }
}

TEST(CTypeTest, PointerToAnotherTablesTypeStaysInThisTable) {
  TypeTable a;
  TypeTable b;
  TypeRef in_a = a.PointerTo(a.Int());
  TypeRef in_b = b.PointerTo(a.Int());
  EXPECT_NE(in_a, in_b);
  EXPECT_EQ(b.PointerTo(a.Int()), in_b);
  EXPECT_EQ(a.PointerTo(a.Int()), in_a);
}

TEST(CTypeTest, FunctionInterning) {
  TypeTable tt;
  TypeRef f = tt.Function(tt.Int(), {{"x", tt.Int()}}, false);
  EXPECT_EQ(tt.Function(tt.Int(), {{"x", tt.Int()}}, false), f);
  // Parameter names print in the declarator, so they are part of the key.
  EXPECT_NE(tt.Function(tt.Int(), {{"y", tt.Int()}}, false), f);
  EXPECT_NE(tt.Function(tt.Int(), {{"x", tt.Int()}}, true), f);
  EXPECT_NE(tt.Function(tt.Long(), {{"x", tt.Int()}}, false), f);
  EXPECT_NE(tt.Function(tt.Int(), {}, false), f);
}

TEST(CTypeTest, StructLayoutWithPadding) {
  TypeTable tt;
  TypeRef s = tt.DeclareStruct("S");
  tt.CompleteRecord(s, {{"c", tt.Char(), 0, false, 0, 0},
                        {"i", tt.Int(), 0, false, 0, 0},
                        {"c2", tt.Char(), 0, false, 0, 0}});
  EXPECT_EQ(s->FindMember("c")->offset, 0u);
  EXPECT_EQ(s->FindMember("i")->offset, 4u);
  EXPECT_EQ(s->FindMember("c2")->offset, 8u);
  EXPECT_EQ(s->size(), 12u);  // padded to int alignment
  EXPECT_EQ(s->align(), 4u);
}

TEST(CTypeTest, RecursiveStructViaForwardDeclaration) {
  TypeTable tt;
  TypeRef s = tt.DeclareStruct("node");
  EXPECT_FALSE(s->complete());
  tt.CompleteRecord(s, {{"key", tt.Int(), 0, false, 0, 0},
                        {"next", tt.PointerTo(s), 0, false, 0, 0}});
  EXPECT_TRUE(s->complete());
  EXPECT_EQ(s->size(), 16u);
  EXPECT_EQ(s->FindMember("next")->type->target(), s);
}

TEST(CTypeTest, UnionLayout) {
  TypeTable tt;
  TypeRef u = tt.DeclareUnion("U");
  tt.CompleteRecord(u, {{"c", tt.Char(), 0, false, 0, 0},
                        {"d", tt.Double(), 0, false, 0, 0}});
  EXPECT_EQ(u->size(), 8u);
  EXPECT_EQ(u->FindMember("c")->offset, 0u);
  EXPECT_EQ(u->FindMember("d")->offset, 0u);
}

TEST(CTypeTest, BitfieldPacking) {
  TypeTable tt;
  TypeRef s = tt.DeclareStruct("B");
  tt.CompleteRecord(s, {{"a", tt.UInt(), 0, true, 0, 3},
                        {"b", tt.UInt(), 0, true, 0, 5},
                        {"c", tt.UInt(), 0, true, 0, 30},  // does not fit: new unit
                        {"plain", tt.Char(), 0, false, 0, 0}});
  const Member* a = s->FindMember("a");
  const Member* b = s->FindMember("b");
  const Member* c = s->FindMember("c");
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(a->bit_offset, 0u);
  EXPECT_EQ(b->offset, 0u);
  EXPECT_EQ(b->bit_offset, 3u);
  EXPECT_EQ(c->offset, 4u);
  EXPECT_EQ(c->bit_offset, 0u);
  EXPECT_EQ(s->FindMember("plain")->offset, 8u);
}

TEST(CTypeTest, EnumDefinition) {
  TypeTable tt;
  TypeRef e = tt.DefineEnum("color", {{"RED", 0}, {"GREEN", 1}, {"BLUE", 7}});
  EXPECT_EQ(e->size(), 4u);
  EXPECT_EQ(e->enumerators()[2].value, 7);
  EXPECT_EQ(tt.LookupEnum("color"), e);
}

TEST(CTypeTest, DeclaratorPrinting) {
  TypeTable tt;
  EXPECT_EQ(tt.Int()->ToString(), "int");
  EXPECT_EQ(tt.PointerTo(tt.Char())->ToString(), "char *");
  EXPECT_EQ(tt.ArrayOf(tt.Int(), 10)->Declare("x"), "int x[10]");
  EXPECT_EQ(tt.PointerTo(tt.ArrayOf(tt.Int(), 10))->Declare("x"), "int (*x)[10]");
  EXPECT_EQ(tt.ArrayOf(tt.PointerTo(tt.Char()), 4)->Declare("argv"), "char *argv[4]");
  TypeRef s = tt.DeclareStruct("symbol");
  EXPECT_EQ(tt.PointerTo(s)->ToString(), "struct symbol *");
  TypeRef fn = tt.Function(tt.Int(), {{"x", tt.Int()}}, true);
  EXPECT_EQ(fn->Declare("f"), "int f(int x, ...)");
  EXPECT_EQ(tt.PointerTo(fn)->Declare("pf"), "int (*pf)(int x, ...)");
}

TEST(CTypeTest, TypeEquality) {
  TypeTable tt1;
  TypeTable tt2;
  EXPECT_TRUE(TypeEquals(tt1.Int(), tt2.Int()));
  EXPECT_TRUE(TypeEquals(tt1.PointerTo(tt1.Int()), tt2.PointerTo(tt2.Int())));
  EXPECT_FALSE(TypeEquals(tt1.Int(), tt1.UInt()));
  TypeRef a = tt1.DeclareStruct("s");
  TypeRef b = tt2.DeclareStruct("s");
  EXPECT_TRUE(TypeEquals(a, b));  // tag identity
  EXPECT_FALSE(TypeEquals(a, tt2.DeclareStruct("t")));
}

TEST(CTypeTest, DoubleCompletionRejected) {
  TypeTable tt;
  TypeRef s = tt.DeclareStruct("S");
  tt.CompleteRecord(s, {{"x", tt.Int(), 0, false, 0, 0}});
  EXPECT_THROW(tt.CompleteRecord(s, {{"y", tt.Int(), 0, false, 0, 0}}), DuelError);
}

TEST(CTypeTest, CompletingAnotherTablesRecordRejected) {
  TypeTable owner;
  TypeTable other;
  TypeRef s = owner.DeclareStruct("S");
  other.DeclareStruct("S");
  EXPECT_THROW(other.CompleteRecord(s, {{"x", other.Int(), 0, false, 0, 0}}), DuelError);
  EXPECT_FALSE(s->complete());
}

}  // namespace
}  // namespace duel::target
