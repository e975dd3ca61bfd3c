// Target substrate: memory segments and faults, image builder, symbol
// tables, frames, native functions (printf), type serialization.

#include <gtest/gtest.h>

#include "src/target/builder.h"
#include "src/target/ctype_io.h"
#include "src/target/datum.h"
#include "src/target/image.h"

namespace duel::target {
namespace {

TEST(MemoryTest, SegmentsAndFaults) {
  Memory m;
  m.AddSegment("data", 0x1000, 0x100, Perm::kReadWrite);
  m.WriteScalar<int32_t>(0x1000, 42);
  EXPECT_EQ(m.ReadScalar<int32_t>(0x1000), 42);
  EXPECT_TRUE(m.Valid(0x10fc, 4));
  EXPECT_FALSE(m.Valid(0x10fd, 4));  // straddles the end
  EXPECT_FALSE(m.Valid(0x0, 1));
  EXPECT_THROW(m.ReadScalar<int32_t>(0x2000), MemoryFault);
  EXPECT_THROW(m.WriteScalar<int32_t>(0x0, 1), MemoryFault);
}

TEST(MemoryTest, ReadOnlySegment) {
  Memory m;
  m.AddSegment("text", 0x400000, 0x100, Perm::kRead);
  int32_t v;
  EXPECT_TRUE(m.TryRead(0x400000, &v, 4));
  EXPECT_THROW(m.WriteScalar<int32_t>(0x400000, 1), MemoryFault);
}

TEST(MemoryTest, OverlapRejected) {
  Memory m;
  m.AddSegment("a", 0x1000, 0x100, Perm::kReadWrite);
  EXPECT_THROW(m.AddSegment("b", 0x10f0, 0x100, Perm::kReadWrite), DuelError);
}

TEST(MemoryTest, AllocateAlignsAndGrows) {
  Memory m;
  Addr a = m.Allocate(3, 1);
  Addr b = m.Allocate(8, 8);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GT(b, a);
  m.WriteScalar<uint64_t>(b, 0xdeadbeef);
  EXPECT_EQ(m.ReadScalar<uint64_t>(b), 0xdeadbeefu);
  // Unallocated heap tail is invalid.
  EXPECT_FALSE(m.Valid(b + 0x100000, 1));
}

TEST(MemoryTest, ReadCString) {
  Memory m;
  Addr a = m.Allocate(16, 1);
  m.Write(a, "hello", 6);
  std::string s;
  bool trunc = false;
  ASSERT_TRUE(m.ReadCString(a, 100, &s, &trunc));
  EXPECT_EQ(s, "hello");
  EXPECT_FALSE(trunc);
  ASSERT_TRUE(m.ReadCString(a, 3, &s, &trunc));
  EXPECT_EQ(s, "hel");
  EXPECT_TRUE(trunc);
  EXPECT_FALSE(m.ReadCString(0x9999, 10, &s, &trunc));
}

TEST(BuilderTest, GlobalsAndPokes) {
  TargetImage image;
  ImageBuilder b(image);
  Addr x = b.Global("x", b.Arr(b.Int(), 4));
  b.PokeI32(x + 8, 77);
  EXPECT_EQ(image.memory().ReadScalar<int32_t>(x + 8), 77);
  const Variable* v = image.symbols().FindVariable("x");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->addr, x);
  EXPECT_EQ(v->type->ToString(), "int [4]");
}

TEST(BuilderTest, RecordBuilderAndFieldAddr) {
  TargetImage image;
  ImageBuilder b(image);
  TypeRef s = b.Struct("pair").Field("a", b.Int()).Field("b", b.Double()).Build();
  EXPECT_EQ(s->size(), 16u);
  Addr p = b.Alloc(s);
  b.PokeDouble(b.FieldAddr(p, s, "b"), 2.5);
  EXPECT_EQ(image.memory().ReadScalar<double>(p + 8), 2.5);
  EXPECT_THROW(b.FieldAddr(p, s, "nope"), DuelError);
}

TEST(BuilderTest, FramesAreInnermostFirst) {
  TargetImage image;
  ImageBuilder b(image);
  b.PushFrame("outer");
  b.FrameLocal("x", b.Int());
  b.PushFrame("inner");
  b.FrameLocal("x", b.Int());
  ASSERT_EQ(image.symbols().NumFrames(), 2u);
  EXPECT_EQ(image.symbols().GetFrame(0).function, "inner");
  EXPECT_EQ(image.symbols().GetFrame(1).function, "outer");
  // Variable resolution prefers the innermost frame.
  const Variable* v = image.symbols().FindVariable("x");
  EXPECT_EQ(v->addr, image.symbols().GetFrame(0).locals[0].addr);
}

TEST(ImageTest, NewCString) {
  TargetImage image;
  Addr s = image.NewCString("duel");
  std::string out;
  bool trunc;
  ASSERT_TRUE(image.memory().ReadCString(s, 100, &out, &trunc));
  EXPECT_EQ(out, "duel");
}

TEST(NativeFunctionsTest, PrintfFormatsFromTargetMemory) {
  TargetImage image;
  InstallStandardFunctions(image);
  Addr fmt = image.NewCString("%s has %d chars; pi=%.2f %c %x%%");
  Addr str = image.NewCString("duel");
  TypeTable& tt = image.types();
  std::vector<RawDatum> args;
  args.push_back(MakeScalarDatum<uint64_t>(tt.PointerTo(tt.Char()), fmt));
  args.push_back(MakeScalarDatum<uint64_t>(tt.PointerTo(tt.Char()), str));
  args.push_back(MakeScalarDatum<int32_t>(tt.Int(), 4));
  args.push_back(MakeScalarDatum<double>(tt.Double(), 3.14159));
  args.push_back(MakeScalarDatum<int32_t>(tt.Int(), 'z'));
  args.push_back(MakeScalarDatum<int32_t>(tt.Int(), 255));
  RawDatum ret = image.Call("printf", args);
  EXPECT_EQ(image.output(), "duel has 4 chars; pi=3.14 z ff%");
  EXPECT_EQ(DatumToI64(ret), static_cast<int64_t>(image.output().size()));
}

TEST(NativeFunctionsTest, StrlenAndAbs) {
  TargetImage image;
  InstallStandardFunctions(image);
  TypeTable& tt = image.types();
  Addr s = image.NewCString("four");
  RawDatum len = image.Call(
      "strlen", std::vector<RawDatum>{MakeScalarDatum<uint64_t>(tt.PointerTo(tt.Char()), s)});
  EXPECT_EQ(DatumToU64(len), 4u);
  RawDatum a = image.Call("abs",
                          std::vector<RawDatum>{MakeScalarDatum<int32_t>(tt.Int(), -42)});
  EXPECT_EQ(DatumToI64(a), 42);
}

TEST(NativeFunctionsTest, UnknownFunction) {
  TargetImage image;
  EXPECT_THROW(image.Call("nope", {}), DuelError);
}

TEST(CTypeIoTest, BasicRoundTrip) {
  TypeTable server;
  TypeTable client;
  TypeRef t = server.PointerTo(server.ArrayOf(server.PointerTo(server.Char()), 10));
  std::string wire = SerializeType(t);
  TypeRef back = ParseSerializedType(wire, client);
  EXPECT_TRUE(TypeEquals(t, back));
  EXPECT_EQ(back->ToString(), t->ToString());
}

TEST(CTypeIoTest, RecursiveStructRoundTrip) {
  TypeTable server;
  TypeRef sym = server.DeclareStruct("symbol");
  server.CompleteRecord(sym, {{"name", server.PointerTo(server.Char()), 0, false, 0, 0},
                              {"scope", server.Int(), 0, false, 0, 0},
                              {"next", server.PointerTo(sym), 0, false, 0, 0}});
  std::string wire = SerializeType(server.PointerTo(sym));
  TypeTable client;
  TypeRef back = ParseSerializedType(wire, client);
  ASSERT_EQ(back->kind(), TypeKind::kPointer);
  TypeRef rec = back->target();
  EXPECT_TRUE(rec->complete());
  EXPECT_EQ(rec->size(), sym->size());
  EXPECT_EQ(rec->FindMember("scope")->offset, sym->FindMember("scope")->offset);
  EXPECT_EQ(rec->FindMember("next")->type->target(), rec);
}

TEST(CTypeIoTest, BitfieldAndEnumRoundTrip) {
  TypeTable server;
  TypeRef e = server.DefineEnum("color", {{"RED", 0}, {"BLUE", 5}});
  TypeRef s = server.DeclareStruct("flags");
  server.CompleteRecord(s, {{"a", server.UInt(), 0, true, 0, 3},
                            {"c", e, 0, false, 0, 0}});
  std::string wire = SerializeType(s);
  TypeTable client;
  TypeRef back = ParseSerializedType(wire, client);
  EXPECT_EQ(back->FindMember("a")->bit_width, 3u);
  EXPECT_TRUE(back->FindMember("a")->is_bitfield);
  EXPECT_EQ(back->FindMember("c")->type->enumerators()[1].name, "BLUE");
  EXPECT_EQ(back->size(), s->size());
}

TEST(CTypeIoTest, FunctionTypeRoundTrip) {
  TypeTable server;
  TypeRef fn = server.Function(server.Int(), {{"fmt", server.PointerTo(server.Char())}}, true);
  TypeTable client;
  TypeRef back = ParseSerializedType(SerializeType(fn), client);
  EXPECT_TRUE(TypeEquals(fn, back));
  EXPECT_TRUE(back->variadic());
}

TEST(CTypeIoTest, MalformedInputs) {
  TypeTable tt;
  EXPECT_THROW(ParseSerializedType("", tt), DuelError);
  EXPECT_THROW(ParseSerializedType("Z", tt), DuelError);
  EXPECT_THROW(ParseSerializedType("A10:", tt), DuelError);
  EXPECT_THROW(ParseSerializedType("ii", tt), DuelError);  // trailing junk
}

}  // namespace
}  // namespace duel::target
