// The C operator engine: usual arithmetic conversions, signed/unsigned
// comparisons, pointer arithmetic and decay, bit-fields, casts — exercised
// through DUEL queries so both the apply layer and the value plumbing are
// covered.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class ApplyTest : public ::testing::Test {
 protected:
  DuelFixture fx_;
};

TEST_F(ApplyTest, IntegerPromotionAndWrapping) {
  EXPECT_EQ(fx_.One("{(char)200 + 0}"), "-56");          // char is signed
  EXPECT_EQ(fx_.One("{(unsigned char)200 + 0}"), "200");  // zero-extends
  EXPECT_EQ(fx_.One("{2147483647 + 1}"), "-2147483648");  // int wraps
  EXPECT_EQ(fx_.One("{2147483647L + 1}"), "2147483648");  // long does not
}

TEST_F(ApplyTest, UsualArithmeticConversions) {
  EXPECT_EQ(fx_.One("{1/2}"), "0");
  EXPECT_EQ(fx_.One("{1/2.0}"), "0.5");
  EXPECT_EQ(fx_.One("{(float)1/2}"), "0.5");
  // unsigned int vs int: comparison happens in unsigned.
  EXPECT_EQ(fx_.One("{-1 > 0u}"), "1");
  // long vs unsigned int: long can hold all uint values, so signed compare.
  EXPECT_EQ(fx_.One("{-1L > 0u}"), "0");
}

TEST_F(ApplyTest, ShiftsAndBitOps) {
  EXPECT_EQ(fx_.One("{1 << 31}"), "-2147483648");
  EXPECT_EQ(fx_.One("{(-8) >> 1}"), "-4");   // arithmetic shift for signed
  EXPECT_EQ(fx_.One("{0xf0 & 0x1f}"), "16");
  EXPECT_EQ(fx_.One("{0xf0 | 0x0f}"), "255");
  EXPECT_EQ(fx_.One("{0xff ^ 0x0f}"), "240");
  EXPECT_EQ(fx_.One("{~0}"), "-1");
}

TEST_F(ApplyTest, PointerArithmeticScales) {
  scenarios::BuildIntArray(fx_.image(), "x", {10, 20, 30, 40});
  EXPECT_EQ(fx_.One("{*(x + 2)}"), "30");
  EXPECT_EQ(fx_.One("{*(&x[3] - 1)}"), "30");
  EXPECT_EQ(fx_.One("{&x[3] - &x[0]}"), "3");
  EXPECT_EQ(fx_.One("{&x[1] > &x[0]}"), "1");
  EXPECT_EQ(fx_.One("{2[x]}"), "30");  // C subscripting is commutative
}

TEST_F(ApplyTest, ArrayDecayAndAddressOf) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  EXPECT_EQ(fx_.One("{x == &x[0]}"), "1");
  EXPECT_EQ(fx_.One("{*x}"), "1");
  EXPECT_EQ(fx_.One("{sizeof x}"), "12");  // sizeof does not decay the array
}

TEST_F(ApplyTest, Bitfields) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef t = b.Struct("F")
                          .Bitfield("a", b.UInt(), 3)
                          .Bitfield("s", b.Int(), 4)
                          .Field("tail", b.Int())
                          .Build();
  target::Addr addr = b.Global("f", t);
  (void)addr;
  fx_.Lines("f.a = 5 ;");
  fx_.Lines("f.s = -3 ;");
  fx_.Lines("f.tail = 1000 ;");
  EXPECT_EQ(fx_.One("f.a"), "f.a = 5");
  EXPECT_EQ(fx_.One("f.s"), "f.s = -3");  // sign-extended from 4 bits
  EXPECT_EQ(fx_.One("f.tail"), "f.tail = 1000");
  fx_.Lines("f.a = 5 + 8 ;");  // 13 truncates to 3 bits
  EXPECT_EQ(fx_.One("f.a"), "f.a = 5");
  std::string err = fx_.Error("&f.a");
  EXPECT_NE(err.find("bit-field"), std::string::npos);
}

TEST_F(ApplyTest, PostfixIncrementOverGeneratedLvalues) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  std::vector<std::string> lines = fx_.Lines("x[..3]++");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "x[0]++ = 1");  // old values returned
  EXPECT_EQ(fx_.One("+/x[..3]"), "9");
  fx_.Lines("--x[..3] ;");
  EXPECT_EQ(fx_.One("+/x[..3]"), "6");
}

TEST_F(ApplyTest, EnumValuesDisplayByName) {
  fx_.image().types().DefineEnum("color", {{"RED", 0}, {"GREEN", 1}, {"BLUE", 7}});
  target::ImageBuilder b(fx_.image());
  target::Addr c = b.Global("c", fx_.image().types().LookupEnum("color"));
  b.PokeI32(c, 7);
  EXPECT_EQ(fx_.One("c"), "c = BLUE");
  EXPECT_EQ(fx_.One("{c + 1}"), "8");
  EXPECT_EQ(fx_.One("{(enum color)1}"), "GREEN");
  // A value with no enumerator prints as its number.
  EXPECT_EQ(fx_.One("{(enum color)5}"), "5");
  EXPECT_EQ(fx_.One("{(enum color)-3}"), "-3");
}

TEST_F(ApplyTest, FloatValuesRoundTrip) {
  target::ImageBuilder b(fx_.image());
  target::Addr f = b.Global("f", b.Float());
  b.PokeFloat(f, 2.5f);
  target::Addr d = b.Global("d", b.Double());
  b.PokeDouble(d, -0.125);
  EXPECT_EQ(fx_.One("f"), "f = 2.5");
  EXPECT_EQ(fx_.One("d"), "d = -0.125");
  EXPECT_EQ(fx_.One("{f * 2}"), "5");
  fx_.Lines("f = 1.25 ;");
  EXPECT_EQ(fx_.One("f"), "f = 1.25");
}

TEST_F(ApplyTest, AssignmentConversions) {
  target::ImageBuilder b(fx_.image());
  b.Global("c", b.Char());
  b.Global("d", b.Double());
  fx_.Lines("c = 321 ;");  // truncates mod 256
  EXPECT_EQ(fx_.One("{c + 0}"), "65");
  fx_.Lines("d = 3 ;");  // int -> double
  EXPECT_EQ(fx_.One("d"), "d = 3");
}

TEST_F(ApplyTest, UnsignedDisplay) {
  target::ImageBuilder b(fx_.image());
  target::Addr u = b.Global("u", b.UInt());
  b.PokeI32(u, -1);
  EXPECT_EQ(fx_.One("u"), "u = 4294967295");
}

TEST_F(ApplyTest, CharPointerDisplaysString) {
  target::ImageBuilder b(fx_.image());
  target::Addr s = b.Global("s", b.Ptr(b.Char()));
  b.PokePtr(s, b.String("hi\tthere"));
  EXPECT_EQ(fx_.One("s"), "s = \"hi\\tthere\"");
}

TEST_F(ApplyTest, StructAndArrayDisplay) {
  scenarios::BuildList(fx_.image(), "L", {7});
  std::string line = fx_.One("*L");
  EXPECT_NE(line.find("value = 7"), std::string::npos) << line;
  EXPECT_NE(line.find("next = 0x0"), std::string::npos) << line;
  scenarios::BuildIntArray(fx_.image(), "arr", {1, 2, 3});
  EXPECT_EQ(fx_.One("arr"), "arr = {1, 2, 3}");
}

}  // namespace
}  // namespace duel
