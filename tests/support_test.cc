// Support library: string helpers, error types.

#include <gtest/gtest.h>

#include "src/support/error.h"
#include "src/support/strings.h"

namespace duel {
namespace {

TEST(StringsTest, StrPrintf) {
  EXPECT_EQ(StrPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrPrintf("%s", ""), "");
  std::string big(300, 'a');
  EXPECT_EQ(StrPrintf("%s", big.c_str()).size(), 300u);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"one"}, ", "), "one");
}

TEST(StringsTest, EscapeChar) {
  EXPECT_EQ(EscapeChar('\n'), "\\n");
  EXPECT_EQ(EscapeChar('\0'), "\\0");
  EXPECT_EQ(EscapeChar('a'), "a");
  EXPECT_EQ(EscapeChar('\\'), "\\\\");
  EXPECT_EQ(EscapeChar(static_cast<char>(0x7f)), "\\177");
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-0.125), "-0.125");
  EXPECT_EQ(FormatDouble(1e20), "1e+20");
  EXPECT_EQ(FormatDouble(0.1), "0.1");  // round-trips at minimal precision
  // The value must round-trip exactly.
  double tricky = 1.0 / 3.0;
  EXPECT_EQ(strtod(FormatDouble(tricky).c_str(), nullptr), tricky);
}

TEST(StringsTest, HexCodecs) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseHexU64("ff", &v));
  EXPECT_EQ(v, 0xffu);
  ASSERT_TRUE(ParseHexU64("DEADbeef", &v));
  EXPECT_EQ(v, 0xdeadbeefu);
  EXPECT_FALSE(ParseHexU64("", &v));
  EXPECT_FALSE(ParseHexU64("xyz", &v));
  EXPECT_FALSE(ParseHexU64("11112222333344445", &v));  // > 16 digits

  uint8_t data[] = {0x00, 0x7f, 0xff};
  EXPECT_EQ(HexEncode(data, 3), "007fff");
  std::vector<uint8_t> back;
  ASSERT_TRUE(HexDecode("007fff", &back));
  EXPECT_EQ(back, (std::vector<uint8_t>{0x00, 0x7f, 0xff}));
  EXPECT_FALSE(HexDecode("0", &back));
  EXPECT_FALSE(HexDecode("zz", &back));
}

TEST(StringsTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(ErrorTest, KindsAndContext) {
  DuelError e(ErrorKind::kMemory, "bad");
  EXPECT_EQ(e.kind(), ErrorKind::kMemory);
  e.set_symbolic_context("x[3]");
  EXPECT_EQ(e.symbolic_context(), "x[3]");
  EXPECT_STREQ(ErrorKindName(ErrorKind::kLimit), "evaluation limit exceeded");

  MemoryFault mf(0x1000, 4, "cannot read");
  EXPECT_EQ(mf.addr(), 0x1000u);
  EXPECT_EQ(mf.size(), 4u);
  EXPECT_EQ(mf.kind(), ErrorKind::kMemory);
}

}  // namespace
}  // namespace duel
