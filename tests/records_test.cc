// Records in DUEL queries: unions, arrays of structs, nested structs,
// struct-typed with-chains — the data shapes real debugging sessions hit.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class RecordsTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  RecordsTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

TEST_P(RecordsTest, ArrayOfStructs) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef point =
      b.Struct("point").Field("px", b.Int()).Field("py", b.Int()).Build();
  target::Addr pts = b.Global("pts", b.Arr(point, 5));
  for (int i = 0; i < 5; ++i) {
    b.PokeI32(pts + i * 8, i);          // px = i
    b.PokeI32(pts + i * 8 + 4, i * i);  // py = i*i
  }
  EXPECT_EQ(fx_.Lines("pts[..5].py >? 5"),
            (std::vector<std::string>{"pts[3].py = 9", "pts[4].py = 16"}));
  EXPECT_EQ(fx_.One("+/(pts[..5].px)"), "10");
  // `_` inside a struct scope.
  EXPECT_EQ(fx_.Lines("pts[..5].(if (px == py) _)").size(), 2u);  // 0 and 1
}

TEST_P(RecordsTest, UnionMembersShareStorage) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef u =
      b.Union("word").Field("i", b.Int()).Field("bytes", b.Arr(b.Char(), 4)).Build();
  target::Addr w = b.Global("w", u);
  b.PokeI32(w, 0x41424344);  // 'DCBA' little-endian
  EXPECT_EQ(fx_.One("w.i"), "w.i = 1094861636");
  EXPECT_EQ(fx_.Lines("w.bytes[..4]"),
            (std::vector<std::string>{"w.bytes[0] = 'D'", "w.bytes[1] = 'C'",
                                      "w.bytes[2] = 'B'", "w.bytes[3] = 'A'"}));
  fx_.Lines("w.bytes[0] = 'Z' ;");
  EXPECT_EQ(fx_.One("{w.i}"), "1094861658");  // low byte changed through the union
}

TEST_P(RecordsTest, NestedStructAccess) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef inner = b.Struct("inner2").Field("v", b.Int()).Build();
  target::TypeRef outer =
      b.Struct("outer2").Field("a", inner).Field("b", inner).Build();
  target::Addr o = b.Global("o", outer);
  b.PokeI32(o, 1);
  b.PokeI32(o + 4, 2);
  EXPECT_EQ(fx_.One("o.a.v"), "o.a.v = 1");
  EXPECT_EQ(fx_.Lines("o.(a,b).v"),
            (std::vector<std::string>{"o.a.v = 1", "o.b.v = 2"}));
  fx_.Lines("o.b.v = 9 ;");
  EXPECT_EQ(fx_.One("{o.b.v}"), "9");
}

TEST_P(RecordsTest, PointerToStructArrayElement) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef point =
      b.Struct("pt3").Field("px", b.Int()).Field("py", b.Int()).Build();
  target::Addr pts = b.Global("qts", b.Arr(point, 3));
  b.PokeI32(pts + 16, 77);  // qts[2].px
  EXPECT_EQ(fx_.One("(&qts[2])->px"), "(&qts[2])->px = 77");
  EXPECT_EQ(fx_.One("(qts + 2)->px"), "(qts+2)->px = 77");
}

TEST_P(RecordsTest, StructAssignmentCopiesBytes) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef point =
      b.Struct("pt4").Field("px", b.Int()).Field("py", b.Int()).Build();
  target::Addr s = b.Global("src", point);
  b.Global("dst", point);
  b.PokeI32(s, 5);
  b.PokeI32(s + 4, 6);
  fx_.Lines("dst = src ;");
  EXPECT_EQ(fx_.One("{dst.py}"), "6");
  // Mismatched record types are rejected.
  target::TypeRef other = b.Struct("pt5").Field("px", b.Int()).Build();
  b.Global("odd", other);
  EXPECT_NE(fx_.Error("dst = odd").find("cannot assign"), std::string::npos);
}

TEST_P(RecordsTest, ExpandingArrayOfStructsByPointerField) {
  // A small intrusive graph inside an array of structs.
  target::ImageBuilder b(fx_.image());
  target::TypeRef node = b.Struct("anode")
                             .Field("id", b.Int())
                             .Field("peer", b.Ptr(b.StructRef("anode")))
                             .Build();
  target::Addr arr = b.Global("nodes", b.Arr(node, 3));
  for (int i = 0; i < 3; ++i) {
    b.PokeI32(arr + static_cast<size_t>(i) * 16, i + 1);
  }
  b.PokePtr(arr + 8, arr + 16);       // nodes[0].peer = &nodes[1]
  b.PokePtr(arr + 16 + 8, arr + 32);  // nodes[1].peer = &nodes[2]
  EXPECT_EQ(fx_.Lines("(&nodes[0])-->peer->id"),
            (std::vector<std::string>{"(&nodes[0])->id = 1", "(&nodes[0])->peer->id = 2",
                                      "(&nodes[0])->peer->peer->id = 3"}));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, RecordsTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
