#include <gtest/gtest.h>

#include "src/duel/duel.h"
#include "src/scenarios/scenarios.h"

namespace duel {
namespace {

TEST(Smoke, BasicArithmetic) {
  target::TargetImage image;
  dbg::SimBackend backend(image);
  Session session(backend);
  QueryResult r = session.Query("1 + (double)3/2");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_EQ(r.lines[0], "1+(double)3/2 = 2.5");
}

TEST(Smoke, GeneratorsAbstractExample) {
  target::TargetImage image;
  dbg::SimBackend backend(image);
  Session session(backend);
  QueryResult r = session.Query("(1..3)+(5,9)");
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<std::string> values;
  for (auto& l : r.lines) values.push_back(l);
  ASSERT_EQ(values.size(), 6u);
  EXPECT_EQ(values[0], "1+5 = 6");
  EXPECT_EQ(values[1], "1+9 = 10");
  EXPECT_EQ(values[5], "3+9 = 12");
}

TEST(Smoke, ArrayFilter) {
  target::TargetImage image;
  scenarios::BuildIntArray(image, "x", {0, -1, 2, 7, 0, 3, -5, 9, 0, 1});
  dbg::SimBackend backend(image);
  Session session(backend);
  QueryResult r = session.Query("x[..10] >? 2");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.lines.size(), 3u);
  EXPECT_EQ(r.lines[0], "x[3] = 7");
  EXPECT_EQ(r.lines[1], "x[5] = 3");
  EXPECT_EQ(r.lines[2], "x[7] = 9");
}

TEST(Smoke, ListTraversal) {
  target::TargetImage image;
  scenarios::BuildList(image, "L", {10, 20, 30});
  dbg::SimBackend backend(image);
  Session session(backend);
  QueryResult r = session.Query("L-->next->value");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.lines.size(), 3u);
  EXPECT_EQ(r.lines[0], "L->value = 10");
  EXPECT_EQ(r.lines[1], "L->next->value = 20");
  EXPECT_EQ(r.lines[2], "L->next->next->value = 30");
}

}  // namespace
}  // namespace duel
