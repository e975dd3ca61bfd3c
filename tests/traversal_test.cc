// Graph expansion (--> and the -->> extension): orders, termination on NULL
// and invalid pointers, cycle detection, symbolic chain compression.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class TraversalTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  TraversalTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

TEST_P(TraversalTest, EmptyListProducesNothing) {
  scenarios::BuildList(fx_.image(), "L", {});
  EXPECT_TRUE(fx_.Lines("L-->next->value").empty());
}

TEST_P(TraversalTest, SingleNode) {
  scenarios::BuildList(fx_.image(), "L", {5});
  EXPECT_EQ(fx_.Lines("L-->next->value"), (std::vector<std::string>{"L->value = 5"}));
}

TEST_P(TraversalTest, ChainCompressionThreshold) {
  scenarios::BuildList(fx_.image(), "L", {0, 1, 2, 3, 4, 5});
  std::vector<std::string> lines = fx_.Lines("L-->next->value");
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "L->value = 0");
  EXPECT_EQ(lines[3], "L->next->next->next->value = 3");       // 3 reps: expanded
  EXPECT_EQ(lines[4], "L-->next[[4]]->value = 4");             // 4 reps: compressed
  EXPECT_EQ(lines[5], "L-->next[[5]]->value = 5");
}

TEST_P(TraversalTest, DanglingPointerTerminatesSilently) {
  scenarios::BuildDanglingList(fx_.image(), "L", {1, 2, 3}, 0xdead0000);
  EXPECT_EQ(fx_.Lines("#/(L-->next)"), (std::vector<std::string>{"3"}));
}

TEST_P(TraversalTest, CycleDetectionStopsRevisits) {
  scenarios::BuildCyclicList(fx_.image(), "L", {1, 2, 3, 4}, 1);
  // With the cycle-detection extension (default on), each node visits once.
  EXPECT_EQ(fx_.One("#/(L-->next)"), "4");
}

TEST_P(TraversalTest, CycleDetectionOffHitsTheFuelLimit) {
  scenarios::BuildCyclicList(fx_.image(), "L", {1, 2, 3, 4}, 1);
  fx_.session().options().eval.cycle_detect = false;
  fx_.session().options().eval.max_steps = 100'000;
  std::string err = fx_.Error("#/(L-->next)");
  EXPECT_NE(err.find("limit"), std::string::npos) << err;
}

TEST_P(TraversalTest, BfsVersusDfsOrder) {
  //        1
  //      2   3
  //     4 5 6 7
  scenarios::BuildTree(fx_.image(), "root", "(1 (2 (4) (5)) (3 (6) (7)))");
  std::vector<std::string> dfs = fx_.Lines("root-->(left,right)->key");
  std::vector<std::string> dfs_keys;
  for (const std::string& l : dfs) dfs_keys.push_back(l.substr(l.rfind(' ') + 1));
  EXPECT_EQ(dfs_keys, (std::vector<std::string>{"1", "2", "4", "5", "3", "6", "7"}));

  std::vector<std::string> bfs = fx_.Lines("root-->>(left,right)->key");
  std::vector<std::string> bfs_keys;
  for (const std::string& l : bfs) bfs_keys.push_back(l.substr(l.rfind(' ') + 1));
  EXPECT_EQ(bfs_keys, (std::vector<std::string>{"1", "2", "3", "4", "5", "6", "7"}));
}

TEST_P(TraversalTest, SharedSubtreeVisitedOnceWithCycleDetection) {
  // Build a diamond: two roots pointing at one shared list tail.
  target::TargetImage& image = fx_.image();
  scenarios::BuildList(image, "tail", {7, 8});
  target::ImageBuilder b(image);
  target::TypeRef list = image.types().LookupStruct("List");
  ASSERT_NE(list, nullptr);
  target::Addr tail_head = image.memory().ReadScalar<target::Addr>(
      image.symbols().FindVariable("tail")->addr);
  target::Addr n1 = b.Alloc(list);
  b.PokeI32(b.FieldAddr(n1, list, "value"), 1);
  b.PokePtr(b.FieldAddr(n1, list, "next"), tail_head);
  target::Addr g = b.Global("L", b.Ptr(list));
  b.PokePtr(g, n1);
  EXPECT_EQ(fx_.One("#/(L-->next)"), "3");  // 1, 7, 8
}

TEST_P(TraversalTest, ExpansionOverAlternationOfSources) {
  scenarios::BuildSymtab(fx_.image(), {{0, {{"a", 1}, {"b", 2}}}, {5, {{"c", 3}}}});
  EXPECT_EQ(fx_.One("#/(hash[0,5]-->next)"), "3");
}

TEST_P(TraversalTest, NonPointerSubjectsAreStillYielded) {
  // Expanding over struct values directly (no pointer): yields the value,
  // expands nothing.
  scenarios::BuildList(fx_.image(), "L", {42});
  EXPECT_EQ(fx_.Lines("(*L)-->(if (0) _)->value"),
            (std::vector<std::string>{"(*L)->value = 42"}));
}

TEST_P(TraversalTest, ExpansionLimitGuards) {
  fx_.session().options().eval.max_expand_nodes = 100;
  fx_.session().options().eval.cycle_detect = false;
  scenarios::BuildCyclicList(fx_.image(), "L", {1, 2}, 0);
  std::string err = fx_.Error("#/(L-->next)");
  EXPECT_NE(err.find("limit"), std::string::npos) << err;
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TraversalTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
