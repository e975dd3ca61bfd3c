// The frames() extension (Discussion section: "displaying the local x in all
// of the currently active stack frames ... is tedious to do with most
// debuggers").

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class FramesTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  FramesTest() : fx_(ConfigOptions(GetParam())) { scenarios::BuildFrames(fx_.image(), 3); }

  DuelFixture fx_;
};

TEST_P(FramesTest, FramesGeneratesAllActiveFrames) {
  std::vector<std::string> lines = fx_.Lines("frames()");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "frame(0) = frame #0 fn0");
  EXPECT_EQ(lines[2], "frame(2) = frame #2 fn2");
}

TEST_P(FramesTest, LocalXInEveryFrame) {
  EXPECT_EQ(fx_.Lines("frames().x"),
            (std::vector<std::string>{"frame(0).x = 0", "frame(1).x = 10",
                                      "frame(2).x = 20"}));
}

TEST_P(FramesTest, FrameLocalsComposeWithGenerators) {
  EXPECT_EQ(fx_.One("+/(frames().x)"), "30");
  EXPECT_EQ(fx_.Lines("frames().x >? 5"),
            (std::vector<std::string>{"frame(1).x = 10", "frame(2).x = 20"}));
}

TEST_P(FramesTest, BareNameUsesInnermostFrame) {
  // Conventional debugger scope rules: `x` alone is frame 0's local.
  EXPECT_EQ(fx_.One("{x}"), "0");
}

TEST_P(FramesTest, SelectingOneFrame) {
  EXPECT_EQ(fx_.Lines("frames()[[1]].x"), (std::vector<std::string>{"frame(1).x = 10"}));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FramesTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
