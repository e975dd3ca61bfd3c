// Cross-cutting integration coverage: large rvalues in the query arena,
// compile-time name binding over the remote backend, scenario files driving the
// stepping debugger, deeply composed types.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/exec/debugger.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/scenarios/scenario_file.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

TEST(AggregateValueTest, LargeRecordRvaluesLiveInTheArena) {
  // A 40-byte struct rvalue exceeds the value's 8-byte payload.
  DuelFixture fx;
  target::ImageBuilder b(fx.image());
  target::TypeRef wide = b.Struct("wide")
                             .Field("a", b.Arr(b.Int(), 8))
                             .Field("tail", b.Long())
                             .Build();
  ASSERT_EQ(wide->size(), 40u);
  target::Addr src = b.Global("src", wide);
  b.Global("dst", wide);
  for (int i = 0; i < 8; ++i) {
    b.PokeI32(src + i * 4, i + 1);
  }
  b.PokeI64(src + 32, 99);
  // Whole-struct assignment flows the 40-byte rvalue through Value.
  fx.Lines("dst = src ;");
  EXPECT_EQ(fx.One("{dst.tail}"), "99");
  EXPECT_EQ(fx.One("+/(dst.a[..8])"), "36");
  // Member extraction from a record *rvalue* slices the arena image.
  EXPECT_EQ(fx.One("{(*&src).tail}"), "99");
}

TEST(AggregateValueTest, ValueCopiesShareTheImage) {
  Sym none = Sym::None();
  std::vector<uint8_t> big(40, 7);
  target::TypeTable tt;
  Value a = Value::RV(tt.ArrayOf(tt.Char(), 40), big.data(), big.size(), none);
  Value b = a;  // copy: a 48-byte record, the image is referenced
  EXPECT_EQ(b.bytes().size(), 40u);
  EXPECT_EQ(b.bytes().data(), a.bytes().data());
  EXPECT_EQ(b.bytes()[39], 7);
}

class RemoteFeatureTest : public ::testing::Test {
 protected:
  RemoteFeatureTest()
      : sim_(image_), server_(sim_), transport_(server_), remote_(transport_) {
    target::InstallStandardFunctions(image_);
    scenarios::BuildIntArray(image_, "x", {5, -2, 8, 0});
    scenarios::BuildList(image_, "L", {1, 2, 3});
  }

  target::TargetImage image_;
  dbg::SimBackend sim_;
  rsp::RspServer server_;
  rsp::FramedTransport transport_;
  rsp::RemoteBackend remote_;
};

TEST_F(RemoteFeatureTest, PrebindWorksOverTheWire) {
  Session session(remote_);
  EXPECT_EQ(session.Query("x[..4] >? 0").lines,
            (std::vector<std::string>{"x[0] = 5", "x[2] = 8"}));
  // A warm query replays the plan's binding of x: it asks for the symbol
  // epoch and reads the data, but never looks x up again.
  server_.set_packet_logging(true);
  EXPECT_EQ(session.Query("x[..4] >? 0").lines,
            (std::vector<std::string>{"x[0] = 5", "x[2] = 8"}));
  server_.set_packet_logging(false);
  std::vector<std::string> requests;
  for (const rsp::WirePacket& p : server_.packet_log()) {
    if (p.is_request) {
      requests.push_back(p.payload.substr(0, p.payload.find(':')));
    }
  }
  auto sent = [&](const std::string& name) {
    return std::count(requests.begin(), requests.end(), name);
  };
  EXPECT_EQ(sent("qDuelSymEpoch"), 1) << ::testing::PrintToString(requests);
  EXPECT_GE(sent("qDuelReadV"), 1) << ::testing::PrintToString(requests);
  EXPECT_EQ(sent("qVar"), 0) << ::testing::PrintToString(requests);
  // The second run should make almost no qVar requests.
  uint64_t before = server_.requests_handled();
  session.Drive("#/(x[..4] >? 0)");
  uint64_t var_queries_possible = server_.requests_handled() - before;
  EXPECT_LT(var_queries_possible, 40u);  // reads dominate; lookup bound once
  EXPECT_EQ(session.Query("L-->next->value").lines,
            (std::vector<std::string>{"L->value = 1", "L->next->value = 2",
                                      "L->next->next->value = 3"}));
}

TEST(ScenarioExecTest, ScenarioFileProgramsStepTogether) {
  // A scenario file defines the data; a program mutates it; DUEL guards it.
  DuelFixture fx;
  scenarios::LoadScenario(fx.image(), R"(
    struct List { int value; struct List *next; }
    struct List n0 = { 10, &n1 }
    struct List n1 = { 20, &n2 }
    struct List n2 = { 30, 0 }
    struct List *L = &n0
  )");
  exec::TargetProgram program = exec::TargetProgram::Parse(
      {
          "L->next->value = 21;",
          "L->next->next->value = 5;",   // breaks the increasing invariant
      },
      fx.image());
  exec::Debugger dbg(fx.image(), fx.backend(), program);
  dbg.AddAssertion("increasing", "L-->next->(if (next) value < next->value else 1)");
  exec::StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, exec::StopReason::kAssertion);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("increasing"), std::string::npos) << s.detail;
}

TEST(DeepTypesTest, ArrayOfArrayOfStruct) {
  DuelFixture fx;
  target::ImageBuilder b(fx.image());
  target::TypeRef cell = b.Struct("cell").Field("v", b.Int()).Build();
  target::Addr grid = b.Global("grid", b.Arr(b.Arr(cell, 3), 2));
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      b.PokeI32(grid + (r * 3 + c) * 4, r * 10 + c);
    }
  }
  EXPECT_EQ(fx.One("{grid[1][2].v}"), "12");
  EXPECT_EQ(fx.One("+/(grid[..2][..3].v)"), "36");
  EXPECT_EQ(fx.One("{sizeof grid}"), "24");
}

}  // namespace
}  // namespace duel
