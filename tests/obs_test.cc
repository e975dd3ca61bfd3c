// Unit tests for the observability layer (src/support/obs/): span tracing,
// histograms, backend instrumentation, the per-node profiler — plus
// integration through Session stats and the RSP wire packet log.

#include <gtest/gtest.h>

#include <sstream>

#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/support/obs/metrics.h"
#include "src/support/obs/profile.h"
#include "src/support/obs/trace.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

// --- tracer -----------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  uint64_t token = t.BeginSpan("parse");
  EXPECT_EQ(token, 0u);
  t.EndSpan(token);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TracerTest, SpansNestWithDepthAndParent) {
  obs::Tracer t;
  t.set_enabled(true);
  {
    obs::Span query(&t, "query", "x[..4]");
    { obs::Span parse(&t, "parse"); }
    {
      obs::Span eval(&t, "eval");
      { obs::Span call(&t, "backend.get_target_bytes"); }
    }
  }
  std::vector<obs::TraceEvent> events = t.Events();
  ASSERT_EQ(events.size(), 4u);
  // Spans complete innermost-first.
  EXPECT_EQ(events[0].name, "parse");
  EXPECT_EQ(events[1].name, "backend.get_target_bytes");
  EXPECT_EQ(events[2].name, "eval");
  EXPECT_EQ(events[3].name, "query");
  EXPECT_EQ(events[3].detail, "x[..4]");
  EXPECT_EQ(events[3].depth, 0);
  EXPECT_EQ(events[3].parent, 0u);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].parent, events[3].id);
  EXPECT_EQ(events[1].depth, 2);
  EXPECT_EQ(events[1].parent, events[2].id);
  EXPECT_EQ(events[2].parent, events[3].id);
}

TEST(TracerTest, RingBufferDropsOldestAndCounts) {
  obs::Tracer t(4);
  t.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    obs::Span s(&t, "span", std::to_string(i));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  std::vector<obs::TraceEvent> events = t.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, so the survivors are spans 6..9.
  EXPECT_EQ(events.front().detail, "6");
  EXPECT_EQ(events.back().detail, "9");
}

TEST(TracerTest, ClearResetsStateAndEpoch) {
  obs::Tracer t;
  t.set_enabled(true);
  { obs::Span s(&t, "a"); }
  ASSERT_EQ(t.size(), 1u);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  { obs::Span s(&t, "b"); }
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Events()[0].name, "b");
}

TEST(TracerTest, ExportJsonlShape) {
  obs::Tracer t;
  t.set_enabled(true);
  {
    obs::Span outer(&t, "outer", "de\"tail");
    obs::Span inner(&t, "inner");
  }
  std::ostringstream os;
  t.ExportJsonl(os);
  std::string text = os.str();
  // One object per line, closing newline included.
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"detail\":\"de\\\"tail\""), std::string::npos);
  EXPECT_NE(text.find("\"dur_ns\":"), std::string::npos);
  for (const char* key : {"\"id\":", "\"parent\":", "\"depth\":", "\"start_ns\":"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

// --- histogram ----------------------------------------------------------------

TEST(HistogramTest, RecordsSumMinMaxMean) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  for (uint64_t v : {4u, 8u, 12u}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 24u);
  EXPECT_EQ(h.min(), 4u);
  EXPECT_EQ(h.max(), 12u);
  EXPECT_EQ(h.mean(), 8u);
}

TEST(HistogramTest, PercentileIsBucketUpperBoundClippedToMax) {
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Record(10);  // bucket [8,16)
  }
  h.Record(1000);
  EXPECT_EQ(h.Percentile(0.5), 16u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);  // clipped to observed max
}

TEST(HistogramTest, ResetAndMerge) {
  obs::Histogram a, b;
  a.Record(5);
  b.Record(100);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 100u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  EXPECT_EQ(a.Summary(), "count=0");
}

// --- backend instrumentation -------------------------------------------------

TEST(BackendInstrTest, DisabledCallTimerCountsButDoesNotTime) {
  obs::BackendInstr instr;
  { obs::CallTimer t(instr, obs::NarrowCall::kGetBytes); }
  EXPECT_EQ(instr.calls(obs::NarrowCall::kGetBytes), 1u);
  EXPECT_EQ(instr.latency_ns(obs::NarrowCall::kGetBytes).count(), 0u);
}

TEST(BackendInstrTest, EnabledCallTimerTimesAndEmitsSpan) {
  obs::BackendInstr instr;
  obs::Tracer tracer;
  tracer.set_enabled(true);
  instr.set_enabled(true);
  instr.set_tracer(&tracer);
  { obs::CallTimer t(instr, obs::NarrowCall::kCallFunc); }
  EXPECT_EQ(instr.calls(obs::NarrowCall::kCallFunc), 1u);
  EXPECT_EQ(instr.latency_ns(obs::NarrowCall::kCallFunc).count(), 1u);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.Events()[0].name, "backend.call_target_func");
}

TEST(BackendInstrTest, ResetHistogramsKeepsCounts) {
  obs::BackendInstr instr;
  instr.set_enabled(true);
  { obs::CallTimer t(instr, obs::NarrowCall::kPutBytes); }
  instr.RecordWriteBytes(64);
  instr.ResetHistograms();
  EXPECT_EQ(instr.calls(obs::NarrowCall::kPutBytes), 1u);  // counts survive
  EXPECT_EQ(instr.latency_ns(obs::NarrowCall::kPutBytes).count(), 0u);
  EXPECT_EQ(instr.write_bytes().count(), 0u);
}

// --- per-node profiler --------------------------------------------------------

TEST(NodeProfilerTest, AttributesStepsAndAbsorbsUnknownIds) {
  obs::NodeProfiler p;
  p.Begin(3);
  p.OnStep(0);
  p.OnStep(1);
  p.OnStep(1);
  p.OnStep(-1);  // unattributed -> overflow slot
  p.OnStep(99);  // out of range -> overflow slot
  p.End();
  ASSERT_EQ(p.slots().size(), 4u);
  EXPECT_EQ(p.slots()[0].steps, 1u);
  EXPECT_EQ(p.slots()[1].steps, 2u);
  EXPECT_EQ(p.slots()[2].steps, 0u);
  EXPECT_EQ(p.slots()[3].steps, 2u);
  EXPECT_EQ(p.total_steps(), 5u);
  EXPECT_FALSE(p.active());
}

TEST(NodeProfilerTest, InactiveProfilerIgnoresSteps) {
  obs::NodeProfiler p;
  p.OnStep(0);
  EXPECT_EQ(p.total_steps(), 0u);
}

// --- session integration ------------------------------------------------------

SessionOptions StatsOptions(SessionConfig config) {
  SessionOptions o = ConfigOptions(config);
  o.collect_stats = true;
  o.profile = true;
  return o;
}

class SessionStatsTest : public ::testing::TestWithParam<SessionConfig> {};

TEST_P(SessionStatsTest, ProfileStepTotalMatchesEvalSteps) {
  DuelFixture fx(StatsOptions(GetParam()));
  scenarios::BuildIntArray(fx.image(), "x", {3, -1, 4, 1, -5, 9, 2, 6, -5, 3});
  QueryResult r = fx.session().Query("x[..10] >? 0");
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.stats.has_value());
  const obs::QueryStats& st = *r.stats;
  EXPECT_GT(st.eval.eval_steps, 0u);
  uint64_t node_total = 0;
  for (const obs::QueryStats::NodeProfile& n : st.nodes) {
    node_total += n.steps;
  }
  // The acceptance invariant: per-node steps account for every eval step.
  EXPECT_EQ(node_total, st.eval.eval_steps);
  EXPECT_EQ(st.profiled_steps, st.eval.eval_steps);
}

TEST_P(SessionStatsTest, StatsReportNarrowCallsAndBytes) {
  // This test meters raw narrow-interface traffic; the read-combining cache
  // would collapse the per-element reads into one block fetch.
  SessionOptions opts = StatsOptions(GetParam());
  opts.eval.data_cache = false;
  DuelFixture fx(opts);
  scenarios::BuildIntArray(fx.image(), "x", {3, -1, 4, 1, -5, 9, 2, 6, -5, 3});
  QueryResult r = fx.session().Query("x[..10] >? 0");
  ASSERT_TRUE(r.ok && r.stats.has_value());
  const obs::QueryStats& st = *r.stats;
  // Reading x's type + address is a symbol lookup; each element a byte read.
  const uint64_t reads = st.call_counts[static_cast<size_t>(obs::NarrowCall::kGetBytes)];
  EXPECT_GE(reads, 10u);
  EXPECT_EQ(st.read_bytes.count(), reads);
  EXPECT_EQ(st.read_bytes.sum(), reads * sizeof(int32_t));
  EXPECT_EQ(st.call_ns[static_cast<size_t>(obs::NarrowCall::kGetBytes)].count(), reads);
  EXPECT_GT(st.total_ns, 0u);
  EXPECT_GE(st.total_ns, st.eval_ns);
  // Render and ToJson must mention the narrow call by its wire name.
  std::string json = st.ToJson();
  EXPECT_NE(json.find("\"get_target_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"profile\":["), std::string::npos);
}

TEST_P(SessionStatsTest, StatsOffByDefault) {
  DuelFixture fx(ConfigOptions(GetParam()));
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3});
  QueryResult r = fx.session().Query("x[..3]");
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.stats.has_value());
  EXPECT_FALSE(fx.session().last_stats().has_value());
}

TEST_P(SessionStatsTest, TraceCapturesQueryPhases) {
  DuelFixture fx(StatsOptions(GetParam()));
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3});
  fx.session().tracer().set_enabled(true);
  QueryResult r = fx.session().Query("x[..3]");
  ASSERT_TRUE(r.ok);
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : fx.session().tracer().Events()) {
    names.push_back(e.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "query"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "parse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "eval"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "backend.get_target_bytes"), names.end());
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SessionStatsTest, kSessionConfigs, SessionConfigName);

// --- RSP wire packet log ------------------------------------------------------

TEST(PacketLogTest, LogsRequestResponsePairsBounded) {
  target::TargetImage image;
  scenarios::BuildIntArray(image, "x", {1, 2, 3, 4});
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  rsp::FramedTransport transport(server);
  rsp::RemoteBackend remote(transport);

  EXPECT_TRUE(server.packet_log().empty());
  server.set_packet_logging(true);
  Session session(remote);
  QueryResult r = session.Query("x[..4]");
  ASSERT_TRUE(r.ok);
  const std::deque<rsp::WirePacket>& log = server.packet_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.size() % 2, 0u);  // strict request/response pairing
  bool saw_read = false;
  for (size_t i = 0; i < log.size(); i += 2) {
    EXPECT_TRUE(log[i].is_request);
    EXPECT_FALSE(log[i + 1].is_request);
    // With the data cache on, reads travel as vectored qDuelReadV packets;
    // plain m-reads appear when the cache is off or on passthrough.
    if (log[i].payload[0] == 'm' || log[i].payload.rfind("qDuelReadV:", 0) == 0) {
      saw_read = true;
    }
  }
  EXPECT_TRUE(saw_read);
  server.ClearPacketLog();
  EXPECT_TRUE(server.packet_log().empty());

  // The deque is bounded at kMaxLoggedPackets.
  for (size_t i = 0; i < rsp::RspServer::kMaxLoggedPackets; ++i) {
    server.Handle("qFrames");
  }
  EXPECT_EQ(server.packet_log().size(), rsp::RspServer::kMaxLoggedPackets);
}

}  // namespace
}  // namespace duel
