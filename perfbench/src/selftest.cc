// Self-tests for the benchmark's own code: percentile selection, the
// per-segment summaries, ratio bases, self-time subtraction, the result
// checks (a deliberately corrupted
// result must count as failed) and the traced breakdown's span nesting.
// Exits non-zero on the first failing group.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "world.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  Expect(Near(Median(v), 50.5), "median of 1..100 is 50.5");
  Expect(Near(Percentile(v, 50), 50), "nearest-rank p50 of 1..100 is 50");
  Expect(Near(Percentile(v, 90), 90), "p90 of 1..100 is 90");
  Expect(Near(Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Expect(Near(Percentile(v, 100), 100), "p100 is the maximum");
  Expect(Near(Median({3, 1, 2}), 2), "odd median is the middle value");
  Expect(SamplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  Expect(Summarize(v, 90).tail_ok, "p90 of 100 samples is reportable");
  v.pop_back();
  Expect(SamplesBeyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  Expect(!Summarize(v, 90).tail_ok, "p90 of 99 samples is not reportable");
  Expect(Percentile({}, 50) == 0 && Median({}) == 0, "empty samples read 0");
}

void TestSegments() {
  // The first sample belongs to an earlier segment.
  std::vector<float> reads = {99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Segment s = SummarizeSegment(reads, 1, 90, 20, 2.0);
  Expect(s.reads == 10 && Near(s.read_p50_us, 5.5) && Near(s.read_tail_us, 9),
         "a segment summarises only its own samples");
  Expect(Near(s.qps, 10), "segment throughput = queries / busy seconds");

  // Three segments; the host ran at half speed (calibration 2 * kCalRefNs)
  // during the slowest, so scaled it matches the others.
  E2e e;
  e.segments = {{10, 100, 200, 1, kCalRefNs},
                {5, 200, 400, 1, 2 * kCalRefNs},
                {8, 120, 300, 1, kCalRefNs}};
  e.AddSetup(3, kCalRefNs);
  e.AddSetup(2, 2 * kCalRefNs);
  e.AddSetup(0.5, kCalRefNs);
  RunSummary r = SummarizeRun(e);
  Expect(Near(r.read_p50_us, 100) && Near(r.read_tail_us, 200),
         "latencies: median over the segments of time * ref / calibration");
  Expect(Near(r.qps, 10), "throughput: median over the segments of qps * calibration / ref");
  Expect(Near(r.setup_s, 1), "set-up: the median scaled rep");
}

double Find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) {
      return m.value;
    }
  }
  return NAN;
}

void TestRatioBases() {
  LayerReport r;
  r.queries = 20;
  r.plan.lookups = 10;  // fewer lookups than queries: the base is lookups
  r.plan.hits = 4;
  r.plan.invalidations = 2;
  r.access.hits = 6;
  r.access.misses = 2;
  r.access.passthroughs = 2;  // requests = hits + misses + passthroughs
  r.access.block_fetches = 40;
  r.executed = 4;
  r.exec_steps = 1000;
  r.exec_values = 50;
  r.exec_spans.self_ns[static_cast<size_t>(Layer::kEval)] = 8000;
  r.exec_spans.self_ns[static_cast<size_t>(Layer::kOutput)] = 500;
  r.accounted_e2e_ns = 1000;
  r.accounted_ns = 900;
  E2e untraced;
  untraced.read_us = {10, 10};
  untraced.completed = 100;
  untraced.cpu_us = 400;
  untraced.wall_s = 0.001;
  E2e traced;
  traced.read_us = {11, 11};
  std::vector<Metric> m = ReportLayers("selftest", r, untraced, traced, {});
  Expect(Near(Find(m, "plan.hit_ratio"), 0.4), "plan.hit_ratio = hits / lookups");
  Expect(Near(Find(m, "plan.invalidations_per_kquery"), 100), "invalidations per 1000 queries");
  Expect(Near(Find(m, "access.hit_ratio"), 0.6), "access.hit_ratio over all requests");
  Expect(Near(Find(m, "access.block_fetches_per_query"), 2), "block fetches per query");
  Expect(Near(Find(m, "eval.self_ns_per_query"), 2000), "eval self per executed query");
  Expect(Near(Find(m, "eval.ns_per_step"), 8), "eval ns per step");
  Expect(Near(Find(m, "output.ns_per_value"), 10), "output ns per value");
  Expect(Near(Find(m, "proc.cpu_us_per_query"), 4), "cpu per completed query");
  Expect(Near(Find(m, "trace.overhead_frac"), 0.1), "overhead = traced/untraced - 1");
  Expect(Near(Find(m, "trace.accounted_frac"), 0.9), "accounted share of traced e2e");
  Expect(Ratio(1, 0) == 0, "a ratio without a base reads 0");
}

void TestSelfTime() {
  // Parent [0,100]; two overlapping children (as from two threads) cover
  // [10,50]; a third sticks out past the parent and counts only to 100.
  std::vector<Interval> s = {
      {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 20, 50}, {4, 1, 90, 120}, {5, 2, 12, 14}};
  std::vector<uint64_t> self = SelfTimes(s);
  Expect(self[0] == 50, "parent self = 100 - |[10,50] u [90,100]|");
  Expect(self[1] == 18, "child self subtracts its own child");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 2, "leaf self = duration");

  std::vector<SpanRec> spans = {{1, 0, 7, 0, 100, Layer::kQuery},
                                {2, 1, 7, 10, 40, Layer::kBackend},
                                {3, 2, 7, 15, 35, Layer::kTransport},
                                {4, 3, 7, 20, 30, Layer::kServer}};
  LayerTotals t = Totals(spans);
  Expect(t.Self(Layer::kQuery) == 70 && t.Self(Layer::kBackend) == 10 &&
             t.Self(Layer::kTransport) == 10 && t.Self(Layer::kServer) == 10,
         "nested layer self times partition the root");
  Expect(t.Count(Layer::kBackend) == 1 && t.Dur(Layer::kQuery) == 100, "counts and durations");
}

void TestChecksAndTrace() {
  WorldSpec spec;
  spec.arrays = {{"x", 16}};
  spec.list_nodes = 4;
  spec.tree_nodes = 7;
  Model m = GenerateModel(spec, 42);
  duel::target::TargetImage image;
  BuildImage(image, m);
  duel::dbg::SimBackend sim(image);
  TracingBackend traced(sim);
  duel::Session session(traced, BenchSessionOptions());

  const std::vector<int32_t>& x = m.arrays.at("x");
  Expected want{Expected::Kind::kValues, {}};
  for (int32_t v : x) {
    if (v > 0) {
      want.items.push_back(std::to_string(v));
    }
  }
  duel::QueryResult good = session.Query("x[..16] >? 0");
  Expect(!want.items.empty() && Verify(want, good), "a correct result verifies");

  duel::QueryResult corrupt = good;
  corrupt.lines[0] = corrupt.lines[0] + "1";
  Expect(!Verify(want, corrupt), "a corrupted value counts as failed");
  corrupt = good;
  corrupt.lines.pop_back();
  Expect(!Verify(want, corrupt), "a missing line counts as failed");
  corrupt = good;
  corrupt.ok = false;
  Expect(!Verify(want, corrupt), "an error result counts as failed");
  Expect(!Verify({Expected::Kind::kRejected, {}}, good), "a success is not a rejection");

  duel::QueryResult bad = session.Query("x[1] + L * 3");
  Expect(Verify({Expected::Kind::kRejected, {}}, bad), "ill-typed query is check-rejected");
  bad.error_kind = duel::ErrorKind::kCancel;
  Expect(!Verify({Expected::Kind::kRejected, {}}, bad), "a cancel is not a rejection");

  Recorder rec;
  duel::QueryResult r;
  Breakdown b = TraceQuery(session, rec, "+/x[..16]", &r, true, &traced, nullptr);
  int64_t sum = 0;
  for (int32_t v : x) {
    sum += v;
  }
  Expect(Verify({Expected::Kind::kValues, {std::to_string(sum)}}, r), "traced query result");
  Expect(b.plan_miss && b.executed && b.exec_values == 1, "execute pass ran after a plan miss");
  Expect(b.query.Count(Layer::kQuery) == 1 && b.query.Count(Layer::kBackend) > 0,
         "backend spans nest under the query span");
  Expect(b.exec.Count(Layer::kEval) == 1 && b.exec.Count(Layer::kOutput) == 1,
         "execute pass records eval and output spans");
  Expect(b.exec.Self(Layer::kEval) + b.exec.Self(Layer::kOutput) +
                 b.exec.Dur(Layer::kBackend) <=
             b.exec.Dur(Layer::kEval) + b.exec.Dur(Layer::kBackend),
         "eval self excludes its children");
  FrontCost f = MeasureFront(session, sim, "+/x[..16]");
  Expect(f.nodes > 0 && f.total() > 0, "front cost measured");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSegments();
  perfbench::TestRatioBases();
  perfbench::TestSelfTime();
  perfbench::TestChecksAndTrace();
  if (perfbench::failures != 0) {
    std::printf("selftest: %d failures\n", perfbench::failures);
    return 1;
  }
  std::printf("selftest: all passed\n");
  return 0;
}
