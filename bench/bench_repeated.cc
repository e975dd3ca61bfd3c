// Repeated-query benchmark: the plan cache's target workload. A debugging
// session re-issues the same handful of queries over and over (watch
// expressions, re-checks after a step), so we time the same expression N
// times cold (plan cache off — the full lex → parse → analyze → execute
// pipeline every iteration) vs warm (plan cache on — the compiled half is
// replayed after the first miss).
//
// The interesting regime is short queries over small data, where build cost
// is comparable to execute cost; for x[..100000]-style sweeps execution
// dominates and both modes converge.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

// The repeated-query mix: cheap scalar reads, a build-dominated expression
// (long text, mostly constant subtrees the analyze stage folds away), a
// small filter sweep, and a short traversal — the kind of expressions a
// user re-runs at every stop.
const char* kRepeatedQueries[] = {
    "x[0] + x[1]",
    "(1 + 2*3 - 4) * (10 - 6) + x[0] * (7 % 5) - (8 | 1) + (2 << 4)",
    "x[..64] >? 0",
    "#/(x[..64] > 10)",
    "L-->next->value",
};

// Index of the build-dominated query above; the cold-vs-warm speedup
// measurement uses it because there the plan cache has the most to skip.
constexpr size_t kBuildHeavyQuery = 1;

void Build(BenchFixture& fx) {
  scenarios::BuildRandomIntArray(fx.image(), "x", 64, -100, 100, 42);
  scenarios::BuildList(fx.image(), "L", {5, 3, 8, 3, 9});
}

SessionOptions CacheOptions(bool plan_cache) {
  SessionOptions o;
  o.plan_cache = plan_cache;
  return o;
}

void BM_RepeatedCold(benchmark::State& state) {
  BenchFixture fx(CacheOptions(false));
  Build(fx);
  const char* query = kRepeatedQueries[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    fx.Drive(query);
  }
  state.SetLabel(query);
}

void BM_RepeatedWarm(benchmark::State& state) {
  BenchFixture fx(CacheOptions(true));
  Build(fx);
  const char* query = kRepeatedQueries[static_cast<size_t>(state.range(0))];
  fx.Drive(query);  // populate the cache; every timed iteration is a hit
  for (auto _ : state) {
    fx.Drive(query);
  }
  state.SetLabel(query);
  state.counters["plan_hits"] =
      static_cast<double>(fx.session().plan_cache().counters().hits);
}

void RegisterSweep(const char* name, void (*fn)(benchmark::State&)) {
  for (size_t q = 0; q < std::size(kRepeatedQueries); ++q) {
    benchmark::RegisterBenchmark(name, fn)->Arg(static_cast<int64_t>(q));
  }
}

// Machine-readable metrics: for each query, one cold run and one
// warm (cached) re-run with full stats, plus the session's plan-cache
// counters — CI reads this to assert the warm speedup and export the hit
// rate. DUEL_BENCH_METRICS overrides the path; an empty value disables it.
void WriteMetricsJson() {
  const char* env = std::getenv("DUEL_BENCH_METRICS");
  std::string path = env != nullptr ? env : "bench_repeated_metrics.json";
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return;
  }
  out << "{\"bench\":\"repeated\",\"queries\":[";
  bool first = true;
  SessionOptions opts = CacheOptions(true);
  opts.collect_stats = true;
  BenchFixture mixed(opts);
  mixed.session().options().plan_cache = true;
  Build(mixed);
  for (const char* query : kRepeatedQueries) {
    for (const char* run : {"cold", "warm"}) {
      // First pass misses and builds the plan; second pass hits it, so
      // its stats record zero build-stage time and plan_hit=true.
      mixed.Drive(query);
      if (mixed.session().last_stats().has_value()) {
        out << (first ? "\n" : ",\n") << "{\"run\":\"" << run
            << "\",\"stats\":" << mixed.session().last_stats()->ToJson() << "}";
        first = false;
      }
    }
  }
  const uint64_t lookups = mixed.session().plan_cache().counters().lookups;
  const uint64_t hits = mixed.session().plan_cache().counters().hits;
  out << "\n],\"plan_cache\":{\"lookups\":" << lookups << ",\"hits\":" << hits
      << ",\"hit_rate\":" << (lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups)
      << "}";

  // Cold-vs-warm wall time on the build-dominated query. CI asserts the
  // warm (cached) re-evaluation is at least 2x faster than the cold path.
  {
    const char* query = kRepeatedQueries[kBuildHeavyQuery];
    constexpr int kIters = 3000;
    auto time_iters = [&](BenchFixture& fx) {
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        fx.Drive(query);
      }
      return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start)
                                     .count()) /
             kIters;
    };
    BenchFixture cold(CacheOptions(false));
    cold.session().options().plan_cache = false;
    Build(cold);
    BenchFixture warm(CacheOptions(true));
    warm.session().options().plan_cache = true;
    Build(warm);
    warm.Drive(query);  // populate the cache
    time_iters(cold);   // first pass warms CPU caches / allocator on both
    time_iters(warm);
    double cold_ns = time_iters(cold);
    double warm_ns = time_iters(warm);
    out << ",\"repeat\":{\"query\":\"" << query << "\",\"iters\":" << kIters
        << ",\"cold_ns_per_query\":" << cold_ns << ",\"warm_ns_per_query\":" << warm_ns
        << ",\"speedup\":" << (warm_ns > 0 ? cold_ns / warm_ns : 0.0) << "}";
  }
  out << "}\n";
  std::cerr << "wrote repeated-query metrics to " << path << "\n";
}

}  // namespace
}  // namespace duel::bench

int main(int argc, char** argv) {
  duel::bench::RegisterSweep("BM_RepeatedCold", duel::bench::BM_RepeatedCold);
  duel::bench::RegisterSweep("BM_RepeatedWarm", duel::bench::BM_RepeatedWarm);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  duel::bench::WriteMetricsJson();
  return 0;
}
