// E2 — the paper's headline timing: "For example, x[..10000] >? 0 compiles
// and executes in about 5 seconds on a DECStation 5000."
//
// We sweep the array size and time (a) parse+evaluate together, exactly the
// paper's "compiles and executes", and (b) evaluation alone. Expected shape:
// linear scaling in N; a modern CPU runs the 10k query ~4-5 orders of
// magnitude faster than the 1992 workstation.

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

void BM_HeadlineParseAndEval(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BenchFixture fx;
  scenarios::BuildRandomIntArray(fx.image(), "x", n, -100, 100, 42);
  std::string query = "x[.." + std::to_string(n) + "] >? 0";
  uint64_t values = 0;
  for (auto _ : state) {
    values += fx.Drive(query);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.counters["positives"] =
      static_cast<double>(values) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_HeadlineParseAndEval)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_HeadlineParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    Parser parser("x[..10000] >? 0");
    ParseResult r = parser.Parse();
    benchmark::DoNotOptimize(r.num_nodes);
  }
}
BENCHMARK(BM_HeadlineParseOnly);

void BM_HeadlineEvalWithOutput(benchmark::State& state) {
  // Includes result formatting (the paper's command prints all values).
  size_t n = static_cast<size_t>(state.range(0));
  bool symbolic = state.range(1) != 0;
  SessionOptions opts;
  opts.eval.sym_mode = symbolic ? EvalOptions::SymMode::kOn : EvalOptions::SymMode::kOff;
  BenchFixture fx(opts);
  scenarios::BuildRandomIntArray(fx.image(), "x", n, -100, 100, 42);
  std::string query = "x[.." + std::to_string(n) + "] >? 0";
  for (auto _ : state) {
    QueryResult r = fx.session().Query(query);
    benchmark::DoNotOptimize(r.lines.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetLabel(symbolic ? "sym=on" : "sym=off");
}
BENCHMARK(BM_HeadlineEvalWithOutput)->ArgsProduct({{10000, 100000}, {0, 1}});

// Machine-readable metrics: after the timed runs, replay the headline query
// sweep once with full stats + per-node profiling and write one
// JSON document ({"bench":"headline","queries":[<obs::QueryStats>...]}).
// DUEL_BENCH_METRICS overrides the output path; an empty value disables it.
void WriteMetricsJson() {
  const char* env = std::getenv("DUEL_BENCH_METRICS");
  std::string path = env != nullptr ? env : "bench_headline_metrics.json";
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return;
  }
  out << "{\"bench\":\"headline\",\"queries\":[";
  bool first = true;
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    SessionOptions opts;
    opts.collect_stats = true;
    opts.profile = true;
    BenchFixture fx(opts);
    scenarios::BuildRandomIntArray(fx.image(), "x", n, -100, 100, 42);
    fx.Drive("x[.." + std::to_string(n) + "] >? 0");
    if (fx.session().last_stats().has_value()) {
      out << (first ? "\n" : ",\n") << fx.session().last_stats()->ToJson();
      first = false;
    }
  }
  out << "\n]}\n";
  std::cerr << "wrote headline metrics to " << path << "\n";
}

}  // namespace
}  // namespace duel::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  duel::bench::WriteMetricsJson();
  return 0;
}
