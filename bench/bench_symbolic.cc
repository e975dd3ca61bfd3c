// E3 — symbolic-value overhead. The paper: "In most cases, the computation
// of the symbolic value is more expensive than computing the result.
// Furthermore, many of the symbolic computations are unnecessary ... in
// x[..1000] !=? 0, the symbolic expression x[i] is computed 1000 times, even
// though it might be printed only once."
//
// Expected shape: symbolic-on markedly slower than symbolic-off on queries
// that filter heavily (compute many, print few); the gap narrows for queries
// whose values are all printed anyway.

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

struct QuerySpec {
  const char* name;
  const char* query;
};

const QuerySpec kQueries[] = {
    {"filter_prints_one", "x[..1000] !=? 0"},           // the paper's example
    {"filter_prints_none", "x[..1000] >? 1000000"},
    {"arith_sweep", "+/(x[..1000] * 2 + 1)"},
    {"deep_expr", "#/((x[..1000] + 1) * (2,3) - 4)"},
};

void SetupImage(BenchFixture& fx) {
  // One non-zero element so the paper's query prints exactly once.
  std::vector<int32_t> x(1000, 0);
  x[500] = 7;
  scenarios::BuildIntArray(fx.image(), "x", x);
}

void BM_Symbolic(benchmark::State& state) {
  const QuerySpec& spec = kQueries[state.range(0)];
  int mode = static_cast<int>(state.range(1));
  SessionOptions opts;
  opts.eval.sym_mode = mode == 0 ? EvalOptions::SymMode::kOff : EvalOptions::SymMode::kOn;
  BenchFixture fx(opts);
  SetupImage(fx);
  for (auto _ : state) {
    // Query (not Drive): symbolic cost includes rendering what gets printed.
    QueryResult r = fx.session().Query(spec.query);
    benchmark::DoNotOptimize(r.value_count());
  }
  fx.session().context().counters().Reset();
  fx.session().Query(spec.query);
  state.counters["sym_builds"] =
      static_cast<double>(fx.session().context().counters().symbolic_builds);
  const char* mode_name = mode == 0 ? "/sym=off" : "/sym=eager";
  state.SetLabel(std::string(spec.name) + mode_name);
}
BENCHMARK(BM_Symbolic)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

}  // namespace
}  // namespace duel::bench

BENCHMARK_MAIN();
