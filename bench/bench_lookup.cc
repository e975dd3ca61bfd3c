// E4 — name-lookup cost. The paper: "type checking must be done during
// evaluation ... For example, most of the time in evaluating 1..100+i goes
// to the 100 lookups of i" (run-time symbol lookup per produced value), and
// suggests lookups "could be done at compile time using type-inference
// techniques".
//
// We compare a lookup-per-value query against a constant-only control, sweep
// the number of symbols the debugger must search, and measure the prebind
// pass (the compile-time binding the paper proposes).

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

void AddSymbols(BenchFixture& fx, size_t count) {
  target::ImageBuilder b(fx.image());
  for (size_t i = 0; i < count; ++i) {
    b.Global("g" + std::to_string(i), b.Int());
  }
  // The looked-up variable lands at the END of the globals list: worst case
  // for the linear symbol search a simple debugger performs.
  target::Addr i = b.Global("i", b.Int());
  b.PokeI32(i, 0);
}

void BM_LookupPerValue(benchmark::State& state) {
  BenchFixture fx;
  AddSymbols(fx, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fx.Drive("(1..100)+i");  // one lookup of i per produced value
  }
  fx.session().context().counters().Reset();
  fx.Drive("(1..100)+i");
  state.counters["name_lookups"] =
      static_cast<double>(fx.session().context().counters().name_lookups);
}
BENCHMARK(BM_LookupPerValue)->Arg(10)->Arg(100)->Arg(1000);

void BM_PrebindOptimization(benchmark::State& state) {
  // The paper's proposed fix ("symbol lookup could be done at compile time
  // using type-inference techniques"), implemented as the prebind pass.
  SessionOptions opts;
  opts.eval.prebind = true;
  BenchFixture fx(opts);
  AddSymbols(fx, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fx.Drive("(1..100)+i");
  }
  state.SetLabel("prebind");
}
BENCHMARK(BM_PrebindOptimization)->Arg(10)->Arg(1000);

void BM_ConstantControl(benchmark::State& state) {
  BenchFixture fx;
  AddSymbols(fx, 100);
  for (auto _ : state) {
    fx.Drive("(1..100)+5");  // no lookups at all
  }
}
BENCHMARK(BM_ConstantControl);

void BM_BoundOnceControl(benchmark::State& state) {
  // 1..(100+i): i is looked up once per drive, not once per value.
  BenchFixture fx;
  AddSymbols(fx, 100);
  for (auto _ : state) {
    fx.Drive("1..100+i");
  }
}
BENCHMARK(BM_BoundOnceControl);

}  // namespace
}  // namespace duel::bench

BENCHMARK_MAIN();
