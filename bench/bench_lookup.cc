// E4 — name-lookup cost. The paper: "type checking must be done during
// evaluation ... For example, most of the time in evaluating 1..100+i goes
// to the 100 lookups of i" (run-time symbol lookup per produced value), and
// suggests lookups "could be done at compile time using type-inference
// techniques".
//
// We compare a lookup-per-value query against a constant-only control, sweep
// the number of symbols the debugger must search, and measure the session's
// analyze stage, which binds the name at compile time as the paper proposes.

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

uint64_t SymbolLookups(BenchFixture& fx) {
  return fx.backend().instr().calls(obs::NarrowCall::kSymbolLookup);
}

// Drives a bare parse through the engine with no annotations: every name is
// looked up each time it is evaluated, as in the original implementation.
uint64_t DriveUnannotated(EvalContext& ctx, const ParseResult& parsed) {
  ctx.BeginQuery();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);
  uint64_t n = 0;
  while (engine.Next()) {
    ++n;
  }
  benchmark::DoNotOptimize(n);
  return n;
}

void BM_LookupPerValue(benchmark::State& state) {
  BenchFixture fx;
  AddSymbols(fx, static_cast<size_t>(state.range(0)));
  ParseResult parsed = Parser("(1..100)+i").Parse();  // one lookup of i per value
  EvalContext& ctx = fx.session().context();
  for (auto _ : state) {
    DriveUnannotated(ctx, parsed);
  }
  uint64_t before = SymbolLookups(fx);
  DriveUnannotated(ctx, parsed);
  state.counters["symbol_lookups"] = static_cast<double>(SymbolLookups(fx) - before);
}
BENCHMARK(BM_LookupPerValue)->Arg(10)->Arg(100)->Arg(1000);

void BM_BoundAtCompileTime(benchmark::State& state) {
  // The paper's proposed fix ("symbol lookup could be done at compile time
  // using type-inference techniques"): the session's analyze stage binds i
  // once per plan.
  BenchFixture fx;
  AddSymbols(fx, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fx.Drive("(1..100)+i");
  }
  uint64_t before = SymbolLookups(fx);
  fx.Drive("(1..100)+i");
  state.counters["symbol_lookups"] = static_cast<double>(SymbolLookups(fx) - before);
}
BENCHMARK(BM_BoundAtCompileTime)->Arg(10)->Arg(1000);

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
