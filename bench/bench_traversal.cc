// E7 — graph-expansion cost and the cycle-detection extension. The original
// "does not handle cycles"; ours does (a per-expansion visited set). We
// measure --> over lists and trees across sizes, dfs vs the -->> bfs
// extension, and the cost of the cycle guard.

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

void BM_ListWalk(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool cycle_detect = state.range(1) != 0;
  SessionOptions opts;
  opts.eval.cycle_detect = cycle_detect;
  opts.eval.sym_mode = EvalOptions::SymMode::kOff;
  BenchFixture fx(opts);
  std::vector<int32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<int32_t>(i);
  }
  scenarios::BuildList(fx.image(), "L", values);
  for (auto _ : state) {
    fx.Drive("#/(L-->next)");
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetLabel(cycle_detect ? "cycle-guard=on" : "cycle-guard=off");
}
BENCHMARK(BM_ListWalk)->ArgsProduct({{100, 1000, 10000, 100000}, {0, 1}});

void BM_TreeWalk(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  bool bfs = state.range(1) != 0;
  SessionOptions opts;
  opts.eval.sym_mode = EvalOptions::SymMode::kOff;
  BenchFixture fx(opts);
  std::string tree = "(1)";
  for (int d = 0; d < depth; ++d) {
    tree = "(1 " + tree + " " + tree + ")";
  }
  scenarios::BuildTree(fx.image(), "root", tree);
  std::string query =
      bfs ? "#/(root-->>(left,right))" : "#/(root-->(left,right))";
  uint64_t nodes = (1ull << (depth + 1)) - 1;
  for (auto _ : state) {
    fx.Drive(query);
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes) * state.iterations());
  state.SetLabel(bfs ? "bfs" : "dfs");
}
BENCHMARK(BM_TreeWalk)->ArgsProduct({{8, 12, 16}, {0, 1}});

void BM_WalkWithFieldAccess(benchmark::State& state) {
  // The common real query shape: walk + read a field of every node.
  size_t n = static_cast<size_t>(state.range(0));
  SessionOptions opts;
  opts.eval.sym_mode = EvalOptions::SymMode::kOff;
  BenchFixture fx(opts);
  std::vector<int32_t> values(n, 1);
  scenarios::BuildList(fx.image(), "L", values);
  for (auto _ : state) {
    fx.Drive("+/(L-->next->value)");
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_WalkWithFieldAccess)->Arg(1000)->Arg(10000);

void BM_SymbolicChainCost(benchmark::State& state) {
  // Long chains stress the symbolic chain representation; compression keeps
  // the strings O(1) instead of O(depth).
  size_t n = static_cast<size_t>(state.range(0));
  bool symbolic = state.range(1) != 0;
  SessionOptions opts;
  opts.eval.sym_mode = symbolic ? EvalOptions::SymMode::kOn : EvalOptions::SymMode::kOff;
  BenchFixture fx(opts);
  std::vector<int32_t> values(n, 1);
  scenarios::BuildList(fx.image(), "L", values);
  for (auto _ : state) {
    QueryResult r = fx.session().Query("L-->next->value ==? 99");
    benchmark::DoNotOptimize(r.value_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetLabel(symbolic ? "sym=on" : "sym=off");
}
BENCHMARK(BM_SymbolicChainCost)->ArgsProduct({{1000, 10000}, {0, 1}});

}  // namespace
}  // namespace duel::bench

BENCHMARK_MAIN();
