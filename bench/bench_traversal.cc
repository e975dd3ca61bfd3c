// E7 — graph-expansion cost and the cycle-detection extension. The original
// "does not handle cycles"; ours does (a per-expansion visited set). We
// measure --> over lists and trees across sizes, dfs vs the -->> bfs
// extension, and the cost of the cycle guard, with symbolics off and on
// (every perfbench workload runs with them on). Beside the walks, the filter
// scan is measured printed: `x[..100000] >? 0` through Session::Query.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/bench_util.h"

namespace duel::bench {
namespace {

SessionOptions SymOptions(bool symbolic) {
  SessionOptions opts;
  opts.eval.sym_mode = symbolic ? EvalOptions::SymMode::kOn : EvalOptions::SymMode::kOff;
  return opts;
}

void BuildCountingList(BenchFixture& fx, size_t n) {
  std::vector<int32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<int32_t>(i);
  }
  scenarios::BuildList(fx.image(), "L", values);
}

// A complete binary tree of the given depth (2^(depth+1) - 1 nodes).
void BuildFullTree(BenchFixture& fx, int depth) {
  std::string tree = "(1)";
  for (int d = 0; d < depth; ++d) {
    tree = "(1 " + tree + " " + tree + ")";
  }
  scenarios::BuildTree(fx.image(), "root", tree);
}

void BM_ListWalk(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool cycle_detect = state.range(1) != 0;
  bool symbolic = state.range(2) != 0;
  SessionOptions opts = SymOptions(symbolic);
  opts.eval.cycle_detect = cycle_detect;
  BenchFixture fx(opts);
  BuildCountingList(fx, n);
  for (auto _ : state) {
    fx.Drive("#/(L-->next)");
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetLabel(std::string(cycle_detect ? "cycle-guard=on" : "cycle-guard=off") +
                 (symbolic ? " sym=on" : " sym=off"));
}
BENCHMARK(BM_ListWalk)->ArgsProduct({{100, 1000, 10000, 100000}, {0, 1}, {0, 1}});

void BM_TreeWalk(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  bool bfs = state.range(1) != 0;
  bool symbolic = state.range(2) != 0;
  BenchFixture fx(SymOptions(symbolic));
  BuildFullTree(fx, depth);
  std::string query =
      bfs ? "#/(root-->>(left,right))" : "#/(root-->(left,right))";
  uint64_t nodes = (1ull << (depth + 1)) - 1;
  for (auto _ : state) {
    fx.Drive(query);
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes) * state.iterations());
  state.SetLabel(std::string(bfs ? "bfs" : "dfs") + (symbolic ? " sym=on" : " sym=off"));
}
BENCHMARK(BM_TreeWalk)->ArgsProduct({{8, 12, 16}, {0, 1}, {0, 1}});

void BM_WalkWithFieldAccess(benchmark::State& state) {
  // The common real query shape: walk + read a field of every node.
  size_t n = static_cast<size_t>(state.range(0));
  bool symbolic = state.range(1) != 0;
  BenchFixture fx(SymOptions(symbolic));
  std::vector<int32_t> values(n, 1);
  scenarios::BuildList(fx.image(), "L", values);
  for (auto _ : state) {
    fx.Drive("+/(L-->next->value)");
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetLabel(symbolic ? "sym=on" : "sym=off");
}
BENCHMARK(BM_WalkWithFieldAccess)->ArgsProduct({{1000, 10000}, {0, 1}});

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

void BM_PrintedScan(benchmark::State& state) {
  // The `duel` command's printed form of the filter scan: every pass becomes
  // a result line.
  bool symbolic = state.range(0) != 0;
  BenchFixture fx(SymOptions(symbolic));
  scenarios::BuildRandomIntArray(fx.image(), "x", 100000, -100, 100, 42);
  for (auto _ : state) {
    QueryResult r = fx.session().Query("x[..100000] >? 0");
    benchmark::DoNotOptimize(r.lines.size());
  }
  state.SetItemsProcessed(100000 * state.iterations());
  state.SetLabel(symbolic ? "sym=on" : "sym=off");
}
BENCHMARK(BM_PrintedScan)->Arg(0)->Arg(1);

// FNV-1a of a result's text, as a fixed-width hex string.
std::string TextHash(const QueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : r.Text()) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Machine-readable metrics: after the timed runs, one run of each counted
// shape per symbolics arm with full stats, written as one JSON document
// ({"bench":"traversal","queries":[{"arm":...,"stats":<obs::QueryStats>}]}).
// The printed scan adds a "print" object to its entries (its line count and
// text hash), from a default session and from one with the data and plan
// caches off, which prints value by value.
// DUEL_BENCH_METRICS overrides the output path; an empty value disables it.
void WriteMetricsJson() {
  const char* env = std::getenv("DUEL_BENCH_METRICS");
  std::string path = env != nullptr ? env : "bench_traversal_metrics.json";
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return;
  }
  out << "{\"bench\":\"traversal\",\"queries\":[";
  bool first = true;
  for (bool symbolic : {false, true}) {
    SessionOptions opts = SymOptions(symbolic);
    opts.collect_stats = true;
    BenchFixture fx(opts);
    BuildCountingList(fx, 10000);
    BuildFullTree(fx, 12);
    scenarios::BuildRandomIntArray(fx.image(), "x", 100000, -100, 100, 42);
    for (const char* q : {"#/(L-->next)", "#/(root-->(left,right))", "#/(root-->>(left,right))",
                          "#/(x[..100000] >? 0)", "+/(L-->next->value)"}) {
      fx.Drive(q);
      if (fx.session().last_stats().has_value()) {
        out << (first ? "\n" : ",\n") << "{\"arm\":\"" << (symbolic ? "sym=on" : "sym=off")
            << "\",\"stats\":" << fx.session().last_stats()->ToJson() << "}";
        first = false;
      }
    }
    for (bool cache : {true, false}) {
      SessionOptions print_opts = opts;
      print_opts.eval.data_cache = cache;
      print_opts.plan_cache = cache;
      BenchFixture pfx(print_opts);
      scenarios::BuildRandomIntArray(pfx.image(), "x", 100000, -100, 100, 42);
      QueryResult r = pfx.session().Query("x[..100000] >? 0");
      if (r.stats.has_value()) {
        out << (first ? "\n" : ",\n") << "{\"arm\":\"" << (symbolic ? "sym=on" : "sym=off")
            << "\",\"print\":{\"cache\":" << (cache ? "true" : "false")
            << ",\"lines\":" << r.lines.size() << ",\"text_fnv1a\":\"" << TextHash(r)
            << "\"},\"stats\":" << r.stats->ToJson() << "}";
        first = false;
      }
    }
  }
  out << "\n]}\n";
  std::cerr << "wrote traversal metrics to " << path << "\n";
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
