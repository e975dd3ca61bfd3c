// E6 — DUEL one-liners vs the conventional-debugger C code the paper's
// Introduction contrasts them with. Both run on the same substrate: the
// baseline is a single-value C interpreter (what a debugger that "accepts
// source-language statements" would do). We report runtime and query length
// (the paper's argument is concision at comparable cost).

#include <cstring>

#include "bench/bench_util.h"
#include "src/baseline/baseline.h"

namespace duel::bench {
namespace {

struct Pair {
  const char* name;
  const char* duel;
  const char* c_code;
};

const Pair kPairs[] = {
    {"positive_elements",
     "x[..1000] >? 0",
     "int i; for (i = 0; i < 1000; i++)"
     " if (x[i] > 0) printf(\"x[%d] = %d\\n\", i, x[i]);"},
    {"hash_scope_scan",
     "(hash[..1024] !=? 0)->scope >? 5",
     "int i; for (i = 0; i < 1024; i++)"
     " if (hash[i] != 0)"
     "  if (hash[i]->scope > 5)"
     "   printf(\"hash[%d]->scope = %d\\n\", i, hash[i]->scope);"},
    {"list_duplicates",
     "L-->next->(value ==? next-->next->value)",
     "List *p, *q;"
     " for (p = L; p; p = p->next)"
     "  for (q = p->next; q; q = q->next)"
     "   if (p->value == q->value) printf(\"%x %x contain %d\\n\", 1, 2, p->value);"},
};

void SetupImage(target::TargetImage& image) {
  scenarios::BuildRandomIntArray(image, "x", 1000, -100, 100, 3);
  scenarios::BuildDenseSymtab(image, 1024, 9);
  std::vector<int32_t> values(300);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i);
  }
  values[250] = 17;
  values[17] = 17;  // one duplicate pair
  scenarios::BuildList(image, "L", values);
}

void BM_Duel(benchmark::State& state) {
  const Pair& pair = kPairs[state.range(0)];
  BenchFixture fx;
  SetupImage(fx.image());
  for (auto _ : state) {
    QueryResult r = fx.session().Query(pair.duel);
    benchmark::DoNotOptimize(r.value_count());
    fx.image().output().clear();
  }
  state.counters["query_chars"] = static_cast<double>(strlen(pair.duel));
  state.SetLabel(std::string(pair.name) + "/duel");
}
BENCHMARK(BM_Duel)->Arg(0)->Arg(1)->Arg(2);

void BM_BaselineC(benchmark::State& state) {
  const Pair& pair = kPairs[state.range(0)];
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  SetupImage(image);
  dbg::SimBackend backend(image);
  EvalContext ctx(backend, EvalOptions());
  for (auto _ : state) {
    std::string out = baseline::RunBaselineQuery(backend, ctx, pair.c_code);
    benchmark::DoNotOptimize(out.size());
    image.output().clear();
  }
  state.counters["query_chars"] = static_cast<double>(strlen(pair.c_code));
  state.SetLabel(std::string(pair.name) + "/C-loop");
}
BENCHMARK(BM_BaselineC)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace duel::bench

BENCHMARK_MAIN();
