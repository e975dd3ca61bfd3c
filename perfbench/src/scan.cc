// scan: one session on an in-process SimBackend running a seeded rotation of
// generator-heavy queries over large structures, with warm plans. Eval,
// output and the access layer do almost all the work; the front end almost
// none. `x` (400 KB) fits MemoryAccess's 1 MiB block cache, `big` (1.2 MB)
// overflows it.
//
// Every timed cycle, which is one segment, runs the rotation's nine entries
// (seven queries, the two cheapest listed twice) exactly once, in a seeded
// order, so every run holds the same mix. The median then falls on the tree walk, the p90 tail on the
// over-cache scan, each a clear band apart from its neighbours, so neither
// percentile straddles two query types.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "world.h"

namespace perfbench {
namespace {

constexpr size_t kX = 100'000;    // 400 KB: inside the 1 MiB block cache
constexpr size_t kBig = 300'000;  // 1.2 MB: over it
constexpr size_t kList = 10'000;
constexpr size_t kTree = 8'191;
constexpr double kTailPct = 90;

struct ScanQuery {
  std::string text;
  Expected want;
};

WorldSpec Spec() {
  WorldSpec s;
  s.arrays = {{"x", kX}, {"big", kBig}};
  s.list_nodes = kList;
  s.tree_nodes = kTree;
  s.balanced_tree = true;
  return s;
}

Expected Values(std::vector<std::string> v) { return {Expected::Kind::kValues, std::move(v)}; }

// The rotation and its references, computed from the model alone.
std::vector<ScanQuery> Rotation(const Model& m) {
  const std::vector<int32_t>& x = m.arrays.at("x");
  const std::vector<int32_t>& big = m.arrays.at("big");
  std::vector<ScanQuery> qs;

  Expected lines{Expected::Kind::kLines, {}};
  size_t positive = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0) {
      lines.items.push_back("x[" + std::to_string(i) + "] = " + std::to_string(x[i]));
      ++positive;
    }
  }
  qs.push_back({"x[..100000] >? 0", std::move(lines)});
  qs.push_back({"#/(x[..100000] >? 0)", Values({std::to_string(positive)})});

  int64_t sum = 0;
  for (int32_t v : m.list) {
    sum += v;
  }
  qs.push_back({"+/(L-->next->value)", Values({std::to_string(sum)})});
  qs.push_back({"#/(L-->next)", Values({std::to_string(m.list.size())})});
  qs.push_back(qs.back());
  qs.push_back({"#/(root-->(left,right)->key)", Values({std::to_string(m.tree.size())})});

  std::vector<std::string> names;
  for (const std::vector<SymNode>& chain : m.hash) {
    for (const SymNode& s : chain) {
      if (s.scope > 1) {
        names.push_back("\"" + s.name + "\"");
      }
    }
  }
  qs.push_back({"(hash[..1024] !=? 0)-->next->(scope >? 1 => name)", Values(std::move(names))});
  qs.push_back(qs.back());

  size_t big_positive = 0;
  for (int32_t v : big) {
    big_positive += v > 0 ? 1 : 0;
  }
  qs.push_back({"#/(big[..300000] >? 0)", Values({std::to_string(big_positive)})});
  return qs;
}

// Runs one cycle, the rotation's entries in a seeded order, into `e`; it is
// one segment. `each` runs one query and returns its latency in ns plus
// whether it matched; the segment's throughput divides by the latencies'
// sum, so checking results costs it nothing.
template <typename F>
Segment Cycle(const std::vector<ScanQuery>& qs, Rng& order, E2e& e,
              std::vector<std::vector<double>>* per_query, F&& each) {
  per_query->resize(qs.size());
  std::vector<size_t> perm(qs.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[static_cast<size_t>(order.Range(0, static_cast<int64_t>(i)))]);
  }
  const size_t first = e.read_us.size();
  uint64_t busy = 0;
  for (size_t idx : perm) {
    auto [ns, ok] = each(qs[idx]);
    busy += ns;
    e.read_us.push_back(static_cast<float>(static_cast<double>(ns) / 1e3));
    (*per_query)[idx].push_back(static_cast<double>(ns) / 1e3);
    e.attempted++;
    e.completed++;
    e.failed += ok ? 0 : 1;
  }
  return SummarizeSegment(e.read_us, first, e.read_tail_pct, perm.size(),
                          static_cast<double>(busy) / 1e9);
}

void PrintPerQuery(const std::string& workload, const char* phase,
                   const std::vector<ScanQuery>& qs,
                   const std::vector<std::vector<double>>& per_query) {
  for (size_t i = 0; i < qs.size(); ++i) {
    std::printf("%-12s %-8s median %12.1f us over %3zu runs  %s\n", workload.c_str(), phase,
                Median(per_query[i]), per_query[i].size(), qs[i].text.c_str());
  }
}

}  // namespace

Outcome RunScan(const Config& cfg) {
  Model model = GenerateModel(Spec(), cfg.seed);
  const std::vector<ScanQuery> qs = Rotation(model);

  // One set-up: build the image, open the session and compile every plan
  // (Session::Prepare); returns how many plans failed. Executing the
  // rotation here as well made set-up time swing by half between runs.
  auto set_up = [&](std::unique_ptr<duel::target::TargetImage>& image,
                    std::unique_ptr<SimRig>& rig) {
    image = std::make_unique<duel::target::TargetImage>();
    BuildImage(*image, model);
    rig = std::make_unique<SimRig>(*image, false);
    uint64_t failures = 0;
    for (const ScanQuery& q : qs) {
      failures += rig->session->Prepare(q.text) != nullptr ? 0 : 1;
    }
    return failures;
  };
  E2e e;
  e.read_tail_pct = kTailPct;
  std::unique_ptr<duel::target::TargetImage> image;
  std::unique_ptr<SimRig> rig;
  uint64_t setup_failures = 0;
  e.AddSetup(Seconds([&] { setup_failures = set_up(image, rig); }), CalibrationNs());
  auto throwaway_set_up = [&] {
    std::unique_ptr<duel::target::TargetImage> spare_image;
    std::unique_ptr<SimRig> spare_rig;
    const double s = Seconds([&] { setup_failures += set_up(spare_image, spare_rig); });
    e.attempted += qs.size();
    return s;
  };

  // The timed phase (the first half of a traced run): one cycle per
  // segment, a throwaway set-up after each.
  Rng order(cfg.seed ^ 0x5ca11ab1eull);
  std::vector<std::vector<double>> per_query;
  Alternate(cfg.trace ? cfg.seconds / 2 : cfg.seconds, e,
            [&] {
              return Cycle(qs, order, e, &per_query, [&](const ScanQuery& q) {
                uint64_t t0 = Now();
                duel::QueryResult r = rig->session->Query(q.text);
                uint64_t ns = Now() - t0;
                bool ok = Verify(q.want, r);
                if (!ok) {
                  NoteFailure(q.text, r);
                }
                return std::pair<uint64_t, bool>{ns, ok};
              });
            },
            throwaway_set_up);
  e.attempted += qs.size();
  e.failed += setup_failures;

  Outcome out;
  PrintPerQuery(cfg.workload, "untraced", qs, per_query);
  out.metrics = ReportE2e(cfg.workload, e);
  if (cfg.trace) {
    // The traced phase (the second half): a second session behind the
    // backend decorator, its plans warmed untraced, then the same cycles
    // through TraceQuery.
    SimRig traced(*image, true);
    for (const ScanQuery& q : qs) {
      e.failed += Verify(q.want, traced.session->Query(q.text)) ? 0 : 1;
      e.attempted++;
    }
    Recorder rec;
    LayerReport report;
    std::map<std::string, FrontCost> fronts;
    E2e t;
    t.read_tail_pct = kTailPct;
    per_query.clear();
    const uint64_t start = Now();
    while (Now() - start < static_cast<uint64_t>(cfg.seconds / 2 * 1e9)) {
      Cycle(qs, order, t, &per_query, [&](const ScanQuery& q) {
        duel::QueryResult r;
        Breakdown b = TraceQuery(*traced.session, rec, q.text, &r, true, traced.tracing.get(),
                                 nullptr);
        bool ok = Verify(q.want, r);
        auto it = fronts.find(q.text);
        if (it == fronts.end()) {
          it = fronts.emplace(q.text, MeasureFront(*traced.session, traced.sim, q.text)).first;
        }
        report.Add(b, it->second);
        return std::pair<uint64_t, bool>{b.e2e_ns, ok};
      });
    }
    e.attempted += t.attempted;
    e.failed += t.failed;
    PrintPerQuery(cfg.workload, "traced", qs, per_query);
    out.metrics = ReportLayers(cfg.workload, report, e, t, {});
    if (!cfg.trace_path.empty() && !rec.Dump(cfg.trace_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", cfg.trace_path.c_str());
    }
  }
  out.attempted = e.attempted;
  out.failed = e.failed;
  out.correct = e.failed == 0;
  return out;
}

}  // namespace perfbench
