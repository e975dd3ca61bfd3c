// interactive: one session on SimBackend driven by a Zipf-skewed stream of
// short, mostly distinct queries built from paper-style templates — point
// reads and arithmetic, field paths, small ranges and filters, symbol-table
// lookups, alias definitions and assignments (5%), and ill-typed queries the
// check stage must reject (2.5%). The 4096 distinct texts far exceed the
// 64-entry plan cache, and no plan is pre-warmed: cold compile is what this
// workload measures, while eval per query is tiny.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "world.h"

namespace perfbench {
namespace {

constexpr size_t kX = 65536;
constexpr size_t kW = 256;
constexpr size_t kPopulation = 4096;  // distinct query texts
constexpr double kZipfS = 1.0;
constexpr double kTailPct = 95;
constexpr size_t kReadCapacity = 5'000'000;  // pre-touched sample storage
constexpr size_t kWriteCapacity = 500'000;
constexpr double kSegmentS = 0.25;

enum class Kind { kRead, kWrite, kAlias, kIllTyped, kReadW };

struct Template {
  std::string text;
  Kind kind = Kind::kRead;
  std::vector<std::string> values;  // kRead / kAlias / kWrite expected values
  size_t slot = 0;                  // kWrite / kReadW: index into w
  int32_t wval = 0;                 // kWrite: the value written
};

WorldSpec Spec() {
  WorldSpec s;
  s.arrays = {{"x", kX}};
  s.zero_arrays = {{"w", kW}};
  s.lo = -100;
  s.hi = 100;
  s.list_nodes = 512;
  s.tree_nodes = 1023;
  return s;
}

std::string Str(int64_t v) { return std::to_string(v); }

// The query at popularity rank `rank`. The template and its shape (path
// lengths, range sizes) depend only on the rank, so every seed sees the same
// mix of work; indices, thresholds and path directions come from the seed.
Template MakeTemplate(const Model& m, size_t rank, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (rank + 1) * 0xd1b54a32d192ed03ull);
  const std::vector<int32_t>& x = m.arrays.at("x");
  auto xi = [&] { return static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kX) - 1)); };
  Template t;
  const size_t slot = rank % 40;
  if (slot < 12) {  // point reads and arithmetic
    size_t i = xi();
    size_t j = xi();
    int64_t k = rng.Range(1, 9);
    t.text = "x[" + Str(i) + "] + x[" + Str(j) + "] * " + Str(k);
    t.values = {Str(x[i] + x[j] * k)};
  } else if (slot < 16) {  // list field path
    const size_t depth = (rank / 40) % 13;
    t.text = "L";
    for (size_t d = 0; d < depth; ++d) {
      t.text += "->next";
    }
    t.text += "->value";
    t.values = {Str(m.list[depth])};
  } else if (slot < 20) {  // tree field path
    t.text = "root";
    int node = 0;
    const auto steps = static_cast<int64_t>(1 + (rank / 40) % 8);
    for (int64_t s = 0; s < steps; ++s) {
      const TreeNode& n = m.tree[static_cast<size_t>(node)];
      bool left = rng.Range(0, 1) == 0;
      int next = left ? n.left : n.right;
      if (next < 0) {
        left = !left;
        next = left ? n.left : n.right;
      }
      if (next < 0) {
        break;
      }
      t.text += left ? "->left" : "->right";
      node = next;
    }
    t.text += "->key";
    t.values = {Str(m.tree[static_cast<size_t>(node)].key)};
  } else if (slot < 26) {  // small range filter
    size_t i = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kX) - 8));
    int64_t thr = rng.Range(-50, 50);
    t.text = "x[" + Str(i) + ".." + Str(i + 7) + "] >? " + Str(thr);
    for (size_t j = i; j <= i + 7; ++j) {
      if (x[j] > thr) {
        t.values.push_back(Str(x[j]));
      }
    }
  } else if (slot < 29) {  // count over a filter
    size_t i = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kX) - 16));
    int64_t thr = rng.Range(-50, 50);
    t.text = "#/(x[" + Str(i) + ".." + Str(i + 15) + "] >? " + Str(thr) + ")";
    int64_t n = 0;
    for (size_t j = i; j <= i + 15; ++j) {
      n += x[j] > thr ? 1 : 0;
    }
    t.values = {Str(n)};
  } else if (slot < 32) {  // sum over a range
    size_t i = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kX) - 10));
    t.text = "+/x[" + Str(i) + ".." + Str(i + 9) + "]";
    int64_t sum = 0;
    for (size_t j = i; j <= i + 9; ++j) {
      sum += x[j];
    }
    t.values = {Str(sum)};
  } else if (slot < 36) {  // symbol table lookups
    size_t b = 0;
    do {
      b = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(m.hash.size()) - 1));
    } while (m.hash[b].empty());
    if (slot % 2 == 0) {
      t.text = "hash[" + Str(b) + "]->name";
      t.values = {"\"" + m.hash[b][0].name + "\""};
    } else {
      t.text = "hash[" + Str(b) + "]->scope";
      t.values = {Str(m.hash[b][0].scope)};
    }
  } else if (slot == 36) {  // alias definition
    size_t i = xi();
    t.kind = Kind::kAlias;
    t.text = "t" + Str(static_cast<int64_t>(rank % 32)) + " := x[" + Str(i) + "]";
    t.values = {Str(x[i])};
  } else if (slot == 37) {  // assignment
    t.kind = Kind::kWrite;
    t.slot = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kW) - 1));
    t.wval = static_cast<int32_t>(rng.Range(1, 1'000'000));
    t.text = "w[" + Str(t.slot) + "] = " + Str(t.wval);
    t.values = {Str(t.wval)};
  } else if (slot == 38) {  // read of the assigned array
    t.kind = Kind::kReadW;
    t.slot = static_cast<size_t>(rng.Range(0, static_cast<int64_t>(kW) - 1));
    t.text = "w[" + Str(t.slot) + "]";
  } else {  // ill-typed: struct pointer times int
    t.kind = Kind::kIllTyped;
    t.text = "x[" + Str(xi()) + "] + L * " + Str(rng.Range(2, 9));
  }
  return t;
}

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The reference for one run of `t` given the writes seen so far.
Expected Want(const Template& t, const std::vector<int32_t>& w) {
  switch (t.kind) {
    case Kind::kIllTyped:
      return {Expected::Kind::kRejected, {}};
    case Kind::kReadW:
      return {Expected::Kind::kValues, {Str(w[t.slot])}};
    default:
      return {Expected::Kind::kValues, t.values};
  }
}

// Drives the stream for `seconds` into `e`; that stretch is one segment.
// `run` executes one query and returns its latency in ns and result;
// bookkeeping (drawing, checking) is excluded from the time the segment's
// throughput divides by.
template <typename F>
Segment Stream(const std::vector<Template>& population, const Zipf& zipf, Rng& draw,
               std::vector<int32_t>& w, double seconds, E2e& e, F&& run) {
  const size_t first = e.read_us.size();
  uint64_t overhead_ns = 0;
  uint64_t count = 0;
  const uint64_t start = Now();
  const auto budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = start;
  while (now - start < budget) {
    const Template& t = population[zipf.Draw(draw)];
    duel::QueryResult r;
    uint64_t ns = run(t, &r);
    uint64_t t1 = Now();
    bool ok = Verify(Want(t, w), r);
    if (!ok) {
      NoteFailure(t.text, r);
    }
    if (ok && t.kind == Kind::kWrite) {
      w[t.slot] = t.wval;
    }
    bool mutating = t.kind == Kind::kWrite || t.kind == Kind::kAlias;
    const double us = static_cast<double>(ns) / 1e3;
    (mutating ? e.write_us : e.read_us).push_back(static_cast<float>(us));
    e.attempted++;
    e.completed++;
    e.failed += ok ? 0 : 1;
    now = Now();
    overhead_ns += now - t1;
    ++count;
  }
  return SummarizeSegment(e.read_us, first, e.read_tail_pct, count,
                          static_cast<double>(now - start - overhead_ns) / 1e9);
}

}  // namespace

Outcome RunInteractive(const Config& cfg) {
  Model model = GenerateModel(Spec(), cfg.seed);
  std::vector<Template> population;
  population.reserve(kPopulation);
  for (size_t r = 0; r < kPopulation; ++r) {
    population.push_back(MakeTemplate(model, r, cfg.seed));
  }
  const Zipf zipf(kPopulation, kZipfS);

  // One set-up: build the image and open a cold session (no plan
  // pre-warming).
  auto set_up = [&](std::unique_ptr<duel::target::TargetImage>& image,
                    std::unique_ptr<SimRig>& rig) {
    image = std::make_unique<duel::target::TargetImage>();
    BuildImage(*image, model);
    rig = std::make_unique<SimRig>(*image, false);
  };
  E2e e;
  e.Reserve(kReadCapacity, kWriteCapacity);
  e.read_tail_pct = kTailPct;
  std::unique_ptr<duel::target::TargetImage> image;
  std::unique_ptr<SimRig> rig;
  e.AddSetup(Seconds([&] { set_up(image, rig); }), CalibrationNs());
  auto throwaway_set_up = [&] {
    std::unique_ptr<duel::target::TargetImage> spare_image;
    std::unique_ptr<SimRig> spare_rig;
    return Seconds([&] { set_up(spare_image, spare_rig); });
  };

  // The timed phase (the first half of a traced run): segments of
  // kSegmentS, a throwaway set-up after each.
  std::vector<int32_t> w = model.arrays.at("w");
  Rng draw(cfg.seed ^ 0x1a7e4ac7ull);
  Alternate(cfg.trace ? cfg.seconds / 2 : cfg.seconds, e,
            [&] {
              return Stream(population, zipf, draw, w, kSegmentS, e,
                            [&](const Template& t, duel::QueryResult* r) {
                              uint64_t t0 = Now();
                              *r = rig->session->Query(t.text);
                              return Now() - t0;
                            });
            },
            throwaway_set_up);

  Outcome out;
  out.metrics = ReportE2e(cfg.workload, e);
  if (cfg.trace) {
    // The traced phase (the second half): a fresh cold session behind the
    // backend decorator over the same image (its writes already hold the
    // untraced phase's values, which `w` tracks).
    SimRig traced(*image, true);
    Recorder rec;
    LayerReport report;
    std::map<std::string, FrontCost> fronts;
    E2e t;
    t.read_tail_pct = kTailPct;
    Stream(population, zipf, draw, w, cfg.seconds / 2, t,
           [&](const Template& q, duel::QueryResult* r) {
             bool read_only = q.kind == Kind::kRead || q.kind == Kind::kReadW;
             Breakdown b = TraceQuery(*traced.session, rec, q.text, r, read_only,
                                      traced.tracing.get(), nullptr);
             auto it = fronts.find(q.text);
             if (it == fronts.end()) {
               it = fronts.emplace(q.text, MeasureFront(*traced.session, traced.sim, q.text))
                        .first;
             }
             report.Add(b, it->second);
             return b.e2e_ns;
           });
    e.attempted += t.attempted;
    e.failed += t.failed;
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
