// serve_mixed: a QueryService with 1 worker and 2 closed-loop client
// threads, so one query runs at a time and each waits behind the other
// client's. (With 4 or 2 workers, other tenants' load on the shared host's
// cores moved every timing by a fifth to a quarter between runs, and no
// calibration tracked it.) Each session's backend is an rsp::RemoteBackend over the full
// $...#cs FramedTransport codec to its own RspServer on the shared image (no
// sockets, no sleeps). Reads: 5k-element window filters on `x`, symbol-table
// chain walks, list filters and point reads, mixed so that the cheap reads
// (30%), list filters (40%) and window filters (30%) form three separate
// latency bands and the median lies mid-band. 5% of queries write a slot of
// `w` that only their client writes; each write still bumps the service's
// mutation epoch, which invalidates every other session's block cache and
// plans.

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "src/serve/service.h"
#include "world.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 1;
constexpr size_t kSlotsPerClient = 64;
constexpr size_t kX = 100'000;
constexpr size_t kList = 1'000;
constexpr size_t kWindow = 5'000;
constexpr double kSegmentS = 1;
constexpr int kWarmupPerClient = 20;
constexpr size_t kReplayQueries = 200;
constexpr double kReadTailPct = 90;  // inside the window-filter band, not its lock-wait fringe
constexpr double kWriteTailPct = 95;

WorldSpec Spec() {
  WorldSpec s;
  s.arrays = {{"x", kX}};
  s.zero_arrays = {{"w", kClients * kSlotsPerClient}};
  s.list_nodes = kList;
  return s;
}

std::string Str(int64_t v) { return std::to_string(v); }

struct Query {
  const char* kind = "";
  std::string text;
  Expected want;
  bool write = false;
  size_t slot = 0;
  int32_t value = 0;
};

// One client's seeded query stream over the unwritten data (exact
// references) plus writes to its own slots of `w`.
class Generator {
 public:
  Generator(const Model& m, uint64_t seed, size_t client)
      : m_(&m), rng_(seed * 0x9e3779b97f4a7c15ull + client * 0x632be59bd9b4e019ull + 1),
        client_(client) {}

  Query Next() {
    const std::vector<int32_t>& x = m_->arrays.at("x");
    Query q;
    q.want.kind = Expected::Kind::kValues;
    int64_t pick = rng_.Range(0, 99);
    if (pick < 5) {
      q.kind = "write";
      q.write = true;
      q.slot = client_ * kSlotsPerClient +
               static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(kSlotsPerClient) - 1));
      q.value = static_cast<int32_t>(rng_.Range(1, 1'000'000));
      q.text = "w[" + Str(static_cast<int64_t>(q.slot)) + "] = " + Str(q.value);
      q.want.items = {Str(q.value)};
    } else if (pick < 34) {
      q.kind = "window filter";
      auto a = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(kX - kWindow)));
      int64_t thr = rng_.Range(800, 990);
      q.text = "x[" + Str(static_cast<int64_t>(a)) + ".." +
               Str(static_cast<int64_t>(a + kWindow - 1)) + "] >? " + Str(thr);
      for (size_t i = a; i < a + kWindow; ++i) {
        if (x[i] > thr) {
          q.want.items.push_back(Str(x[i]));
        }
      }
    } else if (pick < 48) {
      q.kind = "chain walk";
      size_t b = NonEmptyBucket();
      q.text = "hash[" + Str(static_cast<int64_t>(b)) + "]-->next->scope";
      for (const SymNode& s : m_->hash[b]) {
        q.want.items.push_back(Str(s.scope));
      }
    } else if (pick < 86) {
      q.kind = "list filter";
      int64_t thr = rng_.Range(0, 990);
      q.text = "#/(L-->next->value >? " + Str(thr) + ")";
      int64_t n = 0;
      for (int32_t v : m_->list) {
        n += v > thr ? 1 : 0;
      }
      q.want.items = {Str(n)};
    } else if (pick < 93) {
      q.kind = "point read";
      auto i = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(kX) - 1));
      q.text = "x[" + Str(static_cast<int64_t>(i)) + "]";
      q.want.items = {Str(x[i])};
    } else {
      q.kind = "point read";
      size_t b = NonEmptyBucket();
      q.text = "hash[" + Str(static_cast<int64_t>(b)) + "]->name";
      q.want.items = {"\"" + m_->hash[b][0].name + "\""};
    }
    return q;
  }

 private:
  size_t NonEmptyBucket() {
    size_t b = 0;
    do {
      b = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(m_->hash.size()) - 1));
    } while (m_->hash[b].empty());
    return b;
  }

  const Model* m_;
  Rng rng_;
  size_t client_;
};

// The shared image, its per-session rigs and the service. Rigs are owned
// here and outlive the service (declared first, destroyed last), so the
// backends the factory hands out never dangle. Untraced sessions own their
// RemoteBackend directly; traced ones own a TracingBackend over it, bound to
// the client's slot.
class World {
 public:
  World(Model& model, Recorder* rec) : rec_(rec) {
    BuildImage(image_, model);
    for (ClientSlot& s : slots_) {
      s.recorder = rec_;
    }
    duel::serve::ServeOptions opts;
    opts.workers = kWorkers;
    opts.session = BenchSessionOptions();
    service_ = std::make_unique<duel::serve::QueryService>(
        [this]() -> std::unique_ptr<duel::dbg::DebuggerBackend> {
          std::lock_guard<std::mutex> lock(mu_);
          const bool traced = rec_ != nullptr;
          rigs_.push_back(std::make_unique<RemoteRig>(image_, traced));
          if (!traced) {
            return rigs_.back()->TakeBackend();
          }
          auto t = std::make_unique<TracingBackend>(rigs_.back()->backend(),
                                                    &slots_[rigs_.size() - 1]);
          tracing_.push_back(t.get());
          return t;
        },
        opts);
    for (size_t c = 0; c < kClients; ++c) {
      ids_.push_back(service_->OpenSession());
    }
  }
  ~World() { service_->Shutdown(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  duel::serve::QueryService& service() { return *service_; }
  uint64_t id(size_t c) const { return ids_[c]; }
  ClientSlot& slot(size_t c) { return slots_[c]; }
  duel::target::TargetImage& image() { return image_; }
  uint64_t wire_bytes() const {
    uint64_t n = 0;
    for (const auto& r : rigs_) {
      n += r->wire().bytes_on_wire();
    }
    return n;
  }
  uint64_t backend_bytes() const {
    uint64_t n = 0;
    for (const TracingBackend* t : tracing_) {
      n += t->bytes_read();
    }
    return n;
  }
  // Sums of the sessions' counters; only while no client has work queued.
  void Counters(duel::PlanCacheCounters* plan, duel::CacheCounters* access,
                duel::EvalCounters* eval) {
    *plan = {};
    *access = {};
    *eval = {};
    for (uint64_t id : ids_) {
      duel::Session* s = service_->session(id);
      Accumulate(*plan, s->plan_cache().counters());
      Accumulate(*access, s->context().access().counters());
      Accumulate(*eval, s->context().counters());
    }
  }

 private:
  duel::target::TargetImage image_;
  Recorder* rec_;  // null: untraced
  std::mutex mu_;
  std::vector<std::unique_ptr<RemoteRig>> rigs_;
  std::vector<TracingBackend*> tracing_;
  std::array<ClientSlot, kClients> slots_;
  std::unique_ptr<duel::serve::QueryService> service_;
  std::vector<uint64_t> ids_;
};

// What one client thread saw.
struct ClientLog {
  std::vector<float> read_us;
  std::vector<float> write_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<size_t, int32_t> last_write;  // slot -> value
  std::map<std::string, std::vector<double>> by_kind;  // latency (us) per query kind
  // Traced phase only.
  LayerTotals spans;
  uint64_t read_e2e_ns = 0;
  uint64_t read_attributed_ns = 0;  // start wait + backend/rsp self, reads
  uint64_t reads = 0;
  uint64_t e2e_ns = 0;
  uint64_t start_wait_ns = 0;
  uint64_t exec_ns = 0;
  std::vector<std::string> read_texts;  // the first kReplayQueries, for replay
};

// One submit-and-wait, traced: the root span runs from Submit until the
// client has the result; the worker's backend spans adopt it via the slot.
duel::QueryResult TracedEval(World& w, size_t c, Recorder& rec, const std::string& text,
                             ClientLog& log, bool* accepted) {
  ClientSlot& slot = w.slot(c);
  const uint64_t q = rec.NewId();
  const uint64_t root = rec.NewId();
  slot.first_begin_ns.store(0, std::memory_order_release);
  slot.root.store(root, std::memory_order_release);
  slot.query.store(q, std::memory_order_release);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  duel::QueryResult result;
  uint64_t t_done = 0;
  const uint64_t t0 = Now();
  duel::serve::SubmitStatus st =
      w.service().Submit(w.id(c), text, [&](duel::QueryResult r) {
        std::lock_guard<std::mutex> lock(mu);
        t_done = Now();
        result = std::move(r);
        done = true;
        cv.notify_one();
      });
  *accepted = st == duel::serve::SubmitStatus::kAccepted;
  if (*accepted) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  const uint64_t t1 = Now();
  slot.query.store(0, std::memory_order_release);

  std::vector<SpanRec> spans = rec.Take(q);
  spans.push_back({root, 0, q, t0, t1, Layer::kQuery});
  LayerTotals t = Totals(spans);
  log.spans.Add(t);
  log.e2e_ns += t1 - t0;
  uint64_t begin = slot.first_begin_ns.load(std::memory_order_acquire);
  if (*accepted && begin >= t0 && t_done >= begin) {
    log.start_wait_ns += begin - t0;
    log.exec_ns += t_done - begin;
  }
  return result;
}

// Runs client `c` until `deadline` (or `limit` queries). Traced when `rec`
// is set.
void ClientLoop(World& w, size_t c, Generator& gen, uint64_t deadline, uint64_t limit,
                Recorder* rec, ClientLog& log) {
  for (uint64_t n = 0; n < limit && Now() < deadline; ++n) {
    Query q = gen.Next();
    duel::QueryResult r;
    bool accepted = false;
    uint64_t ns = 0;
    if (rec == nullptr) {
      uint64_t t0 = Now();
      duel::serve::QueryService::Outcome o = w.service().Eval(w.id(c), q.text);
      ns = Now() - t0;
      accepted = o.status == duel::serve::SubmitStatus::kAccepted;
      r = std::move(o.result);
    } else {
      const uint64_t e2e0 = log.e2e_ns;
      const uint64_t wait0 = log.start_wait_ns;
      const LayerTotals spans0 = log.spans;
      r = TracedEval(w, c, *rec, q.text, log, &accepted);
      ns = log.e2e_ns - e2e0;
      if (!q.write) {
        log.reads++;
        log.read_e2e_ns += ns;
        log.read_attributed_ns +=
            (log.start_wait_ns - wait0) +
            (log.spans.Self(Layer::kBackend) - spans0.Self(Layer::kBackend)) +
            (log.spans.Self(Layer::kTransport) - spans0.Self(Layer::kTransport)) +
            (log.spans.Self(Layer::kServer) - spans0.Self(Layer::kServer));
        if (log.read_texts.size() < kReplayQueries) {
          log.read_texts.push_back(q.text);
        }
      }
    }
    bool ok = accepted && Verify(q.want, r);
    if (!ok) {
      NoteFailure(q.text, r);
    }
    if (ok && q.write) {
      log.last_write[q.slot] = q.value;
    }
    const double us = static_cast<double>(ns) / 1e3;
    (q.write ? log.write_us : log.read_us).push_back(static_cast<float>(us));
    log.by_kind[q.kind].push_back(us);
    log.attempted++;
    log.failed += ok ? 0 : 1;
  }
}

// Runs all clients concurrently until `seconds` pass; returns their logs.
std::vector<ClientLog> RunClients(World& w, std::vector<Generator>& gens, double seconds,
                                  Recorder* rec) {
  std::vector<ClientLog> logs(kClients);
  const uint64_t deadline = Now() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { ClientLoop(w, c, gens[c], deadline, UINT64_MAX, rec, logs[c]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return logs;
}

// Warm-up: each client in turn runs its first kWarmupPerClient queries, so
// the first-run costs are paid without the lock contention of the timed
// phase making set-up time erratic.
std::vector<ClientLog> WarmUp(World& w, std::vector<Generator>& gens) {
  std::vector<ClientLog> logs(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ClientLoop(w, c, gens[c], UINT64_MAX, kWarmupPerClient, nullptr, logs[c]);
  }
  return logs;
}

// After a phase: `w` in target memory must hold each client's last write per
// slot (0 where never written). Returns the number of wrong slots.
uint64_t CheckWrites(World& w, Model& model, const std::vector<ClientLog>& logs) {
  std::vector<int32_t> want(kClients * kSlotsPerClient, 0);
  for (const ClientLog& log : logs) {
    for (const auto& [slot, value] : log.last_write) {
      want[slot] = value;
    }
  }
  const duel::target::Addr base = model.array_addr.at("w");
  uint64_t wrong = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    int32_t got = w.image().memory().ReadScalar<int32_t>(base + i * sizeof(int32_t));
    wrong += got == want[i] ? 0 : 1;
  }
  return wrong;
}

std::vector<Generator> Generators(const Model& model, uint64_t seed) {
  std::vector<Generator> gens;
  for (size_t c = 0; c < kClients; ++c) {
    gens.emplace_back(model, seed, c);
  }
  return gens;
}

void Merge(E2e& e, const std::vector<ClientLog>& logs) {
  for (const ClientLog& log : logs) {
    e.read_us.insert(e.read_us.end(), log.read_us.begin(), log.read_us.end());
    e.write_us.insert(e.write_us.end(), log.write_us.begin(), log.write_us.end());
    e.attempted += log.attempted;
    e.failed += log.failed;
    e.completed += log.attempted;
  }
}

}  // namespace

Outcome RunServeMixed(const Config& cfg) {
  Model model = GenerateModel(Spec(), cfg.seed);

  // One set-up: build the image, start the service, open the remote
  // sessions and warm each in turn (WarmUp).
  E2e e;
  e.read_tail_pct = kReadTailPct;
  e.write_tail_pct = kWriteTailPct;
  std::unique_ptr<World> world;
  std::vector<Generator> gens = Generators(model, cfg.seed);
  std::vector<ClientLog> warm;
  e.AddSetup(Seconds([&] {
               world = std::make_unique<World>(model, nullptr);
               warm = WarmUp(*world, gens);
             }),
             CalibrationNs());
  // A throwaway set-up over its own image, checked like the real one.
  auto throwaway_set_up = [&] {
    std::unique_ptr<World> spare;
    std::vector<Generator> spare_gens = Generators(model, cfg.seed);
    std::vector<ClientLog> spare_warm;
    const double s = Seconds([&] {
      spare = std::make_unique<World>(model, nullptr);
      spare_warm = WarmUp(*spare, spare_gens);
    });
    for (const ClientLog& log : spare_warm) {
      e.attempted += log.attempted;
      e.failed += log.failed;
    }
    e.attempted += kClients * kSlotsPerClient;
    e.failed += CheckWrites(*spare, model, spare_warm);
    return s;
  };

  // The timed phase (the first half of a traced run): segments of kSegmentS
  // with all clients running, a throwaway set-up after each.
  const duel::serve::ServeStats s0 = world->service().stats();
  std::vector<ClientLog> logs;
  Alternate(cfg.trace ? cfg.seconds / 2 : cfg.seconds, e,
            [&] {
              const size_t first = e.read_us.size();
              std::vector<ClientLog> seg;
              const double wall = Seconds([&] { seg = RunClients(*world, gens, kSegmentS, nullptr); });
              Merge(e, seg);
              uint64_t done = 0;
              for (const ClientLog& log : seg) {
                done += log.attempted;
              }
              logs.insert(logs.end(), seg.begin(), seg.end());
              return SummarizeSegment(e.read_us, first, e.read_tail_pct, done, wall);
            },
            throwaway_set_up);
  const duel::serve::ServeStats s1 = world->service().stats();
  for (const ClientLog& log : warm) {
    e.attempted += log.attempted;
    e.failed += log.failed;
  }
  std::vector<ClientLog> all = warm;
  all.insert(all.end(), logs.begin(), logs.end());
  uint64_t wrong_slots = CheckWrites(*world, model, all);
  e.attempted += kClients * kSlotsPerClient;
  e.failed += wrong_slots;

  Outcome out;
  std::map<std::string, std::vector<double>> by_kind;
  for (const ClientLog& log : logs) {
    for (const auto& [kind, v] : log.by_kind) {
      by_kind[kind].insert(by_kind[kind].end(), v.begin(), v.end());
    }
  }
  for (const auto& [kind, v] : by_kind) {
    std::printf("%-12s %-14s median %10.1f us  share %.3f\n", cfg.workload.c_str(), kind.c_str(),
                Median(v), Ratio(static_cast<double>(v.size()), static_cast<double>(e.completed)));
  }
  out.metrics = ReportE2e(cfg.workload, e);
  if (wrong_slots != 0) {
    std::printf("%-12s %llu slots of w differ from the clients' last writes\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(wrong_slots));
  }

  if (cfg.trace) {
    world.reset();
    Recorder rec;
    World traced(model, &rec);
    std::vector<Generator> tgens = Generators(model, cfg.seed + 1);
    std::vector<ClientLog> twarm = WarmUp(traced, tgens);
    duel::PlanCacheCounters p0;
    duel::CacheCounters a0;
    duel::EvalCounters e0;
    traced.Counters(&p0, &a0, &e0);
    const uint64_t wire0 = traced.wire_bytes();
    const uint64_t bytes0 = traced.backend_bytes();
    std::vector<ClientLog> tlogs = RunClients(traced, tgens, cfg.seconds / 2, &rec);
    duel::PlanCacheCounters p1;
    duel::CacheCounters a1;
    duel::EvalCounters e1;
    traced.Counters(&p1, &a1, &e1);

    E2e t;
    Merge(t, tlogs);
    std::vector<ClientLog> tall = twarm;
    tall.insert(tall.end(), tlogs.begin(), tlogs.end());
    uint64_t twrong = CheckWrites(traced, model, tall);
    e.attempted += t.attempted + kClients * kSlotsPerClient;
    e.failed += t.failed + twrong;
    for (const ClientLog& log : twarm) {
      e.attempted += log.attempted;
      e.failed += log.failed;
    }

    LayerReport report;
    uint64_t reads = 0;
    uint64_t start_wait = 0;
    uint64_t exec = 0;
    for (const ClientLog& log : tlogs) {
      report.queries += log.attempted;
      report.query_spans.Add(log.spans);
      report.accounted_e2e_ns += log.read_e2e_ns;
      report.accounted_ns += log.read_attributed_ns;
      reads += log.reads;
      start_wait += log.start_wait_ns;
      exec += log.exec_ns;
    }
    report.wire_bytes = traced.wire_bytes() - wire0;
    report.backend_bytes = traced.backend_bytes() - bytes0;
    report.plan = Delta(p0, p1);
    report.access = Delta(a0, a1);
    report.eval = Delta(e0, e1);

    // Replay: the first read texts of each client through a bench-side
    // session on a traced rig over the same image (service idle), for the
    // execute-pass split into eval and output and the front cost.
    RemoteRig rig(traced.image(), true);
    TracingBackend replay_backend(rig.backend());
    duel::Session replay(replay_backend, BenchSessionOptions());
    std::map<std::string, FrontCost> fronts;
    for (const ClientLog& log : tlogs) {
      for (const std::string& text : log.read_texts) {
        duel::QueryResult r;
        Breakdown b = TraceQuery(replay, rec, text, &r, true, &replay_backend, &rig.wire());
        auto it = fronts.find(text);
        if (it == fronts.end()) {
          it = fronts.emplace(text, MeasureFront(replay, rig.backend(), text)).first;
        }
        report.AddExec(b, it->second);
      }
    }
    // Session-side work of the live reads, estimated from the replay: eval
    // and output self time per executed query, and the front cost on misses.
    const double per_exec =
        Ratio(static_cast<double>(report.exec_spans.Self(Layer::kEval) +
                                  report.exec_spans.Self(Layer::kOutput)),
              static_cast<double>(report.executed));
    double front_mean = 0;
    for (const FrontCost& f : report.fronts) {
      front_mean += static_cast<double>(f.total());
    }
    front_mean = Ratio(front_mean, static_cast<double>(report.fronts.size()));
    const double miss_rate = Ratio(static_cast<double>(report.plan.misses),
                                   static_cast<double>(report.plan.lookups));
    report.accounted_ns += static_cast<uint64_t>(static_cast<double>(reads) *
                                                 (per_exec + miss_rate * front_mean));

    const double served = static_cast<double>(s1.completed - s0.completed);
    const double classified =
        static_cast<double>((s1.read_only + s1.mutating) - (s0.read_only + s0.mutating));
    const auto q = static_cast<double>(report.queries);
    std::vector<Metric> extra = {
        {"serve.queue_wait_us",
         Ratio(static_cast<double>(s1.queue_ns.sum() - s0.queue_ns.sum()),
               static_cast<double>(s1.queue_ns.count() - s0.queue_ns.count())) /
             1e3,
         "us"},
        {"serve.start_wait_us", Ratio(static_cast<double>(start_wait), q) / 1e3, "us"},
        {"serve.exec_us", Ratio(static_cast<double>(exec), q) / 1e3, "us"},
        {"serve.mutating_share", Ratio(static_cast<double>(s1.mutating - s0.mutating), classified),
         "ratio"},
        {"serve.epoch_bumps_per_kquery",
         Ratio(1000.0 * static_cast<double>(s1.mutation_epoch - s0.mutation_epoch), served),
         "count"},
        {"rsp.server_ns_per_request",
         Ratio(static_cast<double>(report.query_spans.Self(Layer::kServer)),
               static_cast<double>(report.query_spans.Count(Layer::kServer))),
         "ns"},
        {"rsp.codec_ns_per_round_trip",
         Ratio(static_cast<double>(report.query_spans.Self(Layer::kTransport)),
               static_cast<double>(report.query_spans.Count(Layer::kTransport))),
         "ns"},
    };
    out.metrics = ReportLayers(cfg.workload, report, e, t, extra);
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
