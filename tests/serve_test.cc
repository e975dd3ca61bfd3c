// The concurrent query service: scheduling, classification, governor,
// admission control, endpoint wire protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/serve/endpoint.h"
#include "src/serve/latency_backend.h"
#include "src/serve/service.h"
#include "tests/duel_test_util.h"

namespace duel::serve {
namespace {

void BuildSharedDebuggee(target::TargetImage& image) {
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "arr", {3, -1, 4, 1, -5, 9, 2, 6, -5, 3});
  scenarios::BuildList(image, "L", {11, 27, 33, 27, 8});
  scenarios::BuildTree(image, "root", "(9 (3 (4) (5)) (12))");
}

QueryService::BackendFactory FactoryFor(target::TargetImage& image) {
  return [&image] { return std::make_unique<dbg::SimBackend>(image); };
}

// --- classification ----------------------------------------------------------

TEST(ServeClassifyTest, ReadOnlyVsMutating) {
  DuelFixture fx;
  scenarios::BuildIntArray(fx.image(), "arr", {1, 2, 3});
  scenarios::BuildList(fx.image(), "L", {4, 5});

  auto mutates = [&](const std::string& expr) {
    const CompiledQuery* plan = fx.session().Prepare(expr);
    EXPECT_NE(plan, nullptr) << expr;
    return plan != nullptr && plan->notes.mutates_target;
  };

  // Pure reads run in parallel.
  EXPECT_FALSE(mutates("arr[..3] >? 1"));
  EXPECT_FALSE(mutates("L-->next->value"));
  EXPECT_FALSE(mutates("#/(arr[..3])"));
  EXPECT_FALSE(mutates("sizeof(int)"));

  // Anything that can touch shared target state serialises.
  EXPECT_TRUE(mutates("arr[0] = 9"));
  EXPECT_TRUE(mutates("arr[0] += 1"));
  EXPECT_TRUE(mutates("arr[0]++"));
  EXPECT_TRUE(mutates("--arr[1]"));
  EXPECT_TRUE(mutates("int t;"));  // allocates target space
  // Mutation buried in a conditionally-evaluated arm still counts.
  EXPECT_TRUE(mutates("arr[0] > 0 ? arr[1] = 7 : 0"));
  // A string literal is interned into target memory on its first run.
  EXPECT_TRUE(mutates("*\"abc\""));
}

// --- parity under concurrency ------------------------------------------------

TEST(ServeTest, EightClientParityWithSerial) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  const std::vector<std::string> queries = {
      "arr[..10] >? 0",
      "L-->next->value",
      "#/(L-->next)",
      "root-->(left,right)->key",
      "arr[..10] >? 3",
      "+/(arr[..10])",
  };

  // Ground truth: one serial session over the same image.
  std::vector<std::string> expected;
  {
    dbg::SimBackend serial_backend(image);
    Session serial(serial_backend);
    for (const std::string& q : queries) {
      QueryResult r = serial.Query(q);
      ASSERT_TRUE(r.ok) << q << ": " << r.error;
      expected.push_back(r.Text());
    }
  }

  ServeOptions opts;
  opts.workers = 8;
  QueryService service(FactoryFor(image), opts);

  constexpr int kClients = 8;
  constexpr int kRounds = 12;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kClients; ++i) {
    ids.push_back(service.OpenSession());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, id = ids[static_cast<size_t>(i)]] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          QueryService::Outcome out = service.Eval(id, queries[q]);
          if (out.status != SubmitStatus::kAccepted || !out.result.ok ||
              out.result.Text() != expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent read-only results must be byte-identical to serial";

  ServeStats s = service.stats();
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kClients * kRounds * queries.size()));
  EXPECT_EQ(s.completed, s.ok);
  EXPECT_EQ(s.mutating, 0u);
  EXPECT_EQ(s.rejected_busy, 0u);
}

// Clients whose queries intern string literals, alongside clients reading
// arr. Interning allocates and writes target memory, so those queries must
// take the writer lock; the readers' results must not change.
TEST(ServeTest, StringLiteralsAlongsideReadersMatchSerial) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  const std::vector<std::string> readers = {"arr[..10] >? 0", "+/(arr[..10])", "arr[3]"};
  const std::vector<std::string> literals = {"*\"abc\"", "\"xyz\"[1]", "\"hello\" + 1",
                                             "arr[..3] + *\"a\""};
  auto expected_for = [&image](const std::vector<std::string>& queries) {
    dbg::SimBackend serial_backend(image);
    Session serial(serial_backend);
    std::vector<std::string> out;
    for (const std::string& q : queries) {
      QueryResult r = serial.Query(q);
      EXPECT_TRUE(r.ok) << q << ": " << r.error;
      out.push_back(r.Text());
    }
    return out;
  };
  const std::vector<std::string> want_readers = expected_for(readers);
  const std::vector<std::string> want_literals = expected_for(literals);

  ServeOptions opts;
  opts.workers = 4;
  QueryService service(FactoryFor(image), opts);
  constexpr int kClients = 6;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> literal_runs{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      // Every other client opens fresh sessions, so each of its rounds
      // interns the literals anew.
      const bool interns = i % 2 == 0;
      const std::vector<std::string>& queries = interns ? literals : readers;
      const std::vector<std::string>& want = interns ? want_literals : want_readers;
      for (int round = 0; round < kRounds; ++round) {
        uint64_t id = service.OpenSession();
        for (size_t q = 0; q < queries.size(); ++q) {
          QueryService::Outcome out = service.Eval(id, queries[q]);
          if (out.status != SubmitStatus::kAccepted || !out.result.ok ||
              out.result.Text() != want[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          if (interns) {
            literal_runs.fetch_add(1, std::memory_order_relaxed);
          }
        }
        service.CloseSession(id);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0)
      << "string literals and concurrent readers must match the serial session byte for byte";
  EXPECT_EQ(service.stats().mutating, static_cast<uint64_t>(literal_runs.load()));
}

// Concurrent readers that each build derived types no earlier query built:
// every cast below interns fresh pointer types in the shared image's
// TypeTable while the other clients read theirs.
TEST(ServeTest, ConcurrentFirstTimeInterningMatchesSerial) {
  const char* kBases[] = {"char",           "short",        "long",          "unsigned char",
                          "unsigned short", "unsigned int", "unsigned long", "signed char"};
  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> queries(kClients);
  for (int i = 0; i < kClients; ++i) {
    // From two stars up: `char *` already exists (printf's parameter type).
    std::string type = std::string(kBases[i]) + " *";
    for (int depth = 2; depth <= 3 + i % 4; ++depth) {
      type += "*";
      queries[i].push_back("(" + type + ")arr");
      queries[i].push_back("sizeof(" + type + ")");
    }
  }

  // Ground truth: a serial session over a second, identically built image,
  // so the shared image below has interned none of these types yet.
  std::vector<std::vector<std::string>> expected(kClients);
  {
    target::TargetImage serial_image;
    BuildSharedDebuggee(serial_image);
    dbg::SimBackend serial_backend(serial_image);
    Session serial(serial_backend);
    for (int i = 0; i < kClients; ++i) {
      for (const std::string& q : queries[i]) {
        QueryResult r = serial.Query(q);
        ASSERT_TRUE(r.ok) << q << ": " << r.error;
        expected[i].push_back(r.Text());
      }
    }
  }

  target::TargetImage image;
  BuildSharedDebuggee(image);
  ServeOptions opts;
  opts.workers = kClients;
  QueryService service(FactoryFor(image), opts);
  std::vector<uint64_t> ids;
  for (int i = 0; i < kClients; ++i) {
    ids.push_back(service.OpenSession());
  }

  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) {
        std::this_thread::yield();  // start together so the first casts overlap
      }
      for (size_t q = 0; q < queries[i].size(); ++q) {
        QueryService::Outcome out = service.Eval(ids[static_cast<size_t>(i)], queries[i][q]);
        if (out.status != SubmitStatus::kAccepted || !out.result.ok ||
            out.result.Text() != expected[i][q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent first-time interning must match the serial session byte for byte";
  EXPECT_EQ(service.stats().mutating, 0u);
}

// --- governor ---------------------------------------------------------------

TEST(ServeGovernorTest, StepBudgetCancelIsDeterministic) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildCyclicList(image, "C", {1, 2, 3, 4}, 1);

  ServeOptions opts;
  opts.session.eval.cycle_detect = false;  // make C-->next a true runaway
  opts.governor_limits = GovernorLimits{/*deadline_ms=*/0, /*max_steps=*/50'000,
                                        /*max_read_bytes=*/0};
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  std::string first_error;
  for (int run = 0; run < 3; ++run) {
    QueryService::Outcome out = service.Eval(id, "C-->next->value");
    ASSERT_EQ(out.status, SubmitStatus::kAccepted);
    EXPECT_FALSE(out.result.ok);
    ASSERT_TRUE(out.result.error_kind.has_value());
    EXPECT_EQ(*out.result.error_kind, ErrorKind::kCancel);
    EXPECT_NE(out.result.error.find("step budget"), std::string::npos) << out.result.error;
    EXPECT_NE(out.result.error.find("50000"), std::string::npos)
        << "diagnostic quotes the configured limit: " << out.result.error;
    // Partial results: values produced before the trip are kept.
    EXPECT_FALSE(out.result.lines.empty());
    // Span-carrying: the diagnostic points back into the query text.
    EXPECT_FALSE(out.result.error_span.empty());
    if (run == 0) {
      first_error = out.result.error;
    } else {
      EXPECT_EQ(out.result.error, first_error) << "same budget, same diagnostic, every run";
    }
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(ServeGovernorTest, ReadByteBudgetTrips) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  ServeOptions opts;
  opts.governor_limits = GovernorLimits{0, 0, /*max_read_bytes=*/8};
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  QueryService::Outcome out = service.Eval(id, "arr[..10]");
  ASSERT_EQ(out.status, SubmitStatus::kAccepted);
  EXPECT_FALSE(out.result.ok);
  EXPECT_EQ(out.result.error_kind, ErrorKind::kCancel);
  EXPECT_NE(out.result.error.find("target-read budget"), std::string::npos) << out.result.error;
}

TEST(ServeGovernorTest, DeadlineCancelsRunawayWhileOthersComplete) {
  target::TargetImage image;
  BuildSharedDebuggee(image);
  scenarios::BuildCyclicList(image, "C", {1, 2, 3, 4}, 1);

  ServeOptions opts;
  opts.workers = 4;
  opts.session.eval.cycle_detect = false;
  opts.governor_limits = GovernorLimits{/*deadline_ms=*/150, /*max_steps=*/0,
                                        /*max_read_bytes=*/0};
  QueryService service(FactoryFor(image), opts);

  uint64_t runaway = service.OpenSession();
  uint64_t id_a = service.OpenSession();
  uint64_t id_b = service.OpenSession();

  std::promise<QueryResult> runaway_done;
  std::future<QueryResult> runaway_future = runaway_done.get_future();
  // A filter that never passes: the walk prints nothing, so the output cap
  // cannot end it before the deadline does.
  ASSERT_EQ(service.Submit(runaway, "C-->next->value >? 100",
                           [&](QueryResult r) { runaway_done.set_value(std::move(r)); }),
            SubmitStatus::kAccepted);

  // While the runaway burns its deadline, other sessions keep being served.
  for (int i = 0; i < 10; ++i) {
    QueryService::Outcome a = service.Eval(id_a, "arr[..10] >? 0");
    QueryService::Outcome b = service.Eval(id_b, "#/(L-->next)");
    ASSERT_EQ(a.status, SubmitStatus::kAccepted);
    ASSERT_EQ(b.status, SubmitStatus::kAccepted);
    EXPECT_TRUE(a.result.ok) << a.result.error;
    EXPECT_TRUE(b.result.ok) << b.result.error;
  }

  QueryResult r = runaway_future.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kCancel);
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  EXPECT_FALSE(r.error_span.empty());
}

TEST(ServeGovernorTest, ExplicitCancelFromAnotherThread) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildCyclicList(image, "C", {1, 2, 3, 4}, 1);

  ServeOptions opts;
  opts.session.eval.cycle_detect = false;
  // Armed (so Cancel can land) but roomy enough that only the explicit
  // cancel can be what stops the query.
  opts.governor_limits = GovernorLimits{0, /*max_steps=*/40'000'000, 0};
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  // The runaway prints nothing, so it cannot end early at max_output_values.
  std::promise<QueryResult> done;
  std::future<QueryResult> future = done.get_future();
  ASSERT_EQ(service.Submit(id, "C-->next->value >? 100",
                           [&](QueryResult r) { done.set_value(std::move(r)); }),
            SubmitStatus::kAccepted);
  // Cancel reaches only a request in flight: wait for the dispatch.
  while (service.stats().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(service.Cancel(id, "operator stop"));

  QueryResult r = future.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kCancel);
  EXPECT_NE(r.error.find("operator stop"), std::string::npos) << r.error;
}

TEST(ServeGovernorTest, CancelBeforeArmTripsFirstStep) {
  // The service dispatches a request before the session arms its governor;
  // a cancel landing in between must survive the arming.
  ExecGovernor g;
  g.Cancel("stop");
  g.Arm(GovernorLimits{0, /*max_steps=*/1000, 0});
  try {
    g.ChargeStep();
    ADD_FAILURE() << "the pending cancel did not trip";
  } catch (const DuelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancel);
    EXPECT_NE(std::string(e.what()).find("stop"), std::string::npos) << e.what();
  }
  // Disarm drops the trip, so it never leaks into the next query.
  g.Disarm();
  g.Arm(GovernorLimits{0, /*max_steps=*/1000, 0});
  EXPECT_NO_THROW(g.ChargeStep());
}

TEST(ServeGovernorTest, CancelOnIdleClientLeavesNextQueryOk) {
  target::TargetImage image;
  BuildSharedDebuggee(image);
  QueryService service(FactoryFor(image));
  uint64_t id = service.OpenSession();

  EXPECT_TRUE(service.Cancel(id, "nothing in flight"));
  QueryService::Outcome out = service.Eval(id, "arr[..10] >? 0");
  ASSERT_EQ(out.status, SubmitStatus::kAccepted);
  EXPECT_TRUE(out.result.ok) << out.result.error;
}

// --- admission control -------------------------------------------------------

TEST(ServeTest, AdmissionControlRejectsBusyNeverDrops) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildCyclicList(image, "C", {1, 2, 3, 4}, 1);

  ServeOptions opts;
  opts.workers = 1;
  opts.queue_limit = 2;
  opts.session.eval.cycle_detect = false;
  opts.governor_limits = GovernorLimits{0, /*max_steps=*/200'000, 0};
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  constexpr int kSubmissions = 12;
  std::atomic<int> callbacks{0};
  int accepted = 0, busy = 0;
  for (int i = 0; i < kSubmissions; ++i) {
    SubmitStatus s = service.Submit(
        id, "C-->next->value",
        [&](QueryResult) { callbacks.fetch_add(1, std::memory_order_relaxed); });
    if (s == SubmitStatus::kAccepted) {
      accepted++;
    } else {
      ASSERT_EQ(s, SubmitStatus::kBusy) << "rejection must be the typed busy status";
      busy++;
    }
  }
  EXPECT_GT(busy, 0) << "queue_limit=2 with a slow worker must reject something";
  EXPECT_GE(accepted, 1);

  // Drain: every accepted request completes, none vanish.
  while (callbacks.load(std::memory_order_relaxed) < accepted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ServeStats s = service.stats();
  EXPECT_EQ(s.submitted, static_cast<uint64_t>(accepted));
  EXPECT_EQ(s.completed, static_cast<uint64_t>(accepted));
  EXPECT_EQ(s.rejected_busy, static_cast<uint64_t>(busy));
  EXPECT_EQ(callbacks.load(), accepted);
}

// --- cross-session consistency ----------------------------------------------

TEST(ServeTest, MutationInOneSessionVisibleToOthers) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  QueryService service(FactoryFor(image));
  uint64_t reader = service.OpenSession();
  uint64_t writer = service.OpenSession();

  QueryService::Outcome before = service.Eval(reader, "arr[0]");
  ASSERT_EQ(before.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(before.result.ok) << before.result.error;
  EXPECT_EQ(before.result.lines, (std::vector<std::string>{"arr[0] = 3"}));

  QueryService::Outcome write = service.Eval(writer, "arr[0] = 99");
  ASSERT_EQ(write.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(write.result.ok) << write.result.error;

  // The reader's next query starts a fresh data epoch (its block cache is
  // dropped) and replays a plan that holds no target bytes: it observes the
  // other session's write.
  QueryService::Outcome after = service.Eval(reader, "arr[0]");
  ASSERT_EQ(after.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(after.result.ok) << after.result.error;
  EXPECT_EQ(after.result.lines, (std::vector<std::string>{"arr[0] = 99"}));

  ServeStats s = service.stats();
  EXPECT_EQ(s.mutating, 1u);
  EXPECT_EQ(s.read_only, 2u);
  EXPECT_EQ(s.mutation_epoch, 1u);
}

// The service classifies a query by preparing it, then runs that plan: one
// plan lookup and one symbol epoch per query, so the wire carries exactly
// the round trips of a bare Session::Query.
TEST(ServeTest, EvalRunsThePreparedPlan) {
  target::TargetImage image;
  BuildSharedDebuggee(image);
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  std::vector<std::unique_ptr<rsp::FramedTransport>> wires;
  auto remote = [&] {
    wires.push_back(std::make_unique<rsp::FramedTransport>(server));
    return std::make_unique<rsp::RemoteBackend>(*wires.back());
  };
  QueryService service([&] { return remote(); });
  const uint64_t id = service.OpenSession();
  const rsp::FramedTransport& service_wire = *wires.back();
  std::unique_ptr<rsp::RemoteBackend> bare_backend = remote();
  const rsp::FramedTransport& bare_wire = *wires.back();
  Session bare(*bare_backend);

  for (const char* q : {"arr[2..8] >? 0", "#/(L-->next->value >? 10)", "arr[1] = 5"}) {
    for (int run = 0; run < 2; ++run) {  // cold, then a warm plan
      const PlanCacheCounters before = service.session(id)->plan_cache().counters();
      const uint64_t service_trips = service_wire.round_trips();
      QueryService::Outcome out = service.Eval(id, q);
      ASSERT_TRUE(out.result.ok) << q << ": " << out.result.error;
      const PlanCacheCounters after = service.session(id)->plan_cache().counters();
      EXPECT_EQ(after.lookups - before.lookups, 1u) << q << " run " << run;
      EXPECT_EQ(after.hits - before.hits, run == 0 ? 0u : 1u) << q << " run " << run;

      const uint64_t bare_trips = bare_wire.round_trips();
      QueryResult r = bare.Query(q);
      ASSERT_TRUE(r.ok) << q << ": " << r.error;
      EXPECT_EQ(r.lines, out.result.lines) << q;
      EXPECT_EQ(service_wire.round_trips() - service_trips, bare_wire.round_trips() - bare_trips)
          << q << " run " << run;
    }
  }
}

TEST(ServeTest, SessionsKeepPrivateAliases) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  QueryService service(FactoryFor(image));
  uint64_t a = service.OpenSession();
  uint64_t b = service.OpenSession();

  ASSERT_TRUE(service.Eval(a, "v := 41").result.ok);
  EXPECT_TRUE(service.Eval(a, "v + 1").result.ok);
  // The alias is session-local: client b never sees it.
  EXPECT_FALSE(service.Eval(b, "v + 1").result.ok);
}

TEST(ServeTest, CloseSessionDrainsAndSubmitAfterCloseFails) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  QueryService service(FactoryFor(image));
  uint64_t id = service.OpenSession();
  ASSERT_TRUE(service.Eval(id, "arr[0]").result.ok);
  EXPECT_TRUE(service.CloseSession(id));
  EXPECT_FALSE(service.CloseSession(id));
  EXPECT_EQ(service.Submit(id, "arr[0]", [](QueryResult) {}), SubmitStatus::kNoSuchClient);
}

TEST(ServeTest, ConcurrentDuplicateCloseIsSafe) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  ServeOptions opts;
  opts.workers = 2;
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  // Keep the session draining while the closers race: every waiter must
  // survive another closer erasing the client out from under it.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(service.Submit(id, "#/(L-->next)", [](QueryResult) {}),
              SubmitStatus::kAccepted);
  }

  constexpr int kClosers = 4;
  std::atomic<int> closed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClosers);
  for (int i = 0; i < kClosers; ++i) {
    threads.emplace_back([&] {
      if (service.CloseSession(id)) {
        closed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Exactly one closer wins; the rest report the session already gone.
  EXPECT_EQ(closed.load(), 1);
  EXPECT_EQ(service.stats().clients, 0u);
}

TEST(ServeTest, ShutdownFailsQueuedRequestsTyped) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildCyclicList(image, "C", {1, 2, 3}, 0);

  ServeOptions opts;
  opts.workers = 1;
  opts.session.eval.cycle_detect = false;
  // The deadline is only a backstop that keeps the test finite.
  opts.governor_limits = GovernorLimits{/*deadline_ms=*/10000, 0, 0};
  QueryService service(FactoryFor(image), opts);
  uint64_t id = service.OpenSession();

  // One runaway query occupies the worker; the second sits in the queue. The
  // runaway prints nothing, so only the shutdown (or the deadline) ends it:
  // an output-producing walk would stop by itself at max_output_values and
  // let the queued query run if shutdown came late on a loaded machine.
  std::promise<QueryResult> p1, p2;
  std::future<QueryResult> f1 = p1.get_future(), f2 = p2.get_future();
  ASSERT_EQ(service.Submit(id, "C-->next->value >? 100",
                           [&](QueryResult r) { p1.set_value(std::move(r)); }),
            SubmitStatus::kAccepted);
  ASSERT_EQ(service.Submit(id, "arr[..10]",
                           [&](QueryResult r) { p2.set_value(std::move(r)); }),
            SubmitStatus::kAccepted);

  service.Shutdown();
  QueryResult r1 = f1.get();  // in-flight (or still queued): cancelled by shutdown
  QueryResult r2 = f2.get();  // queued: failed typed, never silently dropped
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.error_kind, ErrorKind::kCancel);
  EXPECT_NE(r1.error.find("shutting down"), std::string::npos) << r1.error;
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.error_kind, ErrorKind::kCancel);
  EXPECT_NE(r2.error.find("shutting down"), std::string::npos) << r2.error;
  EXPECT_EQ(service.Submit(id, "arr[0]", [](QueryResult) {}), SubmitStatus::kShutdown);
  // Orphaned requests count as completed+cancelled, so the accounting
  // invariant survives shutdown.
  ServeStats s = service.stats();
  EXPECT_EQ(s.submitted, s.completed + s.queue_depth + s.in_flight);
  EXPECT_GE(s.cancelled, 1u);
}

// --- the wire endpoint -------------------------------------------------------

TEST(ServeEndpointTest, OpenEvalCloseOverSocket) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  QueryService service(FactoryFor(image));
  SocketEndpoint endpoint(service);
  EndpointClient client(endpoint.Connect());

  uint64_t id = client.Open();
  ASSERT_NE(id, 0u);

  EndpointClient::EvalReply reply = client.Eval(id, "arr[..10] >? 0");
  EXPECT_EQ(reply.status, SubmitStatus::kAccepted);
  EXPECT_TRUE(reply.ok);
  EXPECT_NE(reply.text.find("arr[2] = 4"), std::string::npos) << reply.text;

  // A failing query still arrives as a typed, rendered result.
  reply = client.Eval(id, "no_such_symbol");
  EXPECT_EQ(reply.status, SubmitStatus::kAccepted);
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.text.empty());

  // Unknown session ids are the typed E00, not a query error.
  reply = client.Eval(9999, "arr[0]");
  EXPECT_EQ(reply.status, SubmitStatus::kNoSuchClient);

  std::string json = client.StatsJson();
  EXPECT_NE(json.find("\"clients\":1"), std::string::npos) << json;

  EXPECT_TRUE(client.Close(id));
  EXPECT_FALSE(client.Close(id));
}

TEST(ServeEndpointTest, ConcurrentConnectionsShareTheService) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  ServeOptions opts;
  opts.workers = 4;
  QueryService service(FactoryFor(image), opts);
  SocketEndpoint endpoint(service);

  constexpr int kConnections = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kConnections; ++i) {
    threads.emplace_back([&] {
      EndpointClient client(endpoint.Connect());
      uint64_t id = client.Open();
      if (id == 0) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < 8; ++q) {
        EndpointClient::EvalReply reply = client.Eval(id, "#/(L-->next)");
        if (reply.status != SubmitStatus::kAccepted || !reply.ok ||
            reply.text != "5\n") {
          failures.fetch_add(1);
        }
      }
      client.Close(id);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// --- the latency decorator (bench utility) -----------------------------------

TEST(ServeTest, LatencyBackendPreservesSemantics) {
  target::TargetImage image;
  BuildSharedDebuggee(image);

  dbg::SimBackend inner(image);
  LatencyBackend slow(inner, /*per_call_us=*/1);
  Session session(slow);
  QueryResult r = session.Query("arr[..10] >? 0");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lines,
            (std::vector<std::string>{"arr[0] = 3", "arr[2] = 4", "arr[3] = 1", "arr[5] = 9",
                                      "arr[6] = 2", "arr[7] = 6", "arr[9] = 3"}));
}

}  // namespace
}  // namespace duel::serve
