// The concurrent query service: one shared target, N client sessions.
//
// The paper's duel is a single-user command inside one debugger. This
// subsystem is the "debugger as a service" shape: one QueryService owns a
// shared target (through a backend factory producing per-session views of
// it) and serves many concurrent clients, each with its own Session —
// private aliases, private plan cache, private governor.
//
// Request flow:
//
//   Submit ── admission ──> per-client FIFO ── round-robin ──> worker pool
//                │                                                 │
//                └ queue full -> SubmitStatus::kBusy       MutatesTarget (read/write)
//                                                                  │
//                                      read-only: shared target lock, parallel
//                                      mutating:  writer lock
//
// Scheduling is fair per client, not per request: workers pick the next
// client after the previously dispatched one (round-robin over client ids)
// that has queued work and no query in flight — a client hammering the
// service cannot starve the others, and one session never runs two queries
// at once (Sessions are single-threaded by design).
//
// Consistency: read-only queries from different sessions run truly in
// parallel against the shared image (reads are const; the type table's
// runtime interning is internally locked). Any query that can mutate the
// target is mutating (MutatesTarget, ast.h) and runs exclusively. No
// session needs telling about another's writes: every query starts a fresh
// data epoch (its block cache and backend lookup memo are dropped), and
// cached plans hold no target bytes — they go stale only when the backend's
// symbol epoch moves, which target writes and calls do not do.
//
// Runaway protection: every session's governor is armed per query from the
// service's default limits (deadline / step budget / read-byte budget), so
// an `L-->next` over a cyclic list dies with a span-carrying kCancel
// diagnostic and partial results while every other session keeps running.
// Cancel(client, reason) trips the same mechanism from outside. The service
// drops a pending cancel when it dispatches a request, under the same lock
// Cancel takes, so a cancel aimed at the in-flight request is never lost
// (even before the session arms its governor) and never hits a later one.

#ifndef DUEL_SERVE_SERVICE_H_
#define DUEL_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dbg/backend.h"
#include "src/duel/session.h"
#include "src/support/obs/metrics.h"

namespace duel::serve {

struct ServeOptions {
  size_t workers = 4;       // worker threads executing queries
  size_t queue_limit = 64;  // max queued requests across all clients

  // Default governor limits armed for every query (a session template may
  // override by carrying its own limits). Zeroing all three runs ungoverned.
  GovernorLimits governor_limits{/*deadline_ms=*/5000,
                                 /*max_steps=*/25'000'000,
                                 /*max_read_bytes=*/256ull << 20};

  // Template for per-client sessions (eval options, check mode...).
  SessionOptions session;
};

// Typed admission verdict: the wire layer maps these onto distinct
// responses, so a full queue is never confused with a failed query.
enum class SubmitStatus {
  kAccepted,
  kBusy,          // queue_limit reached: retry later
  kNoSuchClient,  // unknown or closing client id
  kShutdown,      // service is stopping
};

const char* SubmitStatusName(SubmitStatus s);

// A point-in-time snapshot of the service counters (see stats()).
struct ServeStats {
  uint64_t submitted = 0;      // accepted requests
  uint64_t completed = 0;      // requests whose callback has run or is running
  uint64_t ok = 0;             // completed with result.ok
  uint64_t query_errors = 0;   // completed with !result.ok (excluding cancels)
  uint64_t cancelled = 0;      // completed with a kCancel diagnostic
  uint64_t rejected_busy = 0;  // admission rejections (kBusy)
  uint64_t read_only = 0;      // ran under the shared lock
  uint64_t mutating = 0;       // ran under the writer lock
  size_t queue_depth = 0;      // requests queued right now (gauge)
  size_t in_flight = 0;        // queries executing right now (gauge)
  size_t clients = 0;          // open sessions
  size_t workers = 0;
  uint64_t mutation_epoch = 0;  // equals `mutating` (kept for existing readers)

  obs::Histogram latency_ns;  // submit -> completion, end to end
  obs::Histogram queue_ns;    // submit -> dispatch (time spent queued)

  std::string Summary() const;  // one line, grep-stable
  std::string ToJson() const;
};

class QueryService {
 public:
  // Each client session gets its own backend instance (its own counters,
  // instrumentation and client-side caches) over the shared target — the
  // factory is called once per OpenSession. It must produce backends that
  // tolerate concurrent *reads* of the shared target; the service
  // serialises everything that mutates it.
  using BackendFactory = std::function<std::unique_ptr<dbg::DebuggerBackend>()>;

  explicit QueryService(BackendFactory factory, ServeOptions opts = {});
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Opens a new client session; returns its id (never 0).
  uint64_t OpenSession();

  // Waits for the client's queued/in-flight work to drain, then discards
  // the session. False when the id is unknown.
  bool CloseSession(uint64_t client);

  // Asynchronous submission. On kAccepted, `done` runs exactly once on a
  // worker thread with the query's result; on any other status it never
  // runs. `done` must not call back into the service.
  SubmitStatus Submit(uint64_t client, std::string expr,
                      std::function<void(QueryResult)> done);

  // Blocking convenience: Submit + wait. `result` is meaningful only when
  // status == kAccepted.
  struct Outcome {
    SubmitStatus status = SubmitStatus::kAccepted;
    QueryResult result;
  };
  Outcome Eval(uint64_t client, const std::string& expr);

  // Trips the client's governor from outside: its in-flight query (if any)
  // aborts at the next step checkpoint with `reason`. Queued requests still
  // run, and a client with nothing in flight is unaffected. False when the
  // id is unknown.
  bool Cancel(uint64_t client, const std::string& reason);

  ServeStats stats() const;

  // The client's session, for configuration between queries (options,
  // governor limits). Must not be called while the client has queued or
  // in-flight work — sessions are single-threaded. Null when unknown.
  Session* session(uint64_t client);

  // Stops accepting work, fails queued requests (their callbacks run with a
  // shutdown error), cancels in-flight queries and joins the workers.
  void Shutdown();

 private:
  struct Request {
    std::string expr;
    std::function<void(QueryResult)> done;
    uint64_t enqueue_ns = 0;
  };

  struct Client {
    uint64_t id = 0;
    std::unique_ptr<dbg::DebuggerBackend> backend;
    std::unique_ptr<Session> session;
    std::deque<Request> queue;
    bool running = false;  // a worker is inside this client's session
    bool closing = false;
  };

  void WorkerLoop();

  // Round-robin pick: the next client after `rr_last_` with queued work and
  // no query in flight. Null when nothing is runnable.
  Client* PickWork();

  // Runs one query on the client's session under the right target lock.
  // Called without mu_; fills `was_mutating`.
  QueryResult RunOne(Client& c, const std::string& expr, bool* was_mutating);

  BackendFactory factory_;
  ServeOptions opts_;

  mutable std::mutex mu_;               // guards everything below
  std::condition_variable work_cv_;     // workers: work available / stopping
  std::condition_variable idle_cv_;     // CloseSession: client drained
  std::map<uint64_t, std::unique_ptr<Client>> clients_;
  uint64_t next_client_id_ = 1;
  uint64_t rr_last_ = 0;  // id of the last client dispatched
  size_t queued_total_ = 0;
  size_t in_flight_ = 0;
  bool stopping_ = false;

  // Stats (guarded by mu_; gauges derived from the fields above).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t ok_ = 0;
  uint64_t query_errors_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t rejected_busy_ = 0;
  uint64_t read_only_ = 0;
  uint64_t mutating_ = 0;
  obs::Histogram latency_ns_;
  obs::Histogram queue_ns_;

  // The shared-target lock: read-only queries hold it shared, mutating
  // queries exclusively. Taken *outside* mu_ (never both at once in a way
  // that inverts: workers release mu_ before touching target_mu_).
  std::shared_mutex target_mu_;

  std::vector<std::thread> workers_;
};

}  // namespace duel::serve

#endif  // DUEL_SERVE_SERVICE_H_
