#include "src/serve/service.h"

#include <future>
#include <utility>

#include "src/duel/ast.h"
#include "src/support/strings.h"

namespace duel::serve {

const char* SubmitStatusName(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kBusy:
      return "busy";
    case SubmitStatus::kNoSuchClient:
      return "no-such-client";
    case SubmitStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::string ServeStats::Summary() const {
  return StrPrintf(
      "clients=%zu workers=%zu queued=%zu in_flight=%zu submitted=%llu "
      "completed=%llu ok=%llu errors=%llu cancelled=%llu busy=%llu "
      "read_only=%llu mutating=%llu epoch=%llu",
      clients, workers, queue_depth, in_flight,
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(query_errors),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(rejected_busy),
      static_cast<unsigned long long>(read_only),
      static_cast<unsigned long long>(mutating),
      static_cast<unsigned long long>(mutation_epoch));
}

std::string ServeStats::ToJson() const {
  std::string out = "{";
  out += StrPrintf(
      "\"clients\":%zu,\"workers\":%zu,\"queue_depth\":%zu,\"in_flight\":%zu,"
      "\"submitted\":%llu,\"completed\":%llu,\"ok\":%llu,\"query_errors\":%llu,"
      "\"cancelled\":%llu,\"rejected_busy\":%llu,\"read_only\":%llu,"
      "\"mutating\":%llu,\"mutation_epoch\":%llu",
      clients, workers, queue_depth, in_flight,
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(query_errors),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(rejected_busy),
      static_cast<unsigned long long>(read_only),
      static_cast<unsigned long long>(mutating),
      static_cast<unsigned long long>(mutation_epoch));
  out += ",\"latency_ns\":" + latency_ns.ToJson();
  out += ",\"queue_ns\":" + queue_ns.ToJson();
  out += "}";
  return out;
}

QueryService::QueryService(BackendFactory factory, ServeOptions opts)
    : factory_(std::move(factory)), opts_(opts) {
  if (opts_.workers == 0) {
    opts_.workers = 1;
  }
  workers_.reserve(opts_.workers);
  for (size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

uint64_t QueryService::OpenSession() {
  auto c = std::make_unique<Client>();
  c->backend = factory_();
  SessionOptions so = opts_.session;
  if (!so.governor_limits.any()) {
    so.governor_limits = opts_.governor_limits;
  }
  c->session = std::make_unique<Session>(*c->backend, so);

  std::lock_guard<std::mutex> lock(mu_);
  c->id = next_client_id_++;
  uint64_t id = c->id;
  clients_.emplace(id, std::move(c));
  return id;
}

bool QueryService::CloseSession(uint64_t client) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return false;
  }
  it->second->closing = true;  // rejects new submissions; queued work still drains
  // Re-look the client up by id on every wake: a concurrent CloseSession for
  // the same id may erase it while we wait, and a captured Client* would then
  // dangle. Not-found counts as drained.
  idle_cv_.wait(lock, [this, client] {
    auto i = clients_.find(client);
    return i == clients_.end() ||
           (i->second->queue.empty() && !i->second->running);
  });
  return clients_.erase(client) != 0;  // false: a duplicate close beat us to it
}

SubmitStatus QueryService::Submit(uint64_t client, std::string expr,
                                  std::function<void(QueryResult)> done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return SubmitStatus::kShutdown;
  }
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second->closing) {
    return SubmitStatus::kNoSuchClient;
  }
  if (queued_total_ >= opts_.queue_limit) {
    rejected_busy_++;
    return SubmitStatus::kBusy;  // typed rejection: never silently dropped
  }
  Request req;
  req.expr = std::move(expr);
  req.done = std::move(done);
  req.enqueue_ns = obs::NowNs();
  it->second->queue.push_back(std::move(req));
  queued_total_++;
  submitted_++;
  work_cv_.notify_one();
  return SubmitStatus::kAccepted;
}

QueryService::Outcome QueryService::Eval(uint64_t client, const std::string& expr) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  Outcome out;
  out.status = Submit(client, expr,
                      [promise](QueryResult r) { promise->set_value(std::move(r)); });
  if (out.status != SubmitStatus::kAccepted) {
    return out;
  }
  out.result = future.get();
  return out;
}

bool QueryService::Cancel(uint64_t client, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return false;
  }
  // Safe cross-thread: Cancel only flips the governor's atomic flag (the
  // session thread observes it at its next step checkpoint). Only a request
  // in flight is cancelled; the flag would otherwise wait for the next one.
  if (it->second->running) {
    it->second->session->governor().Cancel(reason);
  }
  return true;
}

Session* QueryService::session(uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  return it == clients_.end() ? nullptr : it->second->session.get();
}

ServeStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.ok = ok_;
  s.query_errors = query_errors_;
  s.cancelled = cancelled_;
  s.rejected_busy = rejected_busy_;
  s.read_only = read_only_;
  s.mutating = mutating_;
  s.queue_depth = queued_total_;
  s.in_flight = in_flight_;
  s.clients = clients_.size();
  s.workers = workers_.size();
  s.mutation_epoch = mutating_;
  s.latency_ns = latency_ns_;
  s.queue_ns = queue_ns_;
  return s;
}

void QueryService::Shutdown() {
  std::vector<Request> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    for (auto& [id, c] : clients_) {
      for (Request& r : c->queue) {
        orphaned.push_back(std::move(r));
      }
      c->queue.clear();
      if (c->running) {
        c->session->governor().Cancel("service shutting down");
      }
    }
    queued_total_ = 0;
    // The orphans below complete with kCancel without passing through a
    // worker; account for them here so submitted == completed + queue_depth +
    // in_flight still holds after shutdown.
    completed_ += orphaned.size();
    cancelled_ += orphaned.size();
    work_cv_.notify_all();
    idle_cv_.notify_all();
  }
  // Queued-but-never-run requests complete with a typed error — a promise
  // blocked in Eval must not hang forever.
  for (Request& r : orphaned) {
    QueryResult dead;
    dead.ok = false;
    dead.error = "query cancelled: service shutting down";
    dead.error_kind = ErrorKind::kCancel;
    if (r.done) {
      r.done(std::move(dead));
    }
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  workers_.clear();
}

QueryService::Client* QueryService::PickWork() {
  if (clients_.empty()) {
    return nullptr;
  }
  // Fairness: resume the scan just past the last dispatched client id, so a
  // client with a deep queue cannot starve the others.
  auto start = clients_.upper_bound(rr_last_);
  for (size_t i = 0, n = clients_.size(); i < n; ++i) {
    if (start == clients_.end()) {
      start = clients_.begin();
    }
    Client* c = start->second.get();
    if (!c->running && !c->queue.empty()) {
      rr_last_ = c->id;
      return c;
    }
    ++start;
  }
  return nullptr;
}

QueryResult QueryService::RunOne(Client& c, const std::string& expr, bool* was_mutating) {
  std::shared_lock<std::shared_mutex> read_lock(target_mu_);
  // Compile (or warm-hit) under the reader lock: the front half resolves
  // names and types against shared tables. A plan that fails to lex/parse is
  // read-only — Query reproduces the error without touching target data.
  const CompiledQuery* plan = c.session->Prepare(expr);
  if (plan == nullptr) {
    *was_mutating = false;
    return c.session->Query(expr);
  }
  // The prepared plan runs as it is, under the lock it picked: no second
  // lookup and no second symbol epoch.
  *was_mutating = plan->notes.mutates_target;
  if (!plan->notes.mutates_target) {
    return c.session->Query(*plan);
  }
  read_lock.unlock();
  std::unique_lock<std::shared_mutex> write_lock(target_mu_);
  return c.session->Query(*plan);
}

void QueryService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      if (stopping_) {
        return true;
      }
      for (const auto& [id, c] : clients_) {
        if (!c->running && !c->queue.empty()) {
          return true;
        }
      }
      return false;
    });
    if (stopping_) {
      return;
    }
    Client* c = PickWork();
    if (c == nullptr) {
      continue;  // another worker claimed it first
    }
    Request req = std::move(c->queue.front());
    c->queue.pop_front();
    queued_total_--;
    // A cancel aimed at an earlier request must not hit this one; one that
    // lands after this point (Cancel takes mu_ too) stays pending until the
    // session arms its governor.
    c->session->governor().Disarm();
    c->running = true;
    in_flight_++;
    const uint64_t dispatch_ns = obs::NowNs();
    queue_ns_.Record(dispatch_ns - req.enqueue_ns);
    lock.unlock();

    bool mutated = false;
    QueryResult result = RunOne(*c, req.expr, &mutated);

    lock.lock();
    c->running = false;
    in_flight_--;
    completed_++;
    (mutated ? mutating_ : read_only_)++;
    if (result.ok) {
      ok_++;
    } else if (result.error_kind == ErrorKind::kCancel) {
      cancelled_++;
    } else {
      query_errors_++;
    }
    latency_ns_.Record(obs::NowNs() - req.enqueue_ns);
    // This client may have more queued work (now runnable again), and
    // CloseSession may be waiting for it to drain.
    work_cv_.notify_one();
    idle_cv_.notify_all();
    lock.unlock();
    if (req.done) {
      req.done(std::move(result));
    }
    lock.lock();
  }
}

}  // namespace duel::serve
