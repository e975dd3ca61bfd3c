// Shared fixtures for the benchmark harness (experiments E1–E8).

#ifndef DUEL_BENCH_BENCH_UTIL_H_
#define DUEL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <memory>

#include "src/duel/duel.h"
#include "src/scenarios/scenarios.h"

namespace duel::bench {

// A simulated debuggee plus session, built once per benchmark.
class BenchFixture {
 public:
  explicit BenchFixture(SessionOptions opts = {}) {
    target::InstallStandardFunctions(image_);
    backend_ = std::make_unique<dbg::SimBackend>(image_);
    session_ = std::make_unique<Session>(*backend_, opts);
  }

  target::TargetImage& image() { return image_; }
  dbg::SimBackend& backend() { return *backend_; }
  Session& session() { return *session_; }

  // Drives a query (no output formatting); aborts on error.
  uint64_t Drive(const std::string& expr) {
    uint64_t n = session_->Drive(expr);
    benchmark::DoNotOptimize(n);
    return n;
  }

 private:
  target::TargetImage image_;
  std::unique_ptr<dbg::SimBackend> backend_;
  std::unique_ptr<Session> session_;
};

}  // namespace duel::bench

#endif  // DUEL_BENCH_BENCH_UTIL_H_
