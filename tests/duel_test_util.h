// Shared fixtures for the DUEL test suite.

#ifndef DUEL_TESTS_DUEL_TEST_UTIL_H_
#define DUEL_TESTS_DUEL_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/duel/duel.h"
#include "src/scenarios/scenarios.h"

namespace duel {

// The session configurations that the parameterised suites run each case
// under. Both evaluate with the one engine. kDefault is the default session;
// kReference turns off the plan cache and the read-combining data cache, so
// every query is analysed afresh and every read goes to the backend — the
// results must not change. The instance names ("BothEngines/.../StateMachine"
// and ".../Coroutine") are the suites' long-standing test ids, kept when the
// second evaluation engine was deleted so results stay comparable by name.
enum class SessionConfig { kDefault, kReference };

inline SessionOptions ConfigOptions(SessionConfig config) {
  SessionOptions o;
  if (config == SessionConfig::kReference) {
    o.plan_cache = false;
    o.eval.data_cache = false;
  }
  return o;
}

inline const auto kSessionConfigs =
    ::testing::Values(SessionConfig::kDefault, SessionConfig::kReference);

inline std::string SessionConfigName(const ::testing::TestParamInfo<SessionConfig>& pi) {
  return pi.param == SessionConfig::kDefault ? "StateMachine" : "Coroutine";
}

// A simulated debuggee plus a DUEL session attached to it.
class DuelFixture {
 public:
  explicit DuelFixture(SessionOptions opts = {}) {
    target::InstallStandardFunctions(image_);
    backend_ = std::make_unique<dbg::SimBackend>(image_);
    session_ = std::make_unique<Session>(*backend_, opts);
  }

  target::TargetImage& image() { return image_; }
  dbg::SimBackend& backend() { return *backend_; }
  Session& session() { return *session_; }

  // Runs a query and returns its printed lines; fails the test on error.
  std::vector<std::string> Lines(const std::string& expr) {
    QueryResult r = session_->Query(expr);
    EXPECT_TRUE(r.ok) << "query `" << expr << "` failed: " << r.error;
    return r.lines;
  }

  // Runs a query expected to fail; returns the rendered error.
  std::string Error(const std::string& expr) {
    QueryResult r = session_->Query(expr);
    EXPECT_FALSE(r.ok) << "query `" << expr << "` unexpectedly succeeded";
    return r.error;
  }

  // Convenience: single-line query.
  std::string One(const std::string& expr) {
    std::vector<std::string> lines = Lines(expr);
    EXPECT_EQ(lines.size(), 1u) << "query `" << expr << "`";
    return lines.empty() ? std::string() : lines[0];
  }

 private:
  target::TargetImage image_;
  std::unique_ptr<dbg::SimBackend> backend_;
  std::unique_ptr<Session> session_;
};

}  // namespace duel

#endif  // DUEL_TESTS_DUEL_TEST_UTIL_H_
