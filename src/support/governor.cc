#include "src/support/governor.h"

#include <mutex>

#include "src/support/obs/trace.h"
#include "src/support/strings.h"

namespace duel {

namespace {
// Guards cancel_reason_ between Cancel (any thread) and the throw on the
// executing thread. One global mutex is fine: both sides are cold paths
// (each governor trips at most once per arming).
std::mutex g_cancel_reason_mu;
}  // namespace

void ExecGovernor::Arm(const GovernorLimits& limits) {
  limits_ = limits;
  deadline_ns_ = limits.deadline_ms == 0 ? 0 : obs::NowNs() + limits.deadline_ms * 1'000'000;
  steps_ = 0;
  read_bytes_ = 0;
  armed_ = true;
}

void ExecGovernor::Disarm() {
  armed_ = false;
  // Flag and reason must change together: if a racing Cancel lands between
  // them, the flag could be cleared while its reason survives (or vice
  // versa), and the stale reason would be reported by a later, unrelated
  // trip via Cancel's first-writer-wins gate.
  std::lock_guard<std::mutex> lock(g_cancel_reason_mu);
  cancel_reason_.clear();
  cancelled_.store(false, std::memory_order_relaxed);
}

void ExecGovernor::Cancel(const std::string& reason) {
  std::lock_guard<std::mutex> lock(g_cancel_reason_mu);
  if (cancel_reason_.empty()) {
    cancel_reason_ = reason;
  }
  cancelled_.store(true, std::memory_order_release);
}

void ExecGovernor::CheckDeadline() {
  if (obs::NowNs() > deadline_ns_) {
    ThrowDeadline();
  }
}

void ExecGovernor::ThrowCancelled() {
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(g_cancel_reason_mu);
    reason = cancel_reason_.empty() ? "cancelled" : cancel_reason_;
  }
  // FormatError renders "query cancelled: <what>", so messages here carry
  // only the trip cause.
  throw DuelError(ErrorKind::kCancel, reason);
}

void ExecGovernor::ThrowStepBudget() {
  throw DuelError(ErrorKind::kCancel,
                  StrPrintf("exceeded the step budget (%llu steps)",
                            static_cast<unsigned long long>(limits_.max_steps)));
}

void ExecGovernor::ThrowByteBudget() {
  throw DuelError(ErrorKind::kCancel,
                  StrPrintf("exceeded the target-read budget (%llu bytes)",
                            static_cast<unsigned long long>(limits_.max_read_bytes)));
}

void ExecGovernor::ThrowDeadline() {
  throw DuelError(ErrorKind::kCancel,
                  StrPrintf("exceeded the deadline (%llu ms)",
                            static_cast<unsigned long long>(limits_.deadline_ms)));
}

}  // namespace duel
