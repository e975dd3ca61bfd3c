// Per-query execution governor: the cooperative resource-limit primitive
// behind the concurrent query service (src/serve/).
//
// A multi-tenant debugger cannot let one runaway query (`L-->next` over a
// cyclic list with cycle detection off, a `while(1)` expression, a scan of
// gigabytes of target memory) starve every other session. The governor is
// armed per query with a wall-clock deadline, an eval-step budget, and a
// target-bytes-read budget; the evaluation hot paths check in cooperatively
// (EvalContext::Step charges steps, dbg::MemoryAccess charges bytes) and
// the query dies with a DuelError(ErrorKind::kCancel) — a span-carrying
// diagnostic like any runtime error, with the values produced so far kept
// as partial results — without disturbing any other session.
//
// Thread model: Arm/Disarm and the Charge* checkpoints run on the thread
// executing the query; Cancel may be called from any thread (the service's
// cancel path, an admission-control reaper). Only the cancel flag crosses
// threads, so it is the only atomic.

#ifndef DUEL_SUPPORT_GOVERNOR_H_
#define DUEL_SUPPORT_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/support/error.h"

namespace duel {

// Per-query resource limits. Zero means "no limit" for each field; any()
// says whether arming the governor would do anything at all.
struct GovernorLimits {
  uint64_t deadline_ms = 0;      // wall-clock budget for one query
  uint64_t max_steps = 0;        // eval-step budget (generator resumptions)
  uint64_t max_read_bytes = 0;   // target bytes read through the access layer

  bool any() const { return deadline_ms != 0 || max_steps != 0 || max_read_bytes != 0; }
};

class ExecGovernor {
 public:
  // Arms the governor for one query: captures the limits, resets the usage
  // counters, and stamps the deadline from the steady clock. Runs on the
  // executing thread before evaluation starts. A cancel requested before
  // Arm stays pending and trips the first checkpoint.
  void Arm(const GovernorLimits& limits);

  // Disarms after the query (armed() gates the checkpoints; a disarmed
  // governor charges nothing) and drops any pending cancel, so a trip never
  // leaks into the next query.
  void Disarm();
  bool armed() const { return armed_; }

  // Requests cancellation of the in-flight query. Safe from any thread; the
  // executing thread observes it at its next step checkpoint. The first
  // caller's reason wins and is quoted in the diagnostic.
  void Cancel(const std::string& reason = "cancelled");

  bool cancel_requested() const { return cancelled_.load(std::memory_order_relaxed); }

  // --- cooperative checkpoints (executing thread only) ----------------------

  // One unit of evaluation fuel. Checks the cancel flag every call and the
  // wall clock every kClockCheckInterval steps; throws DuelError(kCancel)
  // when the step budget, the deadline, or a cancel request trips.
  void ChargeStep() {
    if (!armed_) {
      return;
    }
    steps_++;
    if (cancelled_.load(std::memory_order_relaxed)) {
      ThrowCancelled();
    }
    if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
      ThrowStepBudget();
    }
    if (deadline_ns_ != 0 && steps_ % kClockCheckInterval == 0) {
      CheckDeadline();
    }
  }

  // Charges `n` bytes of target-read traffic; throws DuelError(kCancel) when
  // the byte budget trips. (Cancel/deadline are left to the step checkpoint —
  // every read is followed by more steps, and reads are the expensive path
  // already.)
  void ChargeReadBytes(uint64_t n) {
    if (!armed_) {
      return;
    }
    read_bytes_ += n;
    if (limits_.max_read_bytes != 0 && read_bytes_ > limits_.max_read_bytes) {
      ThrowByteBudget();
    }
  }

  // Whether `n` more steps / read bytes fit inside the budgets, so charging
  // them at once cannot trip where charging them one by one would.
  bool StepsFit(uint64_t n) const {
    return !armed_ || limits_.max_steps == 0 || steps_ + n <= limits_.max_steps;
  }
  bool ReadBytesFit(uint64_t n) const {
    return !armed_ || limits_.max_read_bytes == 0 || read_bytes_ + n <= limits_.max_read_bytes;
  }

  // `n` ChargeSteps at once, for a caller that checked StepsFit(n): checks
  // the cancel flag once, and reads the clock once if the steps cross any
  // kClockCheckInterval boundary (the clock only moves forward, so that
  // read trips whenever a read at an earlier boundary would have).
  void ChargeSteps(uint64_t n) {
    if (!armed_) {
      return;
    }
    const uint64_t before = steps_;
    steps_ += n;
    if (cancelled_.load(std::memory_order_relaxed)) {
      ThrowCancelled();
    }
    if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
      ThrowStepBudget();
    }
    if (deadline_ns_ != 0 && steps_ / kClockCheckInterval != before / kClockCheckInterval) {
      CheckDeadline();
    }
  }

  // How often ChargeStep consults the wall clock (a steady-clock read per
  // step would dominate cheap steps; 1024 steps of slack is microseconds).
  static constexpr uint64_t kClockCheckInterval = 1024;

 private:
  void CheckDeadline();
  // Each trip has a deterministic message (budgets quote the configured
  // limit, never elapsed usage) so a governed failure is byte-identical
  // across runs — the serve suite asserts this.
  [[noreturn]] void ThrowCancelled();
  [[noreturn]] void ThrowStepBudget();
  [[noreturn]] void ThrowByteBudget();
  [[noreturn]] void ThrowDeadline();

  bool armed_ = false;
  GovernorLimits limits_;
  uint64_t deadline_ns_ = 0;  // absolute steady-clock deadline (0 = none)
  uint64_t steps_ = 0;
  uint64_t read_bytes_ = 0;
  std::atomic<bool> cancelled_{false};
  std::string cancel_reason_;
};

}  // namespace duel

#endif  // DUEL_SUPPORT_GOVERNOR_H_
