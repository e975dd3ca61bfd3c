// A stepping debugger over the simulated debuggee, with DUEL expressions as
// breakpoint conditions and watchpoints — the facilities the paper's
// Discussion proposes. Experiment E10 (bench_watchpoints) measures the cost
// the paper worried about.

#ifndef DUEL_EXEC_DEBUGGER_H_
#define DUEL_EXEC_DEBUGGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baseline/baseline.h"
#include "src/duel/assertions.h"
#include "src/duel/session.h"
#include "src/exec/program.h"

namespace duel::exec {

enum class StopReason {
  kStep,        // one statement executed, nothing fired
  kBreakpoint,
  kWatchpoint,
  kAssertion,   // a DUEL assertion stopped holding
  kFinished,    // ran off the end of the program
  kError,       // the program faulted (detail holds the report)
};

struct StopInfo {
  StopReason reason = StopReason::kStep;
  size_t line = 0;     // line about to execute (breakpoint) / just executed
  int index = -1;      // breakpoint or watchpoint index
  std::string detail;  // watchpoint change report / error text
};

class Debugger {
 public:
  // The session's backend must be attached to `image`. The program is
  // borrowed and must outlive the debugger.
  Debugger(target::TargetImage& image, dbg::DebuggerBackend& backend,
           const TargetProgram& program, SessionOptions opts = {});

  // --- breakpoints ---------------------------------------------------------
  // Stops before executing `line` (0-based). `condition` is a DUEL
  // expression; the breakpoint fires when the condition produces at least
  // one non-zero value (so generator one-liners like `x[..100] <? 0` work).
  // Empty condition = unconditional. Returns the breakpoint index.
  int AddBreakpoint(size_t line, std::string condition = "");
  void ClearBreakpoints() { breakpoints_.clear(); }
  // Index-taking accessors are total: an out-of-range (or negative) index
  // reads as "never fired" instead of undefined behaviour — callers hold
  // indices across Clear* calls.
  uint64_t BreakpointHits(int index) const {
    return InRange(index, breakpoints_.size()) ? breakpoints_[index].hits : 0;
  }

  // --- watchpoints -----------------------------------------------------------
  // A DUEL expression re-evaluated after every statement; fires when its
  // value *sequence* changes. The expression can watch a scalar (`x`), a
  // slice (`x[..100] >? 0`) or a whole structure (`L-->next->value`).
  int AddWatchpoint(std::string expr);
  void ClearWatchpoints() { watchpoints_.clear(); }
  uint64_t WatchpointFires(int index) const {
    return InRange(index, watchpoints_.size()) ? watchpoints_[index].fires : 0;
  }

  // Address watchpoints: raw byte ranges, checked by comparing target memory
  // after each statement — the "hardware watchpoint" baseline E10 compares
  // DUEL expression watchpoints against.
  int AddAddressWatch(target::Addr addr, size_t size);
  uint64_t AddressWatchFires(int index) const {
    return InRange(index, addr_watches_.size()) ? addr_watches_[index].fires : 0;
  }

  // --- displays ---------------------------------------------------------------
  // Expressions re-evaluated and rendered at every stop (gdb's `display`).
  int AddDisplay(std::string expr);
  // Renders all display expressions against the current state: one value,
  // or "(N values) first ... last", then " (truncated)" at max_output_values.
  std::vector<std::string> RenderDisplays();

  // --- assertions (paper Discussion) -----------------------------------------
  // A DUEL assertion checked after every statement; execution stops when it
  // transitions from holding to violated (and can continue past it).
  int AddAssertion(std::string name, std::string expr);
  uint64_t AssertionViolations(int index) const {
    return InRange(index, asserts_.size()) ? asserts_[index].violations : 0;
  }

  // --- execution --------------------------------------------------------------
  // Executes one statement (after honouring breakpoints at the current pc).
  StopInfo Step();
  // Runs until a breakpoint/watchpoint fires, an error occurs, or the
  // program finishes.
  StopInfo Continue();
  // Rewinds the pc to the start (target memory keeps its current contents,
  // as it would in a real process that is re-entered).
  void Rewind() { pc_ = 0; }

  size_t pc() const { return pc_; }
  bool finished() const { return pc_ >= program_->size(); }
  const TargetProgram& program() const { return *program_; }

  // Interactive DUEL queries at the stop (shares alias state with
  // conditions/watchpoints).
  Session& duel() { return session_; }

  // Number of DUEL condition/watchpoint evaluations performed (E10).
  uint64_t guard_evals() const { return guard_evals_; }

 private:
  struct Breakpoint {
    size_t line;
    std::string condition;
    uint64_t hits = 0;
  };
  struct Watchpoint {
    std::string expr;
    std::vector<std::string> last;
    bool primed = false;
    uint64_t fires = 0;
  };
  struct TrackedAssertion {
    std::string name;
    std::string expr;
    bool was_violated = false;
    uint64_t violations = 0;
  };
  struct AddressWatch {
    target::Addr addr;
    size_t size;
    std::vector<uint8_t> last;
    bool primed = false;
    uint64_t fires = 0;
  };

  bool ConditionHolds(const std::string& condition);
  // Returns a change report, or "" if unchanged.
  std::string EvalWatchpoint(Watchpoint& wp);
  StopInfo ExecuteCurrent();

  target::TargetImage* image_;
  const TargetProgram* program_;
  Session session_;
  EvalContext exec_ctx_;  // the program's own variables (decl aliases) live here
  size_t pc_ = 0;
  static bool InRange(int index, size_t size) {
    return index >= 0 && static_cast<size_t>(index) < size;
  }

  std::vector<Breakpoint> breakpoints_;
  std::vector<Watchpoint> watchpoints_;
  std::vector<TrackedAssertion> asserts_;
  std::vector<std::string> displays_;
  std::vector<AddressWatch> addr_watches_;
  bool skip_bp_once_ = false;
  uint64_t guard_evals_ = 0;
};

}  // namespace duel::exec

#endif  // DUEL_EXEC_DEBUGGER_H_
