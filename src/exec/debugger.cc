#include "src/exec/debugger.h"

#include "src/duel/output.h"
#include "src/support/strings.h"

namespace duel::exec {

Debugger::Debugger(target::TargetImage& image, dbg::DebuggerBackend& backend,
                   const TargetProgram& program, SessionOptions opts)
    : image_(&image),
      program_(&program),
      session_(backend, opts),
      exec_ctx_(backend, EvalOptions()) {}

int Debugger::AddBreakpoint(size_t line, std::string condition) {
  if (line >= program_->size()) {
    throw DuelError(ErrorKind::kTarget,
                    StrPrintf("breakpoint line %zu out of range", line + 1));
  }
  breakpoints_.push_back(Breakpoint{line, std::move(condition)});
  return static_cast<int>(breakpoints_.size()) - 1;
}

int Debugger::AddWatchpoint(std::string expr) {
  watchpoints_.push_back(Watchpoint{std::move(expr), {}, false, 0});
  return static_cast<int>(watchpoints_.size()) - 1;
}

int Debugger::AddAddressWatch(target::Addr addr, size_t size) {
  addr_watches_.push_back(AddressWatch{addr, size, {}, false, 0});
  return static_cast<int>(addr_watches_.size()) - 1;
}

int Debugger::AddDisplay(std::string expr) {
  displays_.push_back(std::move(expr));
  return static_cast<int>(displays_.size()) - 1;
}

std::vector<std::string> Debugger::RenderDisplays() {
  std::vector<std::string> out;
  for (size_t i = 0; i < displays_.size(); ++i) {
    QueryResult r = session_.Query(displays_[i]);
    std::string line = StrPrintf("%zu: %s = ", i, displays_[i].c_str());
    const size_t n = r.value_count();  // a truncated result's last line is "..."
    if (!r.ok) {
      line += "<" + r.error + ">";
    } else if (n == 0) {
      line += "(no values)";
    } else if (n == 1) {
      line += r.lines[0];
    } else {
      line += StrPrintf("(%zu values) %s ... %s", n, r.lines.front().c_str(),
                        r.lines[n - 1].c_str());
    }
    line += r.truncated ? " (truncated)" : "";
    out.push_back(std::move(line));
  }
  return out;
}

int Debugger::AddAssertion(std::string name, std::string expr) {
  asserts_.push_back(TrackedAssertion{std::move(name), std::move(expr), false, 0});
  return static_cast<int>(asserts_.size()) - 1;
}

bool Debugger::ConditionHolds(const std::string& condition) {
  if (condition.empty()) {
    return true;
  }
  guard_evals_++;
  // The condition holds when some value it produces is true by C's rule
  // (EvalContext::Truthy): a null pointer, '\0' and -0.0 are all false.
  bool holds = false;
  QueryResult r = session_.Query(condition, [&](const Value& v) {
    if (session_.context().Truthy(v)) {
      holds = true;
    }
  });
  if (!r.ok) {
    throw DuelError(ErrorKind::kTarget, "breakpoint condition failed: " + r.error);
  }
  return holds;
}

std::string Debugger::EvalWatchpoint(Watchpoint& wp) {
  guard_evals_++;
  QueryResult r = session_.Query(wp.expr);
  std::vector<std::string> now;
  if (r.ok) {
    now = r.lines;
  } else {
    now.push_back("<error: " + r.error + ">");
  }
  if (!wp.primed) {
    wp.primed = true;
    wp.last = std::move(now);
    return "";
  }
  if (now == wp.last) {
    return "";
  }
  // Build a compact change report: first differing entry, plus counts.
  std::string report;
  size_t common = 0;
  while (common < now.size() && common < wp.last.size() && now[common] == wp.last[common]) {
    ++common;
  }
  std::string before = common < wp.last.size() ? wp.last[common] : "(end)";
  std::string after = common < now.size() ? now[common] : "(end)";
  report = StrPrintf("watch %s: %s -> %s (%zu -> %zu values)", wp.expr.c_str(),
                     before.c_str(), after.c_str(), wp.last.size(), now.size());
  wp.last = std::move(now);
  wp.fires++;
  return report;
}

StopInfo Debugger::ExecuteCurrent() {
  StopInfo info;
  info.line = pc_;
  const Node* stmt = program_->statement(pc_);
  pc_++;
  if (stmt == nullptr) {
    info.reason = StopReason::kStep;
    return info;
  }
  try {
    exec_ctx_.BeginQuery();  // each statement is its own data-cache epoch
    baseline::CEvaluator eval(exec_ctx_);
    eval.Eval(*stmt);
  } catch (const DuelError& e) {
    info.reason = StopReason::kError;
    info.detail = StrPrintf("line %zu: %s", info.line + 1, FormatError(e).c_str());
    return info;
  }
  // Address watchpoints: cheap byte comparison, like hardware watchpoints.
  for (size_t w = 0; w < addr_watches_.size(); ++w) {
    AddressWatch& aw = addr_watches_[w];
    std::vector<uint8_t> now(aw.size);
    try {
      image_->memory().Read(aw.addr, now.data(), now.size());
    } catch (const MemoryFault&) {
      continue;
    }
    if (!aw.primed) {
      aw.primed = true;
      aw.last = std::move(now);
      continue;
    }
    if (now != aw.last) {
      aw.last = std::move(now);
      aw.fires++;
      info.reason = StopReason::kWatchpoint;
      info.index = static_cast<int>(w);
      info.detail = StrPrintf("address watch 0x%llx,%zu changed",
                              static_cast<unsigned long long>(aw.addr), aw.size);
      return info;
    }
  }
  // Watchpoints observe the state after every statement.
  for (size_t w = 0; w < watchpoints_.size(); ++w) {
    std::string report = EvalWatchpoint(watchpoints_[w]);
    if (!report.empty()) {
      info.reason = StopReason::kWatchpoint;
      info.index = static_cast<int>(w);
      info.detail = std::move(report);
      return info;
    }
  }
  // Assertions stop execution when they transition to violated.
  for (size_t a = 0; a < asserts_.size(); ++a) {
    TrackedAssertion& ta = asserts_[a];
    guard_evals_++;
    AssertionOutcome outcome = CheckAssertion(session_, ta.name, ta.expr);
    if (!outcome.holds && !ta.was_violated) {
      ta.was_violated = true;
      ta.violations++;
      info.reason = StopReason::kAssertion;
      info.index = static_cast<int>(a);
      info.detail = "assertion '" + ta.name + "' violated: " + ta.expr;
      for (const std::string& f : outcome.failures) {
        info.detail += "\n    " + f;
      }
      return info;
    }
    ta.was_violated = !outcome.holds;
  }
  info.reason = StopReason::kStep;
  return info;
}

StopInfo Debugger::Step() {
  if (finished()) {
    return StopInfo{StopReason::kFinished, pc_, -1, ""};
  }
  skip_bp_once_ = false;  // stepping off a reported breakpoint consumes it
  return ExecuteCurrent();
}

StopInfo Debugger::Continue() {
  while (!finished()) {
    // Honour breakpoints at the current pc — except immediately after
    // reporting one here (so Continue resumes instead of re-firing).
    if (!skip_bp_once_) {
      for (size_t i = 0; i < breakpoints_.size(); ++i) {
        if (breakpoints_[i].line == pc_ && ConditionHolds(breakpoints_[i].condition)) {
          breakpoints_[i].hits++;
          skip_bp_once_ = true;
          return StopInfo{StopReason::kBreakpoint, pc_, static_cast<int>(i), ""};
        }
      }
    }
    skip_bp_once_ = false;
    StopInfo info = ExecuteCurrent();
    if (info.reason != StopReason::kStep) {
      return info;
    }
  }
  return StopInfo{StopReason::kFinished, pc_, -1, ""};
}

}  // namespace duel::exec
