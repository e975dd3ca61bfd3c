#include "src/duel/assertions.h"

#include "src/support/strings.h"

namespace duel {

AssertionOutcome CheckAssertion(Session& session, const std::string& name,
                                const std::string& expr, size_t max_failures) {
  AssertionOutcome out;
  out.name = name;
  out.expr = expr;
  // Which values are false, by C's rule (EvalContext::Truthy).
  std::vector<size_t> falsy;
  size_t index = 0;
  QueryResult r = session.Query(expr, [&](const Value& v) {
    if (!session.context().Truthy(v)) {
      falsy.push_back(index);
    }
    ++index;
  });
  if (!r.ok) {
    out.holds = false;
    out.failures.push_back(r.error);
    return out;
  }
  out.holds = falsy.empty();
  out.values_checked = r.value_count();
  for (size_t i = 0; i < falsy.size() && i < max_failures; ++i) {
    out.failures.push_back(r.lines[falsy[i]]);
  }
  return out;
}

int AssertionSet::Add(std::string name, std::string expr) {
  assertions_.push_back(Entry{std::move(name), std::move(expr)});
  return static_cast<int>(assertions_.size()) - 1;
}

AssertionOutcome AssertionSet::Check(Session& session, size_t index,
                                     size_t max_failures) const {
  const Entry& e = assertions_.at(index);
  return CheckAssertion(session, e.name, e.expr, max_failures);
}

std::vector<AssertionOutcome> AssertionSet::CheckAll(Session& session,
                                                     size_t max_failures) const {
  std::vector<AssertionOutcome> out;
  out.reserve(assertions_.size());
  for (size_t i = 0; i < assertions_.size(); ++i) {
    out.push_back(Check(session, i, max_failures));
  }
  return out;
}

std::string AssertionSet::Report(const std::vector<AssertionOutcome>& outcomes,
                                 bool only_failures) {
  std::string report;
  for (const AssertionOutcome& o : outcomes) {
    if (only_failures && o.holds) {
      continue;
    }
    report += StrPrintf("[%s] %s: %s", o.holds ? "PASS" : "FAIL", o.name.c_str(),
                        o.expr.c_str());
    if (o.holds) {
      report += StrPrintf(" (%llu values)", static_cast<unsigned long long>(o.values_checked));
    }
    report += "\n";
    for (const std::string& f : o.failures) {
      report += "    " + f + "\n";
    }
  }
  return report;
}

}  // namespace duel
