// DUEL-language assertions.
//
// Paper, Discussion: "Assertions, for example, make claims about the state
// at various points in a program. Complex assertions, e.g., 'x[0] through
// x[n] are positive,' often need non-trivial code to compute the assertion
// outcome. Annotating programs with assertions written in a Duel-like
// language might simplify making these kinds of assertions and encourage
// their use."
//
// An assertion is a named DUEL expression. It HOLDS when evaluation succeeds
// and every produced value is true by C's rule, EvalContext::Truthy: not
// zero, not a null pointer, not -0.0 (the universal reading: an empty
// sequence holds vacuously — write `#/e != 0` to demand existence). The
// paper's example is simply:   x[..n+1] > 0

#ifndef DUEL_DUEL_ASSERTIONS_H_
#define DUEL_DUEL_ASSERTIONS_H_

#include <string>
#include <vector>

#include "src/duel/session.h"

namespace duel {

struct AssertionOutcome {
  std::string name;
  std::string expr;
  bool holds = false;
  // First few offending "sym = value" lines (falsy values), or the
  // evaluation error.
  std::vector<std::string> failures;
  uint64_t values_checked = 0;
};

// One-off check.
AssertionOutcome CheckAssertion(Session& session, const std::string& name,
                                const std::string& expr, size_t max_failures = 5);

// A named collection of assertions, evaluated together against a session —
// the "annotating programs with assertions" facility.
class AssertionSet {
 public:
  int Add(std::string name, std::string expr);
  size_t size() const { return assertions_.size(); }
  const std::string& name(size_t i) const { return assertions_[i].name; }
  const std::string& expr(size_t i) const { return assertions_[i].expr; }

  AssertionOutcome Check(Session& session, size_t index, size_t max_failures = 5) const;
  std::vector<AssertionOutcome> CheckAll(Session& session, size_t max_failures = 5) const;

  // Renders a human-readable report; `only_failures` drops passing lines.
  static std::string Report(const std::vector<AssertionOutcome>& outcomes,
                            bool only_failures = false);

 private:
  struct Entry {
    std::string name;
    std::string expr;
  };
  std::vector<Entry> assertions_;
};

}  // namespace duel

#endif  // DUEL_DUEL_ASSERTIONS_H_
