// Structured diagnostics for the analyze stage's checks (check.h) and for
// runtime error reporting: a severity, a stable rule name, a byte-offset
// span into the query text, a message, and an optional fix-it hint.
//
// Rendering is shared by every surface: the REPL prints the caret block,
// MI emits the fields as a machine-readable record, and `--check` batch
// mode prints one block per diagnostic.

#ifndef DUEL_DUEL_DIAG_H_
#define DUEL_DUEL_DIAG_H_

#include <string>
#include <vector>

#include "src/support/error.h"

namespace duel {

enum class Severity {
  kError,    // definite: the query cannot evaluate without this fault
  kWarning,  // legal but suspicious; carries a fix-it where possible
};

const char* SeverityName(Severity s);

struct Diag {
  Severity severity = Severity::kError;
  std::string rule;     // stable kebab-case rule name, e.g. "deref-non-pointer"
  SourceRange span;     // byte offsets into the query text
  std::string message;  // matches the runtime error text for definite errors
  std::string fixit;    // suggested rewrite ("" when none applies)
};

// "  <query>\n  <caret line>" with '^' under span.begin and '~' to span.end
// (clamped to the text). Empty result for an empty/out-of-range span.
std::string CaretBlock(const std::string& query, SourceRange span);

// Full block: "<severity>: <message> [<rule>]" + caret + optional
// "  fix-it: ..." line. One string per line, ready for the REPL.
std::vector<std::string> RenderDiag(const std::string& query, const Diag& d);

}  // namespace duel

#endif  // DUEL_DUEL_DIAG_H_
