// Result display: formats values per type (gdb-style), plus error reports
// in the paper's "Illegal memory reference in ...: x = lvalue 0x..." shape.
// Session::DriveCore joins a value's symbolic and its formatted value into
// the "sym = value" lines the duel command prints.

#ifndef DUEL_DUEL_OUTPUT_H_
#define DUEL_DUEL_OUTPUT_H_

#include <string>

#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

// Formats a value for display. Reads target memory for lvalues and for
// char* string display; never throws on bad pointers (falls back to hex).
std::string FormatValue(EvalContext& ctx, const Value& v);

// Renders an evaluation error, using the paper's phrasing for memory faults.
std::string FormatError(const DuelError& e);

}  // namespace duel

#endif  // DUEL_DUEL_OUTPUT_H_
