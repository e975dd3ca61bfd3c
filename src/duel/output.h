// Result display: formats values per type (gdb-style), plus error reports
// in the paper's "Illegal memory reference in ...: x = lvalue 0x..." shape.
// A result line ("sym = value", built by OpenValue and PushLine) is written
// by Session::DriveCore for each value it drives, and by a printed filter
// scan (eval_sm.cc) for each pass, with the same scalar printer.

#ifndef DUEL_DUEL_OUTPUT_H_
#define DUEL_DUEL_OUTPUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

// Appends a value's display text to `out`. Reads target memory for lvalues
// and for char* string display; never throws on bad pointers (falls back to
// hex). A load that faults throws with `out` partly appended.
void AppendValue(EvalContext& ctx, const Value& v, std::string& out);

// AppendValue into a string of its own.
std::string FormatValue(EvalContext& ctx, const Value& v);

// The scalar printer AppendValue ends in: writes at `out` the text of a
// value of scalar type `t` (not an array or record) whose rvalue bits are
// `bits`, and returns its end. `out` has room for ScalarRoom(ctx, t)
// characters. A char* prints the string it points at, read through the data
// cache; with `reads_charged`, the caller has already charged the read budget
// the ScalarReadBytes of the value.
char* WriteScalar(EvalContext& ctx, TypeRef t, uint64_t bits, char* out,
                  bool reads_charged = false);

// The most characters WriteScalar writes for a value of type `t`.
size_t ScalarRoom(const EvalContext& ctx, TypeRef t);

// The target bytes WriteScalar charges to the read budget for `bits` of
// type `t`: a non-null char*'s string window, else none.
uint64_t ScalarReadBytes(const EvalContext& ctx, TypeRef t, uint64_t bits);

// A result line is built in one buffer: the value's symbolic, then
// OpenValue, then the value's text. OpenValue appends " = " after a
// non-empty symbolic and returns the symbolic's length; or, for a line
// written at `line` whose symbolic ends at `sym_end`, writes it there and
// returns its end.
size_t OpenValue(std::string& line);
char* OpenValue(char* line, char* sym_end);

// Stores the line built in `line`, whose symbolic is its first `sym_len`
// characters, and its span (`sym_len`). A value that prints as its own
// symbolic prints once ("5", not "5 = 5").
void PushLine(std::vector<std::string>& lines, std::vector<uint32_t>& spans,
              std::string_view line, size_t sym_len);

// Renders an evaluation error, using the paper's phrasing for memory faults.
std::string FormatError(const DuelError& e);

}  // namespace duel

#endif  // DUEL_DUEL_OUTPUT_H_
