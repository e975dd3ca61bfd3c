// Public umbrella header for the DUEL library.
//
// Typical use:
//
//   duel::target::TargetImage image;
//   duel::target::InstallStandardFunctions(image);
//   duel::target::ImageBuilder b(image);
//   ... declare types / globals / poke data (or use duel::scenarios) ...
//
//   duel::dbg::SimBackend backend(image);
//   duel::Session session(backend);
//   duel::QueryResult r = session.Query("x[..100] >? 0");
//   for (const std::string& line : r.lines) std::cout << line << "\n";
//   // r.SymText(i), r.ValueText(i): value line i (< r.value_count()) split.

#ifndef DUEL_DUEL_DUEL_H_
#define DUEL_DUEL_DUEL_H_

#include "src/dbg/backend.h"
#include "src/duel/ast.h"
#include "src/duel/eval.h"
#include "src/duel/output.h"
#include "src/duel/parser.h"
#include "src/duel/session.h"
#include "src/duel/value.h"
#include "src/target/builder.h"
#include "src/target/image.h"

#endif  // DUEL_DUEL_DUEL_H_
