// A gdb/MI-flavoured machine interface for DUEL.
//
// The original added one command to gdb ("duel expr"). Modern front ends
// drive gdb through MI, so this module exposes the same single entry point
// as MI commands, making DUEL scriptable by tools:
//
//   [token]-duel-evaluate "expr"             -> [token]^done,values=[{sym="..",value=".."},...]
//                                               [token]^error,msg="..."
//   [token]-duel-set-symbolic on|off         -> ^done
//   [token]-duel-set-cache on|off            -> ^done
//   [token]-duel-set-plan-cache on|off|clear -> ^done
//   [token]-duel-set-warn on|off|error       -> ^done
//   [token]-duel-clear-aliases               -> ^done
//   [token]-duel-check "expr"                -> ^done,diags=[...]
//   [token]-duel-plan                        -> ^done,plan-cache={...},plans=[...]
//   [token]-duel-stats [on|off|profile]      -> ^done[,stats="{json}"]
//   [token]-duel-trace on|off|clear|dump     -> ^done[,spans=..,dropped=..]
//   [token]-duel-serve-stats                 -> ^done,... (needs an attached service)
//   [token]-list-features                    -> ^done,features=[...]
//   duel EXPR        (console form)          -> ~"line\n"... then ^done
//
// Every response line is followed by the MI turn terminator "(gdb)".

#ifndef DUEL_MI_MI_H_
#define DUEL_MI_MI_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/duel/session.h"

namespace duel::serve {
class QueryService;
}

namespace duel::mi {

// Escapes a string as an MI c-string (quotes included).
std::string MiQuote(std::string_view s);

class MiSession {
 public:
  explicit MiSession(dbg::DebuggerBackend& backend, SessionOptions opts = {})
      : session_(backend, opts) {}

  // Handles one input line, returning the full response (one or more lines,
  // each '\n'-terminated, ending with "(gdb)\n").
  std::string Handle(const std::string& line);

  Session& session() { return session_; }

  // Attaches a concurrent query service for -duel-serve-stats (the front
  // end owns it; null detaches).
  void set_service(serve::QueryService* service) { service_ = service; }

 private:
  std::string HandleCommand(const std::string& token, const std::string& command,
                            const std::string& rest);

  Session session_;
  serve::QueryService* service_ = nullptr;
};

}  // namespace duel::mi

#endif  // DUEL_MI_MI_H_
