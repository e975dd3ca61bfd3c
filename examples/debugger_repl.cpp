// An interactive mini-debugger hosting DUEL — the "one new command"
// integration the paper describes, as a standalone tool.
//
// The debuggee is a simulated program with a symbol table, lists, trees and
// arrays. Commands:
//
//   duel EXPR      evaluate a DUEL expression (the paper's new command)
//   print EXPR     conventional single-value evaluation (the baseline)
//   mi LINE        drive the gdb/MI-style machine interface directly
//   symbolic on|off
//   remote on|off  route DUEL through the RSP wire protocol
//   info           image statistics and backend counters
//   help, quit
//
//   $ ./debugger_repl            (interactive)
//   $ echo 'duel arr[..10] >? 0' | ./debugger_repl

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/baseline/baseline.h"
#include "src/support/strings.h"
#include "src/duel/duel.h"
#include "src/exec/debugger.h"
#include "src/mi/mi.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/serve/service.h"
#include "src/scenarios/scenario_file.h"
#include "src/scenarios/scenarios.h"

using namespace duel;

namespace {

void BuildDebuggee(target::TargetImage& image) {
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "arr", {3, -1, 4, 1, -5, 9, 2, 6, -5, 3});
  scenarios::BuildList(image, "L", {11, 27, 33, 27, 8});
  scenarios::BuildTree(image, "root", "(9 (3 (4) (5)) (12))");
  std::map<size_t, std::vector<scenarios::SymEntry>> chains;
  chains[0] = {{"main", 4}, {"argc", 3}};
  chains[42] = {{"deep", 7}};
  scenarios::BuildSymtab(image, chains, 1024);
  scenarios::BuildArgv(image, {"debuggee", "--verbose", "in.c"});
  scenarios::BuildFrames(image, 3);
}

// `--check FILE` batch lint mode: loads the scenario, then statically checks
// every `##query:` line in the file against its symbols. Prints one block per
// diagnostic; exit status 1 when any query has a hard error (CI-friendly).
int RunBatchCheck(const char* path) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  try {
    scenarios::LoadScenarioFile(image, path);
  } catch (const DuelError& e) {
    std::cerr << "error loading " << path << ": " << e.what() << "\n";
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  dbg::SimBackend sim(image);
  Session session(sim);
  size_t queries = 0, errors = 0, warnings = 0;
  std::string line;
  while (std::getline(in, line)) {
    size_t at = line.find_first_not_of(" \t");
    if (at == std::string::npos || line.compare(at, 8, "##query:") != 0) {
      continue;
    }
    std::string expr = line.substr(at + 8);
    while (!expr.empty() && (expr.front() == ' ' || expr.front() == '\t')) {
      expr.erase(expr.begin());
    }
    queries++;
    QueryResult r = session.Check(expr);
    for (const Diag& d : r.diags) {
      (d.severity == Severity::kError ? errors : warnings)++;
      std::cout << path << ": in `" << expr << "`:\n";
      for (const std::string& l : RenderDiag(expr, d)) {
        std::cout << "  " << l << "\n";
      }
    }
  }
  std::cout << path << ": " << queries << " queries checked, " << errors
            << " errors, " << warnings << " warnings\n";
  return errors > 0 ? 1 : 0;
}

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  duel EXPR       evaluate a DUEL expression\n"
      "  check EXPR      statically check a DUEL expression (no evaluation)\n"
      "  warn on|off|error  warning mode: report, discard, or reject the query\n"
      "  print EXPR      conventional debugger evaluation (no generators)\n"
      "  mi LINE         raw machine-interface command (-duel-evaluate \"...\")\n"
      "  symbolic on|off toggle symbolic values\n"
      "  cache on|off    toggle the read-combining target-memory cache (default on)\n"
      "  plan            list cached compiled queries (MRU first) + cache counters;\n"
      "                  'plan on|off' toggles the plan cache, 'plan clear' empties it\n"
      "  remote on|off   route queries through the RSP wire protocol\n"
      "  stats [on|off]  per-query stats (phases, counters, narrow-call latency);\n"
      "                  bare 'stats' re-prints the last collected stats\n"
      "  profile EXPR    evaluate EXPR with the per-AST-node profiler (heat view)\n"
      "  trace on|off    span tracing; 'trace dump [FILE]' prints spans or writes JSONL\n"
      "  packets on|off  RSP wire packet log; 'packets dump' prints it (remote mode)\n"
      "  govern          show per-query governor limits; 'govern deadline MS',\n"
      "                  'govern steps N', 'govern bytes N' set budgets (0 clears\n"
      "                  one), 'govern off' clears all — a governed query that\n"
      "                  trips a limit dies with a span-carrying diagnostic\n"
      "  serve start [N] start the concurrent query service with N workers (default 4);\n"
      "                  'serve open' opens a session, 'serve eval ID EXPR' evaluates,\n"
      "                  'serve cancel ID [WHY]' trips a session's governor,\n"
      "                  'serve close ID' closes, 'serve stats' prints counters,\n"
      "                  'serve stop' shuts the service down\n"
      "  info            image and backend statistics\n"
      "  history         list past duel queries; !N or !! re-runs one\n"
      "  load FILE       load a scenario description file into the debuggee\n"
      "  dump [FILE]     snapshot the debuggee as scenario text (to FILE or stdout)\n"
      "  x ADDR N        examine N bytes of target memory at ADDR (hex dump)\n"
      "  program FILE    load a steppable program (one C statement per line)\n"
      "  list            show the loaded program with the current pc\n"
      "  break N [COND]  breakpoint before line N (1-based), optional DUEL condition\n"
      "  watch EXPR      DUEL watchpoint (fires when the value sequence changes)\n"
      "  assert EXPR     stop when the DUEL assertion stops holding\n"
      "  display EXPR    auto-print a DUEL expression at every program stop\n"
      "  step | continue drive the loaded program\n"
      "  help            this text\n"
      "  quit            exit\n"
      "the debuggee has: int arr[10]; List *L; struct node *root;\n"
      "                  struct symbol *hash[1024]; char *argv[4]; 3 frames with int x\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--check") {
    if (argc < 3) {
      std::cerr << "usage: debugger_repl --check SCENARIO\n";
      return 2;
    }
    return RunBatchCheck(argv[2]);
  }
  target::TargetImage image;
  if (argc > 1) {
    // Load the debuggee from a scenario description file instead.
    target::InstallStandardFunctions(image);
    try {
      scenarios::LoadScenarioFile(image, argv[1]);
    } catch (const DuelError& e) {
      std::cerr << "error loading " << argv[1] << ": " << e.what() << "\n";
      return 1;
    }
  } else {
    BuildDebuggee(image);
  }

  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  rsp::FramedTransport transport(server);
  rsp::RemoteBackend remote(transport);

  Session local_session(sim);
  Session remote_session(remote);
  mi::MiSession mi_session(sim);
  EvalContext baseline_ctx(sim, EvalOptions());

  // Optional steppable program (the `program` command).
  std::unique_ptr<exec::TargetProgram> program;
  std::unique_ptr<exec::Debugger> prog_dbg;
  auto report_stop = [&](const exec::StopInfo& stop) {
    switch (stop.reason) {
      case exec::StopReason::kBreakpoint:
        std::cout << "breakpoint " << stop.index << " before line " << stop.line + 1 << ": "
                  << prog_dbg->program().line(stop.line) << "\n";
        break;
      case exec::StopReason::kWatchpoint:
        std::cout << "stopped after line " << stop.line + 1 << ": " << stop.detail << "\n";
        break;
      case exec::StopReason::kAssertion:
        std::cout << "stopped after line " << stop.line + 1 << ": " << stop.detail << "\n";
        break;
      case exec::StopReason::kError:
        std::cout << "program error: " << stop.detail << "\n";
        break;
      case exec::StopReason::kFinished:
        std::cout << "program finished\n";
        break;
      case exec::StopReason::kStep:
        std::cout << "stepped; next line " << prog_dbg->pc() + 1 << "\n";
        break;
    }
  };

  // The concurrent query service (`serve` commands): one shared image, many
  // sessions, started on demand.
  std::unique_ptr<serve::QueryService> service;

  bool use_remote = false;
  bool interactive = isatty(0);
  if (interactive) {
    std::cout << "duel mini-debugger (type 'help' for commands)\n";
  }

  std::string line;
  while (true) {
    Session& session = use_remote ? remote_session : local_session;
    if (interactive) {
      std::cout << (use_remote ? "(remote-gdb) " : "(gdb) ") << std::flush;
    }
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    std::string rest;
    std::getline(iss, rest);
    while (!rest.empty() && rest.front() == ' ') {
      rest.erase(rest.begin());
    }

    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "q") {
      break;
    }
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "duel") {
      QueryResult r = session.Query(rest);
      // Warnings come from the analyze stage, before any value; print them
      // first. The rejected-query error is already part of Text().
      for (const Diag& d : r.diags) {
        if (d.severity == Severity::kWarning) {
          for (const std::string& l : RenderDiag(rest, d)) {
            std::cout << l << "\n";
          }
        }
      }
      std::cout << r.Text();
      std::cout << image.TakeOutput();  // anything the target's printf wrote
      if (r.stats.has_value() && session.options().collect_stats) {
        for (const std::string& l : r.stats->Render()) {
          std::cout << "  | " << l << "\n";
        }
      }
    } else if (cmd == "check") {
      if (rest.empty()) {
        std::cout << "usage: check EXPR\n";
        continue;
      }
      QueryResult r = session.Check(rest);
      if (r.diags.empty()) {
        std::cout << "ok\n";
      }
      for (const Diag& d : r.diags) {
        for (const std::string& l : RenderDiag(rest, d)) {
          std::cout << l << "\n";
        }
      }
    } else if (cmd == "warn") {
      if (rest != "on" && rest != "off" && rest != "error") {
        std::cout << "usage: warn on|off|error\n";
        continue;
      }
      WarnMode mode = rest == "off"     ? WarnMode::kOff
                      : rest == "error" ? WarnMode::kError
                                        : WarnMode::kOn;
      local_session.options().warn = mode;
      remote_session.options().warn = mode;
      std::cout << "warn: " << rest << "\n";
    } else if (cmd == "stats") {
      if (rest == "on" || rest == "off") {
        bool on = rest == "on";
        local_session.options().collect_stats = on;
        remote_session.options().collect_stats = on;
        std::cout << "stats: " << rest << "\n";
      } else if (rest.empty()) {
        if (!session.last_stats().has_value()) {
          std::cout << "no stats collected yet (try: stats on)\n";
        } else {
          for (const std::string& l : session.last_stats()->Render()) {
            std::cout << l << "\n";
          }
        }
      } else {
        std::cout << "usage: stats [on|off]\n";
      }
    } else if (cmd == "profile") {
      if (rest.empty()) {
        std::cout << "usage: profile EXPR\n";
        continue;
      }
      bool saved = session.options().profile;
      session.options().profile = true;
      QueryResult r = session.Query(rest);
      session.options().profile = saved;
      std::cout << r.Text();
      std::cout << image.TakeOutput();
      if (r.stats.has_value()) {
        for (const std::string& l : r.stats->RenderProfile()) {
          std::cout << l << "\n";
        }
      }
    } else if (cmd == "trace") {
      obs::Tracer& tracer = session.tracer();
      std::istringstream ts(rest);
      std::string sub, file;
      ts >> sub >> file;
      if (sub == "on" || sub == "off") {
        tracer.set_enabled(sub == "on");
        std::cout << "trace: " << sub << "\n";
      } else if (sub == "clear") {
        tracer.Clear();
        std::cout << "trace cleared\n";
      } else if (sub == "dump" || sub.empty()) {
        if (!file.empty()) {
          std::ofstream outf(file);
          if (!outf) {
            std::cout << "cannot write " << file << "\n";
          } else {
            tracer.ExportJsonl(outf);
            std::cout << "wrote " << tracer.size() << " spans to " << file << "\n";
          }
        } else {
          for (const obs::TraceEvent& e : tracer.Events()) {
            std::cout << std::string(static_cast<size_t>(e.depth) * 2, ' ') << e.name;
            if (!e.detail.empty()) {
              std::cout << " `" << e.detail << "`";
            }
            std::cout << "  " << e.dur_ns << "ns\n";
          }
          std::cout << "(" << tracer.size() << " spans";
          if (tracer.dropped() > 0) {
            std::cout << ", " << tracer.dropped() << " dropped";
          }
          std::cout << ")\n";
        }
      } else {
        std::cout << "usage: trace on|off|clear|dump [FILE]\n";
      }
    } else if (cmd == "packets") {
      if (rest == "on" || rest == "off") {
        server.set_packet_logging(rest == "on");
        std::cout << "packet log: " << rest << "\n";
      } else if (rest == "clear") {
        server.ClearPacketLog();
        std::cout << "packet log cleared\n";
      } else if (rest == "dump" || rest.empty()) {
        for (const rsp::WirePacket& p : server.packet_log()) {
          std::cout << (p.is_request ? "-> " : "<- ") << p.payload << "\n";
        }
        std::cout << "(" << server.packet_log().size() << " packets"
                  << (server.packet_logging() ? "" : "; logging off — try 'packets on'")
                  << ")\n";
      } else {
        std::cout << "usage: packets on|off|clear|dump\n";
      }
    } else if (cmd == "print" || cmd == "p") {
      try {
        std::cout << baseline::RunBaselineQuery(sim, baseline_ctx, rest) << "\n";
        std::cout << image.TakeOutput();
      } catch (const DuelError& e) {
        std::cout << FormatError(e) << "\n";
      }
    } else if (cmd == "mi") {
      std::cout << mi_session.Handle(rest);
    } else if (cmd == "symbolic") {
      if (rest != "on" && rest != "off") {
        std::cout << "usage: symbolic on|off\n";
      } else {
        auto mode = rest == "off" ? EvalOptions::SymMode::kOff : EvalOptions::SymMode::kOn;
        local_session.options().eval.sym_mode = mode;
        remote_session.options().eval.sym_mode = mode;
        std::cout << "symbolic: " << rest << "\n";
      }
    } else if (cmd == "cache" || (cmd == "set" && StartsWith(rest, "cache"))) {
      std::string arg = cmd == "cache" ? rest : rest.substr(5);
      while (!arg.empty() && arg.front() == ' ') {
        arg.erase(arg.begin());
      }
      if (arg != "on" && arg != "off") {
        std::cout << "usage: cache on|off\n";
        continue;
      }
      bool on = arg == "on";
      local_session.options().eval.data_cache = on;
      remote_session.options().eval.data_cache = on;
      baseline_ctx.opts().data_cache = on;
      std::cout << "cache: " << arg << "\n";
    } else if (cmd == "plan") {
      if (rest == "on" || rest == "off") {
        bool on = rest == "on";
        local_session.options().plan_cache = on;
        remote_session.options().plan_cache = on;
        std::cout << "plan cache: " << rest << "\n";
      } else if (rest == "clear") {
        local_session.plan_cache().Clear();
        remote_session.plan_cache().Clear();
        std::cout << "plan cache cleared\n";
      } else if (rest.empty()) {
        const PlanCacheCounters& pc = session.plan_cache().counters();
        std::cout << "plan cache: " << session.plan_cache().size() << "/"
                  << session.plan_cache().capacity() << " entries"
                  << (session.options().plan_cache ? "" : " (disabled)")
                  << "  lookups=" << pc.lookups << " hits=" << pc.hits
                  << " misses=" << pc.misses
                  << " invalidations=" << pc.invalidations
                  << " evictions=" << pc.evictions << "\n";
        for (const CompiledQuery* p : session.plan_cache().Entries()) {
          std::cout << "  [hits=" << p->hits << " nodes=" << p->parsed.num_nodes
                    << " bound=" << p->notes.stats.names_bound
                    << " folded=" << p->notes.stats.nodes_folded << "] "
                    << p->text << "\n";
        }
      } else {
        std::cout << "usage: plan [on|off|clear]\n";
      }
    } else if (cmd == "remote") {
      use_remote = rest == "on";
      std::cout << "remote: " << (use_remote ? "on" : "off") << "\n";
    } else if (cmd == "load") {
      try {
        scenarios::LoadScenarioFile(image, rest);
        std::cout << "loaded " << rest << "\n";
      } catch (const DuelError& e) {
        std::cout << "load failed: " << e.what() << "\n";
      }
    } else if (cmd == "dump") {
      std::string text = scenarios::DumpScenario(image);
      if (rest.empty()) {
        std::cout << text;
      } else {
        std::ofstream outf(rest);
        if (!outf) {
          std::cout << "cannot write " << rest << "\n";
        } else {
          outf << text;
          std::cout << "wrote " << rest << "\n";
        }
      }
    } else if (cmd == "x") {
      std::istringstream xs(rest);
      std::string addr_text;
      size_t count = 16;
      xs >> addr_text >> count;
      uint64_t addr = strtoull(addr_text.c_str(), nullptr, 0);
      for (size_t off = 0; off < count; off += 16) {
        std::cout << StrPrintf("0x%llx: ", static_cast<unsigned long long>(addr + off));
        std::string ascii;
        for (size_t i = 0; i < 16 && off + i < count; ++i) {
          uint8_t byte;
          if (!image.memory().TryRead(addr + off + i, &byte, 1)) {
            std::cout << "?? ";
            ascii += '?';
          } else {
            std::cout << StrPrintf("%02x ", byte);
            ascii += (byte >= 0x20 && byte < 0x7f) ? static_cast<char>(byte) : '.';
          }
        }
        std::cout << " |" << ascii << "|\n";
      }
    } else if (cmd == "program") {
      try {
        std::ifstream in(rest);
        if (!in) {
          std::cout << "cannot open " << rest << "\n";
          continue;
        }
        std::vector<std::string> prog_lines;
        std::string pl;
        while (std::getline(in, pl)) {
          prog_lines.push_back(pl);
        }
        program = std::make_unique<exec::TargetProgram>(
            exec::TargetProgram::Parse(prog_lines, image));
        prog_dbg = std::make_unique<exec::Debugger>(image, sim, *program);
        std::cout << "loaded " << program->size() << " lines from " << rest << "\n";
      } catch (const DuelError& e) {
        std::cout << "program load failed: " << e.what() << "\n";
      }
    } else if (cmd == "list") {
      if (prog_dbg == nullptr) {
        std::cout << "no program loaded (use: program FILE)\n";
        continue;
      }
      for (size_t i = 0; i < program->size(); ++i) {
        std::cout << (i == prog_dbg->pc() ? "=> " : "   ") << i + 1 << "  "
                  << program->line(i) << "\n";
      }
    } else if (cmd == "break" || cmd == "watch" || cmd == "assert" || cmd == "display" ||
               cmd == "step" || cmd == "continue" || cmd == "c") {
      if (prog_dbg == nullptr) {
        std::cout << "no program loaded (use: program FILE)\n";
        continue;
      }
      try {
        if (cmd == "break") {
          std::istringstream bp(rest);
          size_t line_no = 0;
          bp >> line_no;
          std::string cond;
          std::getline(bp, cond);
          while (!cond.empty() && cond.front() == ' ') {
            cond.erase(cond.begin());
          }
          int idx = prog_dbg->AddBreakpoint(line_no == 0 ? 0 : line_no - 1, cond);
          std::cout << "breakpoint " << idx << " at line " << line_no << "\n";
        } else if (cmd == "watch") {
          int idx = prog_dbg->AddWatchpoint(rest);
          std::cout << "watchpoint " << idx << ": " << rest << "\n";
        } else if (cmd == "assert") {
          int idx = prog_dbg->AddAssertion("a" + std::to_string(rest.size()), rest);
          std::cout << "assertion " << idx << ": " << rest << "\n";
        } else if (cmd == "display") {
          int idx = prog_dbg->AddDisplay(rest);
          std::cout << "display " << idx << ": " << rest << "\n";
        } else if (cmd == "step") {
          report_stop(prog_dbg->Step());
          for (const std::string& d : prog_dbg->RenderDisplays()) {
            std::cout << "  " << d << "\n";
          }
        } else {
          report_stop(prog_dbg->Continue());
          for (const std::string& d : prog_dbg->RenderDisplays()) {
            std::cout << "  " << d << "\n";
          }
        }
      } catch (const DuelError& e) {
        std::cout << "error: " << e.what() << "\n";
      }
    } else if (cmd == "history") {
      const std::vector<std::string>& h = session.history();
      for (size_t i = 0; i < h.size(); ++i) {
        std::cout << "  " << i << "  " << h[i] << "\n";
      }
    } else if (cmd[0] == '!') {
      const std::vector<std::string>& h = session.history();
      std::string query;
      if (cmd == "!!" && !h.empty()) {
        query = h.back();
      } else if (cmd.size() > 1) {
        size_t idx = static_cast<size_t>(atoi(cmd.c_str() + 1));
        if (idx < h.size()) {
          query = h[idx];
        }
      }
      if (query.empty()) {
        std::cout << "no such history entry\n";
      } else {
        std::cout << "duel " << query << "\n" << session.Query(query).Text();
        std::cout << image.TakeOutput();
      }
    } else if (cmd == "info" && rest == "globals") {
      for (const target::Variable& v : image.symbols().globals()) {
        std::cout << "  " << v.type->Declare(v.name) << "\n";
      }
    } else if (cmd == "info" && rest == "locals") {
      if (image.symbols().NumFrames() == 0) {
        std::cout << "no frames\n";
      } else {
        for (size_t f = 0; f < image.symbols().NumFrames(); ++f) {
          const target::Frame& frame = image.symbols().GetFrame(f);
          std::cout << "frame " << f << " (" << frame.function << "):\n";
          for (const target::Variable& v : frame.locals) {
            std::cout << "  " << v.type->Declare(v.name) << "\n";
          }
        }
      }
    } else if (cmd == "govern") {
      GovernorLimits& lim = session.options().governor_limits;
      std::istringstream gss(rest);
      std::string what, value;
      gss >> what >> value;
      if (what.empty()) {
        if (!lim.any()) {
          std::cout << "governor: no limits set (queries run unbounded)\n";
        } else {
          std::cout << "governor: deadline=" << lim.deadline_ms << "ms steps=" << lim.max_steps
                    << " bytes=" << lim.max_read_bytes << "\n";
        }
      } else if (what == "off") {
        lim = GovernorLimits{};
        std::cout << "governor limits cleared\n";
      } else if (what == "deadline" || what == "steps" || what == "bytes") {
        uint64_t n = 0;
        if (!ParseU64(value, &n)) {
          std::cout << "usage: govern " << what << " N\n";
        } else {
          (what == "deadline" ? lim.deadline_ms
                              : what == "steps" ? lim.max_steps : lim.max_read_bytes) = n;
          std::cout << "governor " << what << " set to " << n << "\n";
        }
      } else {
        std::cout << "usage: govern [deadline MS | steps N | bytes N | off]\n";
      }
    } else if (cmd == "serve") {
      std::istringstream sss(rest);
      std::string sub;
      sss >> sub;
      if (sub == "start") {
        if (service != nullptr) {
          std::cout << "service already running\n";
        } else {
          serve::ServeOptions sopts;
          uint64_t n = 0;
          std::string workers;
          if (sss >> workers && ParseU64(workers, &n) && n > 0) {
            sopts.workers = static_cast<size_t>(n);
          }
          service = std::make_unique<serve::QueryService>(
              [&image] { return std::make_unique<dbg::SimBackend>(image); }, sopts);
          mi_session.set_service(service.get());
          std::cout << "query service started: " << sopts.workers << " workers, queue limit "
                    << sopts.queue_limit << "\n";
        }
      } else if (service == nullptr) {
        std::cout << "no service running (try 'serve start')\n";
      } else if (sub == "open") {
        std::cout << "session " << service->OpenSession() << " open\n";
      } else if (sub == "eval") {
        uint64_t id = 0;
        std::string id_text;
        if (!(sss >> id_text) || !ParseU64(id_text, &id)) {
          std::cout << "usage: serve eval ID EXPR\n";
        } else {
          std::string expr;
          std::getline(sss, expr);
          while (!expr.empty() && expr.front() == ' ') {
            expr.erase(expr.begin());
          }
          serve::QueryService::Outcome out = service->Eval(id, expr);
          if (out.status != serve::SubmitStatus::kAccepted) {
            std::cout << "serve: " << serve::SubmitStatusName(out.status) << "\n";
          } else {
            std::cout << out.result.Text();
          }
        }
      } else if (sub == "cancel") {
        uint64_t id = 0;
        std::string id_text, reason;
        sss >> id_text;
        std::getline(sss, reason);
        while (!reason.empty() && reason.front() == ' ') {
          reason.erase(reason.begin());
        }
        if (!ParseU64(id_text, &id)) {
          std::cout << "usage: serve cancel ID [REASON]\n";
        } else {
          std::cout << (service->Cancel(id, reason.empty() ? "cancelled by user" : reason)
                            ? "cancel requested\n"
                            : "no such session\n");
        }
      } else if (sub == "close") {
        uint64_t id = 0;
        std::string id_text;
        sss >> id_text;
        if (!ParseU64(id_text, &id)) {
          std::cout << "usage: serve close ID\n";
        } else {
          std::cout << (service->CloseSession(id) ? "session closed\n" : "no such session\n");
        }
      } else if (sub == "stats" || sub.empty()) {
        serve::ServeStats s = service->stats();
        std::cout << s.Summary() << "\n"
                  << "latency: " << s.latency_ns.Summary() << "\n"
                  << "queued:  " << s.queue_ns.Summary() << "\n";
      } else if (sub == "stop") {
        mi_session.set_service(nullptr);
        service.reset();  // Shutdown() in the destructor
        std::cout << "query service stopped\n";
      } else {
        std::cout << "usage: serve start [N] | open | eval ID EXPR | cancel ID [WHY] |"
                     " close ID | stats | stop\n";
      }
    } else if (cmd == "info") {
      std::cout << "globals: " << image.symbols().globals().size()
                << ", functions: " << image.symbols().functions().size()
                << ", frames: " << image.symbols().NumFrames() << "\n"
                << "sim backend: " << sim.instr().calls(obs::NarrowCall::kGetBytes) << " reads, "
                << sim.instr().calls(obs::NarrowCall::kSymbolLookup) << " symbol lookups\n"
                << "rsp transport: " << transport.round_trips() << " round trips, "
                << transport.bytes_on_wire() << " bytes on wire\n";
    } else {
      std::cout << "unknown command '" << cmd << "' (try 'help')\n";
    }
  }
  return 0;
}
