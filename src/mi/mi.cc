#include "src/mi/mi.h"

#include <cctype>

#include "src/serve/service.h"
#include "src/support/strings.h"

namespace duel::mi {

std::string MiQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrPrintf("\\%03o", static_cast<unsigned char>(c));
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
  return out;
}

namespace {

// Parses an MI c-string starting at s[i] == '"'. Returns false on bad syntax.
bool ParseCString(const std::string& s, size_t* i, std::string* out) {
  if (*i >= s.size() || s[*i] != '"') {
    return false;
  }
  ++*i;
  out->clear();
  while (*i < s.size()) {
    char c = s[(*i)++];
    if (c == '"') {
      return true;
    }
    if (c == '\\' && *i < s.size()) {
      char e = s[(*i)++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        default: out->push_back(e); break;
      }
    } else {
      out->push_back(c);
    }
  }
  return false;
}

}  // namespace

std::string MiSession::Handle(const std::string& line) {
  // Token prefix.
  size_t i = 0;
  std::string token;
  while (i < line.size() && isdigit(static_cast<unsigned char>(line[i]))) {
    token.push_back(line[i++]);
  }
  // Console form: "duel EXPR".
  if (line.compare(i, 5, "duel ") == 0) {
    QueryResult r = session_.Query(line.substr(i + 5));
    std::string out;
    for (const std::string& l : r.lines) {
      out += "~" + MiQuote(l + "\n") + "\n";
    }
    if (r.ok) {
      out += token + "^done\n";
    } else {
      out += token + "^error,msg=" + MiQuote(r.error) + "\n";
    }
    return out + "(gdb)\n";
  }
  if (i >= line.size() || line[i] != '-') {
    return token + "^error,msg=" + MiQuote("undefined command: " + line) + "\n(gdb)\n";
  }
  size_t cmd_start = i;
  while (i < line.size() && !isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  std::string command = line.substr(cmd_start, i - cmd_start);
  while (i < line.size() && isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  return HandleCommand(token, command, line.substr(i));
}

std::string MiSession::HandleCommand(const std::string& token, const std::string& command,
                                     const std::string& rest) {
  auto done = [&](const std::string& extra = "") {
    return token + "^done" + extra + "\n(gdb)\n";
  };
  auto error = [&](const std::string& msg) {
    return token + "^error,msg=" + MiQuote(msg) + "\n(gdb)\n";
  };

  if (command == "-duel-evaluate") {
    std::string expr;
    size_t i = 0;
    if (!ParseCString(rest, &i, &expr)) {
      expr = rest;  // tolerate an unquoted expression
    }
    if (expr.empty()) {
      return error("-duel-evaluate requires an expression");
    }
    QueryResult r = session_.Query(expr);
    if (!r.ok) {
      return error(r.error);
    }
    std::string values = ",values=[";
    for (size_t k = 0; k < r.value_count(); ++k) {
      values += k == 0 ? "{sym=" : ",{sym=";
      values += MiQuote(r.SymText(k)) + ",value=" + MiQuote(r.ValueText(k)) + "}";
    }
    values += "]";
    if (r.truncated) {
      values += ",truncated=\"1\"";
    }
    return done(values);
  }
  if (command == "-duel-set-symbolic") {
    if (rest == "on") {
      session_.options().eval.sym_mode = EvalOptions::SymMode::kOn;
      return done();
    }
    if (rest == "off") {
      session_.options().eval.sym_mode = EvalOptions::SymMode::kOff;
      return done();
    }
    return error("expected on|off");
  }
  if (command == "-duel-set-cache") {
    if (rest == "on") {
      session_.options().eval.data_cache = true;
      return done();
    }
    if (rest == "off") {
      session_.options().eval.data_cache = false;
      return done();
    }
    return error("expected on|off");
  }
  if (command == "-duel-clear-aliases") {
    session_.ClearAliases();
    return done();
  }
  if (command == "-duel-stats") {
    if (rest == "on") {
      session_.options().collect_stats = true;
      return done();
    }
    if (rest == "off") {
      session_.options().collect_stats = false;
      session_.options().profile = false;
      return done();
    }
    if (rest == "profile") {
      session_.options().collect_stats = true;
      session_.options().profile = true;
      return done();
    }
    if (!rest.empty()) {
      return error("expected on|off|profile or no argument");
    }
    // Bare form: report the stats of the most recent instrumented query.
    const std::optional<obs::QueryStats>& stats = session_.last_stats();
    if (!stats.has_value()) {
      return error("no stats collected yet; run -duel-stats on first");
    }
    std::string extra = ",stats=" + MiQuote(stats->ToJson());
    return done(extra);
  }
  if (command == "-duel-trace") {
    obs::Tracer& tracer = session_.tracer();
    if (rest == "on") {
      tracer.set_enabled(true);
      return done();
    }
    if (rest == "off") {
      tracer.set_enabled(false);
      return done();
    }
    if (rest == "clear") {
      tracer.Clear();
      return done();
    }
    if (rest == "dump" || rest.empty()) {
      std::string out;
      for (const obs::TraceEvent& e : tracer.Events()) {
        out += "~" + MiQuote(std::string(static_cast<size_t>(e.depth) * 2, ' ') + e.name +
                             (e.detail.empty() ? "" : " " + e.detail) + " " +
                             StrPrintf("%lluns", static_cast<unsigned long long>(e.dur_ns)) +
                             "\n") +
               "\n";
      }
      std::string extra = StrPrintf(",spans=\"%zu\",dropped=\"%llu\"", tracer.size(),
                                    static_cast<unsigned long long>(tracer.dropped()));
      return out + done(extra);
    }
    return error("expected on|off|dump|clear");
  }
  if (command == "-duel-set-plan-cache") {
    if (rest == "on") {
      session_.options().plan_cache = true;
      return done();
    }
    if (rest == "off") {
      session_.options().plan_cache = false;
      return done();
    }
    if (rest == "clear") {
      session_.plan_cache().Clear();
      return done();
    }
    return error("expected on|off|clear");
  }
  if (command == "-duel-plan") {
    if (!rest.empty()) {
      return error("-duel-plan takes no argument");
    }
    PlanCache& cache = session_.plan_cache();
    const PlanCacheCounters& pc = cache.counters();
    std::string extra = StrPrintf(
        ",plan-cache={enabled=\"%s\",size=\"%zu\",capacity=\"%zu\","
        "lookups=\"%llu\",hits=\"%llu\",misses=\"%llu\",invalidations=\"%llu\","
        "evictions=\"%llu\"}",
        session_.options().plan_cache ? "1" : "0", cache.size(), cache.capacity(),
        static_cast<unsigned long long>(pc.lookups), static_cast<unsigned long long>(pc.hits),
        static_cast<unsigned long long>(pc.misses),
        static_cast<unsigned long long>(pc.invalidations),
        static_cast<unsigned long long>(pc.evictions));
    extra += ",plans=[";
    bool first = true;
    for (const CompiledQuery* p : cache.Entries()) {
      if (!first) {
        extra += ",";
      }
      first = false;
      extra += StrPrintf(
          "{expr=%s,hits=\"%llu\",nodes=\"%d\",bound-names=\"%zu\",folded-nodes=\"%llu\"}",
          MiQuote(p->text).c_str(), static_cast<unsigned long long>(p->hits),
          p->parsed.num_nodes, p->notes.stats.names_bound,
          static_cast<unsigned long long>(p->notes.stats.nodes_folded));
    }
    extra += "]";
    return done(extra);
  }
  if (command == "-duel-check") {
    std::string expr;
    size_t i = 0;
    if (!ParseCString(rest, &i, &expr)) {
      expr = rest;  // tolerate an unquoted expression
    }
    if (expr.empty()) {
      return error("-duel-check requires an expression");
    }
    QueryResult r = session_.Check(expr);
    std::string extra = ",diags=[";
    for (size_t k = 0; k < r.diags.size(); ++k) {
      const Diag& d = r.diags[k];
      if (k != 0) {
        extra += ",";
      }
      extra += StrPrintf("{severity=\"%s\",rule=%s,begin=\"%zu\",end=\"%zu\",msg=%s",
                         SeverityName(d.severity), MiQuote(d.rule).c_str(), d.span.begin,
                         d.span.end, MiQuote(d.message).c_str());
      if (!d.fixit.empty()) {
        extra += ",fixit=" + MiQuote(d.fixit);
      }
      extra += "}";
    }
    extra += "]";
    return done(extra);
  }
  if (command == "-duel-set-warn") {
    if (rest == "on") {
      session_.options().warn = WarnMode::kOn;
      return done();
    }
    if (rest == "off") {
      session_.options().warn = WarnMode::kOff;
      return done();
    }
    if (rest == "error") {
      session_.options().warn = WarnMode::kError;
      return done();
    }
    return error("expected on|off|error");
  }
  if (command == "-duel-serve-stats") {
    if (service_ == nullptr) {
      return error("no query service attached");
    }
    serve::ServeStats s = service_->stats();
    std::string extra = StrPrintf(
        ",serve={clients=\"%zu\",workers=\"%zu\",queue_depth=\"%zu\","
        "in_flight=\"%zu\",submitted=\"%llu\",completed=\"%llu\",ok=\"%llu\","
        "query_errors=\"%llu\",cancelled=\"%llu\",rejected_busy=\"%llu\","
        "read_only=\"%llu\",mutating=\"%llu\",mutation_epoch=\"%llu\","
        "latency_p50_ns=\"%llu\",latency_p99_ns=\"%llu\",queue_p50_ns=\"%llu\","
        "queue_p99_ns=\"%llu\"}",
        s.clients, s.workers, s.queue_depth, s.in_flight,
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.ok),
        static_cast<unsigned long long>(s.query_errors),
        static_cast<unsigned long long>(s.cancelled),
        static_cast<unsigned long long>(s.rejected_busy),
        static_cast<unsigned long long>(s.read_only),
        static_cast<unsigned long long>(s.mutating),
        static_cast<unsigned long long>(s.mutation_epoch),
        static_cast<unsigned long long>(s.latency_ns.Percentile(0.50)),
        static_cast<unsigned long long>(s.latency_ns.Percentile(0.99)),
        static_cast<unsigned long long>(s.queue_ns.Percentile(0.50)),
        static_cast<unsigned long long>(s.queue_ns.Percentile(0.99)));
    return done(extra);
  }
  if (command == "-list-features") {
    return done(
        ",features=[\"duel-evaluate\",\"duel-set-symbolic\","
        "\"duel-set-cache\",\"duel-clear-aliases\",\"duel-stats\",\"duel-trace\","
        "\"duel-plan\",\"duel-set-plan-cache\",\"duel-check\",\"duel-set-warn\","
        "\"duel-serve-stats\"]");
  }
  return error("undefined MI command: " + command);
}

}  // namespace duel::mi
