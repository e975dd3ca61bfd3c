// duelbench: runs one workload and prints its metrics.
//
//   duelbench --workload scan|interactive|serve_mixed --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Human-readable metric lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the first
// S/2 seconds run untraced and the rest traced, and the metrics are the
// per-layer ones (the tracing overhead compares the two halves).

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "world.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: duelbench --workload scan|interactive|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--trace-out") {
      cfg.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) {
    return Usage();
  }

  // Keep freed heap memory in the process. Returning it to the kernel after
  // each large result and faulting it back in for the next adds the host's
  // page-fault cost, which varies with its load, to every timing.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Outcome out;
  if (cfg.workload == "scan") {
    out = perfbench::RunScan(cfg);
  } else if (cfg.workload == "interactive") {
    out = perfbench::RunInteractive(cfg);
  } else if (cfg.workload == "serve_mixed") {
    out = perfbench::RunServeMixed(cfg);
  } else {
    return Usage();
  }

  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + m.name + "\": {\"value\": " +
               JsonNumber(std::isfinite(m.value) ? m.value : 0) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  json += (out.correct && finite) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
