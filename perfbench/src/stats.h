// Statistics over raw per-query samples, and the process-level meters.
//
// Every timing percentile the benchmark reports is read from the sorted raw
// samples (nearest rank), never from histogram bucket bounds.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Median of the samples: the middle value, or the mean of the two middle
// values for an even count. 0 for no samples.
double Median(std::vector<double> samples);

// Nearest-rank percentile `pct` (0 < pct <= 100): the smallest sample with at
// least pct% of the samples at or below it. 0 for no samples.
double Percentile(std::vector<double> samples, double pct);

// Samples strictly beyond the nearest-rank position of `pct` among `n`.
size_t SamplesBeyond(size_t n, double pct);

// A latency summary read from raw samples. `tail_pct` is fixed per workload;
// `tail_ok` says whether at least ten samples lie beyond it.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;
  double tail = 0;
  size_t beyond = 0;
  bool tail_ok = false;
};
LatencySummary Summarize(const std::vector<double>& samples, double tail_pct);
LatencySummary Summarize(const std::vector<float>& samples, double tail_pct);

// num / den, or 0 when den is 0 (the ratio has no base then).
double Ratio(double num, double den);

// One recorded interval and its parent (0 = none). Self time is the span's
// duration minus the part of it covered by its children (the union of the
// child intervals clipped to the parent, so overlapping children from other
// threads are not counted twice).
struct Interval {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start = 0;
  uint64_t end = 0;
};
std::vector<uint64_t> SelfTimes(const std::vector<Interval>& spans);

// CPU time (user + system) of this process so far, in microseconds.
double CpuMicros();
// Peak resident set of this process so far, in MiB.
double PeakRssMiB();
// Online processors.
unsigned Nproc();

// Monotonic nanoseconds.
uint64_t Now();

// The host's current speed: nanoseconds a fixed piece of work takes (median
// of three passes of about 1 ms) on one thread. The work shares no code with DUEL, so no
// change to the program moves it: small allocations, string formatting and
// comparisons and tree walks, whose cost a busy host raises in about the
// proportion it raises DUEL's. (A pointer chase over 1 MiB and an L1-resident
// bytecode loop were tried and tracked it far worse.)
double CalibrationNs();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
