#include "stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {

// 1-based nearest rank of `pct` among `n` samples.
size_t Rank(size_t n, double pct) {
  auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[Rank(samples.size(), pct) - 1];
}

size_t SamplesBeyond(size_t n, double pct) { return n == 0 ? 0 : n - Rank(n, pct); }

LatencySummary Summarize(const std::vector<double>& samples, double tail_pct) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Median(samples);
  s.tail_pct = tail_pct;
  s.tail = Percentile(samples, tail_pct);
  s.beyond = SamplesBeyond(s.n, tail_pct);
  s.tail_ok = s.beyond >= 10;
  return s;
}

LatencySummary Summarize(const std::vector<float>& samples, double tail_pct) {
  return Summarize(std::vector<double>(samples.begin(), samples.end()), tail_pct);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<uint64_t> SelfTimes(const std::vector<Interval>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Interval& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      const Interval& p = spans[it->second];
      uint64_t b = std::max(s.start, p.start);
      uint64_t e = std::min(s.end, p.end);
      if (b < e) {
        kids[it->second].emplace_back(b, e);
      }
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<uint64_t, uint64_t>>& k = kids[i];
    std::sort(k.begin(), k.end());
    uint64_t covered = 0;
    uint64_t cur_b = 0;
    uint64_t cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : k) {
      if (!open || b > cur_e) {
        if (open) {
          covered += cur_e - cur_b;
        }
        cur_b = b;
        cur_e = e;
        open = true;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (open) {
      covered += cur_e - cur_b;
    }
    uint64_t dur = spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

double CpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

namespace {

// One pass of the calibration work: three rounds of building an ordered map
// of 1000 short formatted strings.
uint64_t CalibrationPass() {
  std::map<std::string, int> m;
  char buf[32];
  uint64_t n = 0;
  for (int r = 0; r < 3; ++r) {
    m.clear();
    for (int i = 0; i < 1000; ++i) {
      std::snprintf(buf, sizeof buf, "k%d", (i * 7919) % 10007);
      m[buf] += i;
    }
    n += m.size();
  }
  return n;
}

}  // namespace

double CalibrationNs() {
  static volatile uint64_t sink = 0;
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    const uint64_t t0 = Now();
    sink = sink + CalibrationPass();
    ns.push_back(static_cast<double>(Now() - t0));
  }
  return Median(ns);
}

uint64_t Now() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace perfbench
