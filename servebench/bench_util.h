// Shared plumbing for the serving benchmark: command-line options,
// clocks, percentiles, the metric report and its one-line JSON form.

#ifndef SERVEBENCH_BENCH_UTIL_H_
#define SERVEBENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its raw spans (empty = nowhere).
  std::string trace_out;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) {
  return Quantile(v, 0.5);
}

/// (Q3 - Q1) / median with the quartiles Python's
/// statistics.quantiles(values, n=4) gives (the "exclusive" method),
/// so in-run spreads read on the same scale as run-to-run ones.
inline double IqrOverMedian(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1;
  auto at = [&](double pos) {  // 1-based position, clamped
    pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const size_t j = static_cast<size_t>(pos);
    const double delta = pos - static_cast<double>(j);
    if (j >= v.size()) return v.back();
    return v[j - 1] + (v[j] - v[j - 1]) * delta;
  };
  const double med = Median(v);
  if (med == 0) return 0;
  return (at(m * 0.75) - at(m * 0.25)) / med;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run prints as its last line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons for failures (stderr only).
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one checked operation; a false `ok` is a failure.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 20) problems.push_back(what);
    }
  }
  bool correct() const { return failed == 0 && attempted > 0; }

  std::string ToJson() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      char num[64];
      // JSON has no NaN/inf; a non-finite value is reported as 0 and the
      // run is already marked failed by whoever produced it.
      std::snprintf(num, sizeof(num), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }
};

/// SplitMix64 finalizer: a stateless hash of (seed, a, b, c) so every
/// generated value is a pure function of the seed and its position.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0,
                    uint64_t c = 0) {
  return Mix(Mix(Mix(Mix(seed) ^ a) ^ b) ^ c);
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_UTIL_H_
