// Machine-readable bench output: a flat {"metric": value} JSON object
// shared by the hot-path benches (BENCH_hotpath.json). Each bench
// binary read-modify-writes its own entries so the file accumulates a
// perf trajectory across runs and across binaries — later PRs diff it.
//
// Path: $NSTREAM_BENCH_JSON if set, else ./BENCH_hotpath.json (the
// bench runner's working directory).
//
// Every write also stamps the meta.* rows: the writing box's online
// CPUs, whether the bench was an optimised NDEBUG (Release) build, and
// the compiler version, so a row can be read against the box and build
// that last wrote the file.

#ifndef NSTREAM_BENCH_BENCH_JSON_H_
#define NSTREAM_BENCH_BENCH_JSON_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace nstream {
namespace benchjson {

inline std::string FilePath() {
  const char* env = std::getenv("NSTREAM_BENCH_JSON");
  return env != nullptr ? env : "BENCH_hotpath.json";
}

// Parses the flat one-entry-per-line object this header writes. Not a
// general JSON parser; it only needs to round-trip its own output.
inline std::map<std::string, double> ReadExisting(
    const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    size_t colon = line.find(':', q2);
    if (colon == std::string::npos) continue;
    out[line.substr(q1 + 1, q2 - q1 - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

/// The box and build context rows RecordAll stamps on every write.
inline std::map<std::string, double> MetaRows() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  const double release = 1;
#else
  const double release = 0;
#endif
  // major·10000 + minor·100 + patch.
#if defined(__clang__)
  const double compiler = __clang_major__ * 10000 + __clang_minor__ * 100 +
                          __clang_patchlevel__;
  const double clang = 1;
#elif defined(__GNUC__)
  const double compiler =
      __GNUC__ * 10000 + __GNUC_MINOR__ * 100 + __GNUC_PATCHLEVEL__;
  const double clang = 0;
#else
  const double compiler = 0;
  const double clang = 0;
#endif
  return {
      {"meta.online_cpus",
       static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))},
      {"meta.release_build", release},
      {"meta.compiler_version", compiler},
      {"meta.compiler_is_clang", clang},
  };
}

/// Merge `updates` and the meta.* rows into the JSON file (existing
/// keys not in either are preserved).
inline void RecordAll(const std::map<std::string, double>& updates) {
  std::string path = FilePath();
  std::map<std::string, double> all = ReadExisting(path);
  for (const auto& [k, v] : updates) all[k] = v;
  for (const auto& [k, v] : MetaRows()) all[k] = v;
  std::ofstream out(path);
  out << "{\n";
  size_t i = 0;
  for (const auto& [k, v] : all) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out << "  \"" << k << "\": " << buf
        << (++i == all.size() ? "\n" : ",\n");
  }
  out << "}\n";
  std::printf("[bench_json] wrote %zu metrics to %s\n", all.size(),
              path.c_str());
}

/// Adds `key` as the median of `samples` (nearest rank), plus
/// `key.p10`, `key.p90` and `key.n`, to `rows` — for latencies whose
/// spread matters as much as their centre.
inline void AddSamples(std::map<std::string, double>* rows,
                       const std::string& key, std::vector<double> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  auto rank = [&samples](double q) {
    return samples[static_cast<size_t>(q * (samples.size() - 1) + 0.5)];
  };
  (*rows)[key] = rank(0.5);
  (*rows)[key + ".p10"] = rank(0.1);
  (*rows)[key + ".p90"] = rank(0.9);
  (*rows)[key + ".n"] = static_cast<double>(samples.size());
}

/// Wall-clock throughput of `body` (which performs `items_per_call`
/// logical items per invocation): runs for ~`budget_ms` and returns
/// items/sec.
template <typename Fn>
double MeasurePerSec(double items_per_call, double budget_ms, Fn&& body) {
  using Clock = std::chrono::steady_clock;
  // Warm-up.
  body();
  auto start = Clock::now();
  double items = 0;
  while (true) {
    body();
    items += items_per_call;
    double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();
    if (ms >= budget_ms) return items / (ms / 1000.0);
  }
}

}  // namespace benchjson
}  // namespace nstream

#endif  // NSTREAM_BENCH_BENCH_JSON_H_
