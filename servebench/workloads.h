// The three workloads and the metric catalogue they all report from.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "child.h"
#include "exec/scheduler.h"
#include "trace.h"

namespace servebench {

Report RunEdgeFanin(const Options& opts);
Report RunJoinShards(const Options& opts);
Report RunSpeedmapFeedback(const Options& opts);

/// End-to-end metrics, reported by every workload with tracing off.
struct EndToEnd {
  double setup_s = 0;
  double tuples_per_sec = 0;
  double cpu_ns_per_tuple = 0;
  double rss_peak_mb = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

inline void AddEndToEnd(const EndToEnd& e, Report* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("tuples_per_sec", e.tuples_per_sec, "1/s");
  r->Add("cpu_ns_per_tuple", e.cpu_ns_per_tuple, "ns");
  r->Add("rss_peak_mb", e.rss_peak_mb, "MB");
  r->Add("latency_p50_ms", e.latency_p50_ms, "ms");
  r->Add("latency_p99_ms", e.latency_p99_ms, "ms");
}

/// Every per-layer metric, by name and unit. The traced run of every
/// workload reports all of them; a layer the workload does not
/// exercise reads 0 (e.g. feedback.emitted on edge_fanin).
inline const std::vector<std::pair<std::string, std::string>>&
LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"gen.lag_ms_p99", "ms"},
      {"gen.blocked_frac", "1"},
      {"gen.self_ms", "ms"},
      {"ingest.decode_ns_per_tuple", "ns"},
      {"ingest.acceptor_frames_per_sec", "1/s"},
      {"ingest.backpressure_pauses", "count"},
      {"ingest.socket_backlog_kb_peak", "kB"},
      {"ingest.feedback_delivery_frac", "1"},
      {"ingest.self_ms", "ms"},
      {"exec.slices_per_ktuple", "count"},
      {"exec.wakes_per_ktuple", "count"},
      {"exec.wake_coalesce_frac", "1"},
      {"exec.cpu_util", "1"},
      {"exec.pool1_tuples_per_sec", "1/s"},
      {"exec.pool_speedup", "1"},
      {"exec.pass_spread", "1"},
      {"exec.self_ms", "ms"},
      {"stream.backlog_peak_tuples", "count"},
      {"stream.queue_depth_peak_pages", "count"},
      {"stream.long_pass_rss_mb", "MB"},
      {"stream.self_ms", "ms"},
      {"ops.exchange_ns_per_tuple", "ns"},
      {"ops.join_ns_per_tuple", "ns"},
      {"ops.merge_ns_per_tuple", "ns"},
      {"ops.join_shard_skew", "1"},
      {"ops.join_state_purged", "count"},
      {"ops.select_ns_per_tuple", "ns"},
      {"ops.aggregate_ns_per_update", "ns"},
      {"ops.self_ms", "ms"},
      {"feedback.emitted", "count"},
      {"feedback.producer_skipped", "count"},
      {"feedback.guard_drops_ingest", "count"},
      {"feedback.guard_drops_select", "count"},
      {"feedback.guard_drops_aggregate", "count"},
      {"feedback.leaked_updates", "count"},
      {"feedback.match_ns", "ns"},
      {"feedback.rtt_p50_ms", "ms"},
      {"feedback.avoided_frac", "1"},
      {"feedback.self_ms", "ms"},
      {"trace.overhead_frac", "1"},
      {"trace.spans", "count"},
  };
  return k;
}

using LayerValues = std::map<std::string, double>;

/// Fold the traced phase's span totals into `v` as <layer>.self_ms.
inline void AddSelfTimes(const trace::Totals& t, LayerValues* v) {
  for (int l = 0; l < trace::kNumLayers; ++l) {
    (*v)[std::string(trace::LayerName(static_cast<trace::Layer>(l))) +
         ".self_ms"] = t.self_ns[l] / 1e6;
  }
  (*v)["trace.spans"] = static_cast<double>(t.spans);
}

inline void AddLayerMetrics(const LayerValues& v, Report* r) {
  for (const auto& [name, unit] : LayerCatalogue()) {
    auto it = v.find(name);
    r->Add(name, it == v.end() ? 0.0 : it->second, unit);
  }
}

/// Run `pass(i)` for i = 0, 1, ... until `seconds` of wall time have
/// gone by, and at least `min_passes` times.
template <class Fn>
void RunPassesFor(double seconds, int min_passes, Fn pass) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int i = 0;
  do {
    pass(i++);
  } while (i < min_passes || NowNs() < deadline);
}

// ---- Pass aggregation. Every workload's PassResult has: bool ok;
// double setup_s, wall_s, cpu_s; uint64_t tuples (input tuples of the
// timed phase); std::vector<double> latency_ms; nstream::SchedulerStats
// sched.

/// In-process passes for `seconds` (at least `min_passes`);
/// `run(pass_index, report)` runs one.
template <class Run>
auto RunPhase(double seconds, int min_passes, int* pass_index, Run run,
              Report* report) {
  std::vector<decltype(run(0, report))> passes;
  RunPassesFor(seconds, min_passes, [&](int) {
    passes.push_back(run((*pass_index)++, report));
  });
  return passes;
}

template <class P>
std::vector<double> PassRates(const std::vector<P>& passes) {
  std::vector<double> v;
  for (const P& p : passes) {
    if (p.ok) v.push_back(static_cast<double>(p.tuples) / p.wall_s);
  }
  return v;
}

template <class P>
double MedianCpuNsPerTuple(const std::vector<P>& passes) {
  std::vector<double> v;
  for (const P& p : passes) {
    if (p.ok) v.push_back(p.cpu_s * 1e9 / static_cast<double>(p.tuples));
  }
  return Median(v);
}

/// Untraced passes run kPassesPerChild at a time in a forked child
/// (see child.h), after one unscored pass that takes the child's
/// first-touch page faults.
inline constexpr int kPassesPerChild = 4;

/// End-to-end figures of a closed-loop workload: every figure is the
/// median over passes (latency: of each pass's p50 and p99), and
/// rss_peak_mb the median over child processes.
template <class Run>
EndToEnd MeasureClosedLoop(const char* name, double seconds,
                           int* pass_index, Run run, Report* report) {
  std::vector<double> setup, rates, cpu, p50, p99, rss;
  RunPassesFor(seconds, 1, [&](int) {
    const int first = *pass_index;
    *pass_index += kPassesPerChild + 1;
    ChildResult c = RunInChild(
        [&](Report* r) {
          Report warm;
          run(first, &warm);
          std::vector<double> v;
          for (int i = 1; i <= kPassesPerChild; ++i) {
            const auto p = run(first + i, r);
            if (!p.ok) continue;
            const double n = static_cast<double>(p.tuples);
            v.insert(v.end(), {p.setup_s, n / p.wall_s, p.cpu_s * 1e9 / n,
                               Quantile(p.latency_ms, 0.5),
                               Quantile(p.latency_ms, 0.99)});
          }
          return v;
        },
        report);
    for (size_t i = 0; i + 5 <= c.values.size(); i += 5) {
      setup.push_back(c.values[i]);
      rates.push_back(c.values[i + 1]);
      cpu.push_back(c.values[i + 2]);
      p50.push_back(c.values[i + 3]);
      p99.push_back(c.values[i + 4]);
    }
    if (c.ran) rss.push_back(c.maxrss_mb);
  });
  std::fprintf(stderr,
               "%s: %zu passes; rate p10 %.0f p50 %.0f p90 %.0f; "
               "child rss MB p10 %.1f p50 %.1f p90 %.1f\n",
               name, rates.size(), Quantile(rates, 0.1), Quantile(rates, 0.5),
               Quantile(rates, 0.9), Quantile(rss, 0.1), Quantile(rss, 0.5),
               Quantile(rss, 0.9));
  EndToEnd e;
  e.setup_s = Median(setup);
  e.tuples_per_sec = Median(rates);
  e.cpu_ns_per_tuple = Median(cpu);
  e.rss_peak_mb = Median(rss);
  e.latency_p50_ms = Median(p50);
  e.latency_p99_ms = Median(p99);
  return e;
}

/// Scheduler counters and CPU use of a phase's completed passes, as
/// the per-layer exec metrics (per thousand input tuples).
template <class P>
void AddExecCounters(const std::vector<P>& passes, int workers,
                     LayerValues* v) {
  double tuples = 0, wall = 0, cpu = 0, slices = 0, wakes = 0, coalesced = 0;
  for (const P& p : passes) {
    if (!p.ok) continue;
    tuples += static_cast<double>(p.tuples);
    wall += p.wall_s;
    cpu += p.cpu_s;
    slices += static_cast<double>(p.sched.slices);
    wakes += static_cast<double>(p.sched.wakes_delivered +
                                 p.sched.wakes_coalesced +
                                 p.sched.wakes_ignored);
    coalesced += static_cast<double>(p.sched.wakes_coalesced);
  }
  if (tuples == 0 || wall == 0) return;
  (*v)["exec.slices_per_ktuple"] = slices / (tuples / 1000);
  (*v)["exec.wakes_per_ktuple"] = wakes / (tuples / 1000);
  (*v)["exec.wake_coalesce_frac"] = wakes > 0 ? coalesced / wakes : 0;
  (*v)["exec.cpu_util"] = cpu / (wall * workers);
}

/// Largest sampled queue depth over a traced phase's passes.
template <class P>
double QueuePagesPeak(const std::vector<P>& passes) {
  double peak = 0;
  for (const P& p : passes) peak = std::max(peak, p.queue_pages_peak);
  return peak;
}

/// Largest total of the `data_pages=` depths in a StallReport() dump:
/// the pages queued on all edges of the plan at that instant.
inline double QueuedPages(const std::string& stall_report) {
  double total = 0;
  const std::string key = "data_pages=";
  for (size_t pos = stall_report.find(key); pos != std::string::npos;
       pos = stall_report.find(key, pos + key.size())) {
    total += std::strtod(stall_report.c_str() + pos + key.size(), nullptr);
  }
  return total;
}

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
