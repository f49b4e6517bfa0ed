// serve_bench: the serving benchmark's entry point.
//
//   serve_bench --workload <edge_fanin|join_shards|speedmap_feedback>
//               --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Progress and failure reasons go to stderr; the last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (and raw spans are written to --trace-out).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload <edge_fanin|join_shards|"
               "speedmap_feedback> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::trace::RegisterMainThread();
  servebench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      opts.trace_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0) return Usage();

  // Generator + acceptor + 2 pool workers: the most threads any
  // workload runs at once.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < 4) {
    std::fprintf(stderr, "warning: %u CPUs; the workloads run 4 threads\n",
                 nproc);
  }
  servebench::Report report;
  if (opts.workload == "edge_fanin") {
    report = servebench::RunEdgeFanin(opts);
  } else if (opts.workload == "join_shards") {
    report = servebench::RunJoinShards(opts);
  } else if (opts.workload == "speedmap_feedback") {
    report = servebench::RunSpeedmapFeedback(opts);
  } else {
    return Usage();
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }
  if (opts.trace && !opts.trace_out.empty() &&
      !servebench::trace::WriteRaw(opts.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 opts.trace_out.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
