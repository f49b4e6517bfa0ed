// speedmap_feedback: the paper's Experiment 2 plan served over TCP,
// open loop at one fixed rate. IngestSource → σQ → AVERAGE → viewer
// sink under F3 (exploit and propagate). The viewer emits assumed
// feedback at every segment switch; AVERAGE and σQ exploit and relay
// it, IngestSource relays it to the producer, and the generator stops
// sending the hidden segments. This is the only workload that runs
// control channels, guards, pattern propagation and the
// engine → producer path, and it uses ingest and exec the opposite way
// from the other two: sparse, wake-driven, latency-bound traffic with
// reverse flow.
//
// Sizing: 9 segments × kDetectors detectors report every kTickMs of
// data time; one window (kWindowMs) of data time is sent per
// kWallNsPerWindow of wall time, so a run yields well over 1000 window
// results and over 100 viewer switches, and the feedback round trip
// (a few ms) is small next to the switch interval (3 windows).

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "child.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "ingest/frame_conduit.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ingest/wire_format.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/window_aggregate.h"
#include "producer.h"
#include "punct/compiled_pattern.h"
#include "replay.h"
#include "trace.h"
#include "workload/traffic.h"
#include "workload/viewer.h"
#include "workloads.h"

namespace servebench {
namespace {

using namespace nstream;

constexpr int kSegments = 9;
constexpr int kDetectors = 100;  // per segment
constexpr TimeMs kWindowMs = 60'000;
constexpr TimeMs kTickMs = 20'000;
constexpr int kTicksPerWindow = kWindowMs / kTickMs;
// Viewer switch interval. The results of every window of an interval
// but its first currently reach the viewer only when the next
// interval's first window closes (see NOTES.md), which splits the
// latency samples into one cluster per window position; an odd number
// of windows keeps the median inside a cluster instead of on the edge
// between two.
constexpr TimeMs kSwitchMs = 3 * kWindowMs;
// The fixed open-loop rate: one data-time window per 6 ms of wall time,
// i.e. 9 × 100 × 3 = 2700 offered tuples per 6 ms = 450 000 tuples/s.
constexpr int64_t kWallNsPerWindow = 6'000'000;
constexpr int64_t kWallNsPerTick = kWallNsPerWindow / kTicksPerWindow;
constexpr int64_t kWindowsPerPass = 200;
// The unscored pass that takes a fresh child's first-touch faults.
constexpr int64_t kWarmupWindows = 20;
constexpr int kWorkers = 2;
// A pass fell behind when a tenth of its ticks went out more than a
// tick late (sustained lateness; one stall of the box delays only the
// few ticks it covers), or when its last result arrived more than this
// long after its window closed (the backlog grew at the fixed rate).
constexpr int64_t kMaxLagP90Ns = kWallNsPerTick;
constexpr int64_t kMaxTailNs = 10 * kWallNsPerWindow;

ViewerConfig Viewer() {
  ViewerConfig v;
  v.num_segments = kSegments;
  v.switch_every_ms = kSwitchMs;
  v.window_range_ms = kWindowMs;
  return v;
}

// Detector reading: integer mph (so averages are exact in double), 1%
// garbage readings (negative) that σQ drops.
double SpeedOf(uint64_t seed, int pass, int64_t tick, int seg, int det) {
  const uint64_t h = Mix(seed, static_cast<uint64_t>(pass),
                         static_cast<uint64_t>(tick),
                         static_cast<uint64_t>(seg * kDetectors + det));
  if (h % 100 == 0) return -1.0;
  return static_cast<double>(10 + (h >> 8) % 71);
}

TimeMs TsOf(int64_t tick, int det) { return tick * kTickMs + det; }

Tuple Reading(uint64_t seed, int pass, int64_t tick, int seg, int det) {
  return TupleBuilder()
      .I64(seg)
      .I64(det)
      .Ts(TsOf(tick, det))
      .D(SpeedOf(seed, pass, tick, seg, det))
      .Build();
}

Punctuation CloseWindow(int64_t w) {
  return Punctuation(PunctPattern::AllWildcard(4).With(
      kDetTimestamp,
      AttrPattern::Le(Value::Timestamp((w + 1) * kWindowMs - 1))));
}

// The interval a viewer pattern (output schema) or its relayed,
// input-schema form addresses: both lower-bound a window-end /
// timestamp range at interval·kSwitchMs + kWindowMs.
int64_t IntervalOf(const PunctPattern& p, int attr) {
  Result<int64_t> lo = p.attr(attr).operand().AsInt64();
  return lo.ok() ? (lo.value() - kWindowMs) / kSwitchMs : -1;
}

struct ViewerResult {
  int64_t window = 0;
  int segment = 0;
  double avg = 0;
  int64_t recv_ns = 0;
};

// The viewer sink's driver: the paper's viewer, plus recording of
// every result and every feedback emission for the oracle and RTTs.
struct ViewerSink {
  CollectorSink::FeedbackDriver viewer = MakeViewerDriver(Viewer());
  std::vector<ViewerResult> results;
  std::vector<std::pair<int64_t, int64_t>> emitted;  // (interval, ns)
  std::atomic<int64_t> newest_window{-1};

  std::vector<FeedbackPunctuation> OnTuple(const Tuple& t, TimeMs now) {
    trace::Span span("sink.driver", trace::Layer::kOps);
    ViewerResult r;
    r.window = t.value(0).timestamp_value() / kWindowMs - 1;
    r.segment = static_cast<int>(t.value(1).int64_value());
    r.avg = t.value(2).double_value();
    r.recv_ns = NowNs();
    results.push_back(r);
    if (r.window > newest_window.load(std::memory_order_relaxed)) {
      newest_window.store(r.window, std::memory_order_relaxed);
    }
    trace::Span fb_span("viewer.emit", trace::Layer::kFeedback);
    std::vector<FeedbackPunctuation> fbs = viewer(t, now);
    const int64_t at = NowNs();
    for (const FeedbackPunctuation& fb : fbs) {
      emitted.emplace_back(IntervalOf(fb.pattern(), 0), at);
    }
    return fbs;
  }
};

struct Oracle {
  uint64_t count = 0;
  double sum = 0;
};

struct PassResult {
  bool ok = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t tuples = 0;  // offered: sent plus avoided by feedback
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> rtt_ms;
  double blocked_frac = 0;
  double backlog_peak = 0;
  double socket_backlog_peak = 0;
  double queue_pages_peak = 0;
  uint64_t hidden = 0;
  uint64_t skipped = 0;
  uint64_t emitted = 0;
  uint64_t relayed_received = 0;
  uint64_t guard_drops_ingest = 0;
  uint64_t guard_drops_select = 0;
  uint64_t guard_drops_aggregate = 0;
  uint64_t leaked_updates = 0;
  std::vector<PunctPattern> issued;  // relayed patterns the producer got
  SchedulerStats sched;
  AcceptorStats acceptor;
};

void SleepUntilOrReadable(int fd, short events, int64_t until_ns) {
  const int64_t wait = until_ns - NowNs();
  if (wait <= 0) return;
  pollfd p{fd, events, 0};
  timespec ts{static_cast<time_t>(wait / 1'000'000'000),
              static_cast<long>(wait % 1'000'000'000)};
  ::ppoll(&p, 1, &ts, nullptr);
}

PassResult RunPass(const Options& opts, int pass, int64_t windows,
                   bool sample_queues, Report* report) {
  PassResult out;
  const int64_t setup0 = NowNs();
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ViewerSink viewer;
  auto plan = std::make_unique<QueryPlan>();
  IngestSourceOptions sopts;
  sopts.multi_producer = true;
  sopts.expected_eos_producers = 1;
  auto* source = plan->AddOp(std::make_unique<IngestSource>(
      "ingest", DetectorSchema(), &conduit, sopts));
  // σQ: plausible readings only.
  auto* quality = plan->AddOp(Select::FromPattern(
      "sigma-quality", PunctPattern::AllWildcard(4).With(
                           kDetSpeed, AttrPattern::Ge(Value::Double(0.0)))));
  WindowAggregateOptions agg;
  agg.ts_attr = kDetTimestamp;
  agg.group_attrs = {kDetSegment};
  agg.agg_attr = kDetSpeed;
  agg.kind = AggKind::kAvg;
  agg.window = WindowSpec{kWindowMs, kWindowMs};
  agg.feedback_policy = FeedbackPolicy::kExploitAndPropagate;  // F3
  auto* average =
      plan->AddOp(std::make_unique<WindowAggregate>("average", agg));
  auto* sink = plan->AddOp(std::make_unique<CollectorSink>(
      "viewer-sink", CollectorSinkOptions{.record_tuples = false},
      [&viewer](const Tuple& t, TimeMs now) { return viewer.OnTuple(t, now); }));
  NSTREAM_CHECK(plan->Connect(*source, *quality).ok());
  NSTREAM_CHECK(plan->Connect(*quality, *average).ok());
  NSTREAM_CHECK(plan->Connect(*average, *sink).ok());
  NSTREAM_CHECK(plan->Finalize().ok());

  PooledExecutorOptions eopts;
  eopts.pool_size = kWorkers;
  auto exec = std::make_unique<PooledExecutor>(eopts);
  if (!acceptor.Listen().ok()) {
    report->Check(false, "speedmap: listen failed");
    return out;
  }
  Result<QueryId> id = [&] {
    trace::Span span("exec.submit", trace::Layer::kExec);
    return exec->Submit(plan.get());
  }();
  if (!id.ok()) {
    report->Check(false, "speedmap: submit failed: " + id.status().ToString());
    return out;
  }
  std::vector<ProducerConn> conns(1);
  if (!conns[0].Connect(acceptor.port()) ||
      !HelloHandshake(&conns, 4, /*timeout_ns=*/10'000'000'000)) {
    report->Check(false, "speedmap: connect/hello handshake failed");
    acceptor.Stop();
    return out;
  }
  ProducerConn& conn = conns[0];
  out.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;

  // ---- Open loop: tick k is due at t0 + k·kWallNsPerTick.
  const ViewerConfig vcfg = Viewer();
  const int64_t total_ticks = windows * kTicksPerWindow;
  std::vector<Oracle> oracle(static_cast<size_t>(windows * kSegments));
  std::vector<int64_t> punct_due(static_cast<size_t>(windows), 0);
  std::vector<uint64_t> sent_by_window(static_cast<size_t>(windows), 0);
  std::vector<std::pair<int64_t, int64_t>> received;  // (interval, ns)
  std::vector<CompiledPattern> active;
  uint64_t visible_valid = 0;
  uint64_t sent_total = 0;
  int64_t blocked_ns = 0;
  bool alive = true;
  std::vector<Tuple> batch;
  batch.reserve(kDetectors);

  auto read_feedback = [&] {
    trace::Span span("ingest.feedback_read", trace::Layer::kFeedback);
    return conn.ReadFrames([&](const FrameView& f) {
      if (f.type != FrameType::kFeedback) return;
      FeedbackPunctuation fb;
      if (!DecodeFeedback(f.payload, &fb).ok()) return;
      received.emplace_back(IntervalOf(fb.pattern(), kDetTimestamp), NowNs());
      out.issued.push_back(fb.pattern());
      if (fb.is_assumed()) active.emplace_back(fb.pattern());
    });
  };

  const int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  int64_t next_sample = t0;
  for (int64_t tick = 0; tick < total_ticks && alive;) {
    const int64_t due = t0 + tick * kWallNsPerTick;
    const int64_t now = NowNs();
    if (now >= due) {
      trace::Span span("gen.tick", trace::Layer::kGen);
      out.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
      // Patterns whose timestamp range ended before this tick are dead.
      const TimeMs tick_ts = tick * kTickMs;
      std::erase_if(active, [&](const CompiledPattern& c) {
        Result<int64_t> hi = c.pattern().attr(kDetTimestamp).hi().AsInt64();
        return hi.ok() && hi.value() < tick_ts;
      });
      const int64_t w = tick / kTicksPerWindow;
      for (int seg = 0; seg < kSegments; ++seg) {
        batch.clear();
        for (int det = 0; det < kDetectors; ++det) {
          Tuple t = Reading(opts.seed, pass, tick, seg, det);
          const double speed = t.value(kDetSpeed).double_value();
          const bool hidden = VisibleSegmentAt(vcfg, TsOf(tick, det)) != seg;
          if (speed >= 0) {
            Oracle& o = oracle[static_cast<size_t>(w * kSegments + seg)];
            ++o.count;
            o.sum += speed;
            if (!hidden) ++visible_valid;
          }
          out.hidden += hidden ? 1 : 0;
          bool skip = false;
          for (const CompiledPattern& c : active) {
            if (c.Matches(t)) {
              skip = true;
              break;
            }
          }
          if (skip) {
            ++out.skipped;
            continue;
          }
          batch.push_back(std::move(t));
        }
        if (!batch.empty()) {
          AppendTupleBatchFrame(conn.out(), batch);
          sent_total += batch.size();
          sent_by_window[static_cast<size_t>(w)] += batch.size();
        }
      }
      out.tuples += static_cast<uint64_t>(kSegments) * kDetectors;
      if (tick % kTicksPerWindow == kTicksPerWindow - 1) {
        AppendPunctuationFrame(conn.out(), CloseWindow(w));
        punct_due[static_cast<size_t>(w)] = due;
      }
      ++tick;
      bool blocked = false;
      alive = conn.Flush(&blocked);
      continue;
    }
    if (now >= next_sample) {
      next_sample = now + 1'000'000;
      const double sock = static_cast<double>(conn.bytes_sent()) -
                          static_cast<double>(
                              acceptor.StatsReport().bytes_received);
      out.socket_backlog_peak = std::max(out.socket_backlog_peak, sock);
      const int64_t done_w = viewer.newest_window.load(std::memory_order_relaxed);
      double backlog = 0;
      for (int64_t x = std::max<int64_t>(done_w + 1, 0);
           x < windows && x <= tick / kTicksPerWindow; ++x) {
        backlog += static_cast<double>(sent_by_window[static_cast<size_t>(x)]);
      }
      out.backlog_peak = std::max(out.backlog_peak, backlog);
      if (sample_queues) {
        trace::Span span("stream.stall_report", trace::Layer::kStream);
        out.queue_pages_peak = std::max(
            out.queue_pages_peak, QueuedPages(exec->scheduler()->StallReport()));
      }
    }
    bool blocked = false;
    alive = conn.Flush(&blocked) && read_feedback();
    const int64_t w0 = NowNs();
    SleepUntilOrReadable(conn.fd(), blocked ? POLLIN | POLLOUT : POLLIN,
                         std::min(due, next_sample));
    if (blocked) blocked_ns += NowNs() - w0;
  }
  const int64_t send_end = NowNs();
  AppendEosFrame(conn.out());
  const int64_t deadline = send_end + 30'000'000'000;
  while (alive && conn.has_pending() && NowNs() < deadline) {
    bool blocked = false;
    alive = conn.Flush(&blocked) && read_feedback();
    if (blocked) SleepUntilOrReadable(conn.fd(), POLLIN | POLLOUT, NowNs() + 1'000'000);
  }
  conn.ShutdownWrite();
  Status st;
  {
    trace::Span span("exec.wait", trace::Layer::kExec);
    st = exec->Wait(id.value(), /*timeout_ms=*/30'000);
  }
  const double cpu1 = ProcessCpuSeconds();
  read_feedback();  // relays that raced the end of the stream
  out.sched = exec->scheduler()->stats();
  out.acceptor = acceptor.StatsReport();
  acceptor.Stop();
  exec.reset();

  report->Check(alive && st.ok(),
                "speedmap: pass did not complete: " + st.ToString());
  report->Check(source->quarantined_producers() == 0 &&
                    out.acceptor.quarantined == 0,
                "speedmap: the producer was quarantined");
  // Definition 1: every visible-segment window average present and
  // exact; any hidden-segment result that appears exact too.
  std::vector<int> seen(oracle.size(), 0);
  int64_t last_recv = 0;
  for (const ViewerResult& r : viewer.results) {
    const bool in_range = r.window >= 0 && r.window < windows &&
                          r.segment >= 0 && r.segment < kSegments;
    if (!in_range) {
      report->Check(false, "speedmap: result outside the pass");
      continue;
    }
    const size_t i = static_cast<size_t>(r.window * kSegments + r.segment);
    const Oracle& o = oracle[i];
    ++seen[i];
    const bool visible =
        VisibleSegmentAt(vcfg, r.window * kWindowMs) == r.segment;
    if (!visible) {
      report->Check(o.count > 0 && r.avg == o.sum / static_cast<double>(o.count),
                    "speedmap: hidden result for window " +
                        std::to_string(r.window) + " segment " +
                        std::to_string(r.segment) + " is not exact");
    }
    out.latency_ms.push_back(
        static_cast<double>(r.recv_ns - punct_due[static_cast<size_t>(r.window)]) /
        1e6);
    last_recv = std::max(last_recv, r.recv_ns);
  }
  for (int64_t w = 0; w < windows; ++w) {
    const int seg = VisibleSegmentAt(vcfg, w * kWindowMs);
    const size_t i = static_cast<size_t>(w * kSegments + seg);
    bool exact = false;
    for (const ViewerResult& r : viewer.results) {
      if (r.window == w && r.segment == seg) {
        exact = r.avg == oracle[i].sum / static_cast<double>(oracle[i].count);
      }
    }
    report->Check(seen[i] == 1 && exact,
                  "speedmap: visible window " + std::to_string(w) +
                      " missing, duplicated or not exact");
  }
  // A pass that fell behind its schedule is a failure, not a slow pass.
  const double lag_p90 = Quantile(out.lag_ms, 0.9);
  const int64_t tail = last_recv - punct_due.back();
  report->Check(lag_p90 * 1e6 <= static_cast<double>(kMaxLagP90Ns),
                "speedmap: generator fell behind schedule (lag p90 " +
                    std::to_string(lag_p90) + " ms)");
  report->Check(tail <= kMaxTailNs,
                "speedmap: backlog grew at the fixed rate (last result " +
                    std::to_string(static_cast<double>(tail) / 1e6) +
                    " ms after its window closed)");
  if (!st.ok() || !alive) return out;

  // Feedback round trips: the k-th relay received for an interval pairs
  // with the k-th viewer emission for it.
  std::map<int64_t, std::vector<int64_t>> emits;
  for (const auto& [k, at] : viewer.emitted) emits[k].push_back(at);
  std::map<int64_t, size_t> used;
  for (const auto& [k, at] : received) {
    auto it = emits.find(k);
    size_t& n = used[k];
    if (it != emits.end() && n < it->second.size()) {
      out.rtt_ms.push_back(static_cast<double>(at - it->second[n++]) / 1e6);
    }
  }
  out.emitted = viewer.emitted.size();
  out.relayed_received = received.size();
  out.guard_drops_ingest = source->stats().input_guard_drops;
  out.guard_drops_select = quality->stats().input_guard_drops;
  out.guard_drops_aggregate =
      average->stats().input_guard_drops + average->updates_skipped();
  out.leaked_updates = average->updates_applied() > visible_valid
                           ? average->updates_applied() - visible_valid
                           : 0;
  out.ok = true;
  out.wall_s = static_cast<double>(last_recv - t0) / 1e9;
  out.cpu_s = cpu1 - cpu0;
  out.blocked_frac = static_cast<double>(blocked_ns) /
                     static_cast<double>(send_end - t0);
  return out;
}

// ---- Isolated replays on this workload's own tuples.

std::vector<Page> ReadingPages(uint64_t seed, int64_t windows) {
  std::vector<Page> pages;
  for (int64_t tick = 0; tick < windows * kTicksPerWindow; ++tick) {
    for (int seg = 0; seg < kSegments; ++seg) {
      pages.emplace_back();
      for (int det = 0; det < kDetectors; ++det) {
        pages.back().AddTuple(Reading(seed, -1, tick, seg, det));
      }
    }
    if (tick % kTicksPerWindow == kTicksPerWindow - 1) {
      pages.back().Add(StreamElement::OfPunct(CloseWindow(tick / kTicksPerWindow)));
    }
  }
  return pages;
}

struct ReplayCosts {
  double select_ns = 0;
  double aggregate_ns = 0;
  double decode_ns = 0;
  double match_ns = 0;
};

ReplayCosts Replays(uint64_t seed, const std::vector<PunctPattern>& issued,
                    double seconds) {
  ReplayCosts out;
  const int64_t windows = 16;
  double sel_ns = 0, sel_n = 0, agg_ns = 0, agg_n = 0, dec_ns = 0, dec_n = 0,
         match_ns = 0, match_n = 0;
  std::vector<std::string> frames;
  for (Page& p : ReadingPages(seed, 2)) {
    std::vector<Tuple> tuples;
    for (const StreamElement& e : p.elements()) {
      if (e.is_tuple()) tuples.push_back(e.tuple());
    }
    frames.emplace_back();
    AppendTupleBatchFrame(&frames.back(), tuples);
  }
  std::vector<CompiledPattern> compiled(issued.begin(), issued.end());
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    {
      std::vector<Page> pages = ReadingPages(seed, windows);
      Select sel("replay.select",
                 [](const Tuple& t) {
                   return t.value(kDetSpeed).double_value() >= 0;
                 });
      RecordingContext ctx(1);
      NSTREAM_CHECK(sel.SetInputSchema(0, DetectorSchema()).ok());
      NSTREAM_CHECK(sel.InferSchemas().ok());
      NSTREAM_CHECK(sel.Open(&ctx).ok());
      for (Page& p : pages) sel_n += static_cast<double>(p.size());
      trace::Span span("replay.select", trace::Layer::kOps);
      const int64_t t0 = NowNs();
      for (Page& p : pages) {
        NSTREAM_CHECK(sel.ProcessPage(0, std::move(p), nullptr).ok());
      }
      sel_ns += static_cast<double>(NowNs() - t0);
    }
    {
      std::vector<Page> pages = ReadingPages(seed, windows);
      WindowAggregateOptions agg;
      agg.ts_attr = kDetTimestamp;
      agg.group_attrs = {kDetSegment};
      agg.agg_attr = kDetSpeed;
      agg.kind = AggKind::kAvg;
      agg.window = WindowSpec{kWindowMs, kWindowMs};
      WindowAggregate avg("replay.average", agg);
      RecordingContext ctx(1);
      NSTREAM_CHECK(avg.SetInputSchema(0, DetectorSchema()).ok());
      NSTREAM_CHECK(avg.InferSchemas().ok());
      NSTREAM_CHECK(avg.Open(&ctx).ok());
      trace::Span span("replay.aggregate", trace::Layer::kOps);
      const int64_t t0 = NowNs();
      for (Page& p : pages) {
        NSTREAM_CHECK(avg.ProcessPage(0, std::move(p), nullptr).ok());
      }
      agg_ns += static_cast<double>(NowNs() - t0);
      agg_n += static_cast<double>(avg.updates_applied());
    }
    {
      trace::Span span("replay.decode", trace::Layer::kIngest);
      const int64_t t0 = NowNs();
      for (const std::string& f : frames) {
        FrameView v;
        size_t consumed = 0;
        NSTREAM_CHECK(ScanFrame(f, &v, &consumed).ok());
        Page page;
        int64_t next_id = 1;
        NSTREAM_CHECK(
            DecodeTupleBatchInto(v.payload, 4, &page, true, &next_id).ok());
        dec_n += static_cast<double>(page.size());
      }
      dec_ns += static_cast<double>(NowNs() - t0);
    }
    if (!compiled.empty()) {
      std::vector<Page> pages = ReadingPages(seed, 1);
      trace::Span span("replay.match", trace::Layer::kFeedback);
      uint64_t hits = 0;
      const int64_t t0 = NowNs();
      for (const Page& p : pages) {
        for (const StreamElement& e : p.elements()) {
          if (!e.is_tuple()) continue;
          for (const CompiledPattern& c : compiled) hits += c.Matches(e.tuple());
        }
      }
      match_ns += static_cast<double>(NowNs() - t0);
      match_n += static_cast<double>(pages.size() * kDetectors * compiled.size());
      if (hits == ~0ull) std::fprintf(stderr, "unreachable\n");
    }
  } while (NowNs() < deadline);
  out.select_ns = sel_n > 0 ? sel_ns / sel_n : 0;
  out.aggregate_ns = agg_n > 0 ? agg_ns / agg_n : 0;
  out.decode_ns = dec_n > 0 ? dec_ns / dec_n : 0;
  out.match_ns = match_n > 0 ? match_ns / match_n : 0;
  return out;
}

}  // namespace

Report RunSpeedmapFeedback(const Options& opts) {
  Report report;
  auto run = [&opts](bool sample_queues) {
    return [&opts, sample_queues](int pass, Report* r) {
      return RunPass(opts, pass, kWindowsPerPass, sample_queues, r);
    };
  };
  int pass_index = 0;
  {
    Report warmup;  // first-touch page faults and lazy init, not scored
    run(false)(pass_index++, &warmup);
  }
  if (!opts.trace) {
    // One scored pass per child: a pass is long, and open loop. The
    // generator's lateness goes to stderr with every run, so a latency
    // figure can be checked against the schedule it was measured on.
    std::vector<double> setup, rates, cpu, lag_p99, lat, rss;
    RunPassesFor(opts.seconds, 2, [&](int) {
      const int pass = pass_index;
      pass_index += 2;
      ChildResult c = RunInChild(
          [&](Report* r) -> std::vector<double> {
            Report warm;
            RunPass(opts, pass, kWarmupWindows, false, &warm);
            PassResult p = RunPass(opts, pass + 1, kWindowsPerPass, false, r);
            if (!p.ok) return {};
            const double n = static_cast<double>(p.tuples);
            std::vector<double> v = {p.setup_s, n / p.wall_s,
                                     p.cpu_s * 1e9 / n,
                                     Quantile(p.lag_ms, 0.99)};
            v.insert(v.end(), p.latency_ms.begin(), p.latency_ms.end());
            return v;
          },
          &report);
      if (c.values.size() < 4) return;
      setup.push_back(c.values[0]);
      rates.push_back(c.values[1]);
      cpu.push_back(c.values[2]);
      lag_p99.push_back(c.values[3]);
      lat.insert(lat.end(), c.values.begin() + 4, c.values.end());
      rss.push_back(c.maxrss_mb);
    });
    std::fprintf(stderr,
                 "speedmap_feedback: %zu passes, %zu latency samples, ms p1 "
                 "%.3f p10 %.3f p50 %.3f p90 %.3f p99 %.3f; generator "
                 "lateness p99 per pass, ms: median %.3f max %.3f\n",
                 rates.size(), lat.size(), Quantile(lat, 0.01),
                 Quantile(lat, 0.1), Quantile(lat, 0.5), Quantile(lat, 0.9),
                 Quantile(lat, 0.99), Median(lag_p99), Quantile(lag_p99, 1.0));
    EndToEnd e;
    e.setup_s = Median(setup);
    e.tuples_per_sec = Median(rates);
    e.cpu_ns_per_tuple = Median(cpu);
    e.rss_peak_mb = Median(rss);
    // Open loop: every pass sees the same offered load, so samples pool
    // across passes (a run has well over 1000 of them).
    e.latency_p50_ms = Quantile(lat, 0.5);
    e.latency_p99_ms = Quantile(lat, 0.99);
    AddEndToEnd(e, &report);
    return report;
  }

  LayerValues v;
  const auto plain =
      RunPhase(opts.seconds * 0.4, 2, &pass_index, run(false), &report);
  // Open loop at a sustainable rate: the queues stay short however long
  // a pass is, so the peak over the untraced passes is the figure.
  v["stream.long_pass_rss_mb"] = PeakRssMb();
  trace::ResetTotals();
  trace::SetEnabled(true);
  const auto traced =
      RunPhase(opts.seconds * 0.4, 2, &pass_index, run(true), &report);
  std::vector<PunctPattern> issued;
  for (const PassResult& p : plain) {
    issued.insert(issued.end(), p.issued.begin(), p.issued.end());
    if (issued.size() >= 16) break;
  }
  ReplayCosts costs = Replays(opts.seed, issued, opts.seconds * 0.1);
  trace::SetEnabled(false);
  AddSelfTimes(trace::Collect(), &v);
  v["trace.overhead_frac"] =
      MedianCpuNsPerTuple(traced) / MedianCpuNsPerTuple(plain) - 1;
  v["stream.queue_depth_peak_pages"] = QueuePagesPeak(traced);
  v["ops.select_ns_per_tuple"] = costs.select_ns;
  v["ops.aggregate_ns_per_update"] = costs.aggregate_ns;
  v["ingest.decode_ns_per_tuple"] = costs.decode_ns;
  v["feedback.match_ns"] = costs.match_ns;

  // Counters come from the untraced passes.
  AddExecCounters(plain, kWorkers, &v);
  double wall = 0, frames = 0, pauses = 0, backlog = 0, sock = 0,
         blocked = 0, hidden = 0, skipped = 0, emitted = 0, received = 0,
         g_in = 0, g_sel = 0, g_agg = 0, leaked = 0;
  std::vector<double> lag, rtt;
  for (const PassResult& p : plain) {
    if (!p.ok) continue;
    wall += p.wall_s;
    frames += static_cast<double>(p.acceptor.frames_forwarded);
    pauses += static_cast<double>(p.acceptor.backpressure_pauses);
    backlog = std::max(backlog, p.backlog_peak);
    sock = std::max(sock, p.socket_backlog_peak);
    blocked += p.blocked_frac * p.wall_s;
    hidden += static_cast<double>(p.hidden);
    skipped += static_cast<double>(p.skipped);
    emitted += static_cast<double>(p.emitted);
    received += static_cast<double>(p.relayed_received);
    g_in += static_cast<double>(p.guard_drops_ingest);
    g_sel += static_cast<double>(p.guard_drops_select);
    g_agg += static_cast<double>(p.guard_drops_aggregate);
    leaked += static_cast<double>(p.leaked_updates);
    lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
    rtt.insert(rtt.end(), p.rtt_ms.begin(), p.rtt_ms.end());
  }
  if (wall > 0) {
    v["gen.lag_ms_p99"] = Quantile(lag, 0.99);
    v["gen.blocked_frac"] = blocked / wall;
    v["ingest.acceptor_frames_per_sec"] = frames / wall;
    v["ingest.backpressure_pauses"] = pauses;
    v["ingest.socket_backlog_kb_peak"] = sock / 1024;
    v["ingest.feedback_delivery_frac"] = emitted > 0 ? received / emitted : 0;
    v["stream.backlog_peak_tuples"] = backlog;
    v["feedback.emitted"] = emitted;
    v["feedback.producer_skipped"] = skipped;
    v["feedback.guard_drops_ingest"] = g_in;
    v["feedback.guard_drops_select"] = g_sel;
    v["feedback.guard_drops_aggregate"] = g_agg;
    v["feedback.leaked_updates"] = leaked;
    v["feedback.rtt_p50_ms"] = Quantile(rtt, 0.5);
    v["feedback.avoided_frac"] = hidden > 0 ? skipped / hidden : 0;
  }
  AddLayerMetrics(v, &report);
  return report;
}

}  // namespace servebench
