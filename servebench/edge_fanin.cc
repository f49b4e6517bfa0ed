// edge_fanin: the serving edge at full speed. One generator thread
// (the main thread) drives 4 producer connections over loopback TCP →
// TcpAcceptor → multi-producer IngestSource → a cheap Select → sink, on
// a 2-worker pool. Closed loop: the generator writes a frame whenever a
// socket can take bytes, so TCP backpressure is the only pacing. The
// ingest layer does most of the work and ops almost none, so join and
// feedback changes must read no change here.
//
// The generator cycles a small ring of frames pre-encoded from the
// seed and stamps each frame's first tuple with its send time as it
// writes it, so it stays far cheaper than the engine it feeds and
// holds no more than the ring in memory.
//
// A pass is one fresh plan, pool, acceptor and set of connections that
// carries kFramesPerPass frames per producer; a run is as many passes
// as fit in --seconds, and each end-to-end figure is the median over
// its passes. The traced run adds one long pass, kLongPassFactor times
// longer, whose backlog and peak RSS show what the unbounded
// inter-operator queues hold when a pass does not end soon.

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "ingest/frame_conduit.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ingest/wire_format.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "producer.h"
#include "punct/pattern_parser.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

using namespace nstream;

constexpr int kProducers = 4;
constexpr int kBatch = 64;          // tuples per wire frame
constexpr int kRingFrames = 64;     // pre-encoded frames per producer
constexpr int kFramesPerPass = 256;  // per producer, then one final tuple
constexpr int kLongPassFactor = 16;
constexpr int64_t kSelectMin = 100;  // Select keeps val >= 100 (90%)
constexpr int64_t kFinalSeq = -1;    // the last tuple of a producer's pass
constexpr int kWorkers = 2;
constexpr int64_t kStampSentinel = 0x5ea1ed5ea1ed5ea1;

// (producer, seq, sent_ns, val): sent_ns is stamped into the first
// tuple of every frame as the generator writes the frame.
SchemaPtr EdgeSchema() {
  static SchemaPtr s = Schema::Make({{"producer", ValueType::kInt64},
                                     {"seq", ValueType::kInt64},
                                     {"sent_ns", ValueType::kInt64},
                                     {"val", ValueType::kInt64}});
  return s;
}

uint64_t Fold(int64_t seq, int64_t val) {
  return static_cast<uint64_t>(seq) * 0x9e3779b97f4a7c15ULL +
         static_cast<uint64_t>(val);
}

// One pre-encoded frame and what the sink must see of it.
struct RingFrame {
  std::string bytes;
  size_t stamp_off = 0;  // where the first tuple's sent_ns lives
  uint64_t passing = 0;  // tuples the Select keeps
  uint64_t sum = 0;      // Fold over the kept tuples
};

RingFrame EncodeFrame(const std::vector<Tuple>& tuples) {
  RingFrame f;
  AppendTupleBatchFrame(&f.bytes, tuples);
  for (const Tuple& t : tuples) {
    const int64_t val = t.value(3).int64_value();
    if (val >= kSelectMin) {
      ++f.passing;
      f.sum += Fold(t.value(1).int64_value(), val);
    }
  }
  // The wire format writes an int64 as 8 little-endian bytes; find the
  // sentinel the first tuple carries, and check the round trip once.
  char pattern[8];
  std::memcpy(pattern, &kStampSentinel, 8);
  f.stamp_off = f.bytes.find(std::string_view(pattern, 8));
  NSTREAM_CHECK(f.stamp_off != std::string::npos);
  FrameView v;
  size_t consumed = 0;
  std::vector<Tuple> back;
  NSTREAM_CHECK(ScanFrame(f.bytes, &v, &consumed).ok());
  NSTREAM_CHECK(DecodeTupleBatchOwned(v.payload, 4, &back).ok());
  NSTREAM_CHECK(back.size() == tuples.size() &&
                back[0].value(2).int64_value() == kStampSentinel);
  return f;
}

void Stamp(std::string* out, size_t frame_start, const RingFrame& f,
           int64_t now) {
  std::memcpy(out->data() + frame_start + f.stamp_off, &now, 8);
}

// Seeded frames for one producer: seq = frame·kBatch + i, val uniform
// in [0, 1000).
std::vector<RingFrame> BuildRing(uint64_t seed, int producer) {
  std::vector<RingFrame> ring;
  std::vector<Tuple> batch;
  for (int f = 0; f < kRingFrames; ++f) {
    batch.clear();
    for (int i = 0; i < kBatch; ++i) {
      const int64_t seq = int64_t{f} * kBatch + i;
      const int64_t val = static_cast<int64_t>(
          Mix(seed, static_cast<uint64_t>(producer),
              static_cast<uint64_t>(seq)) %
          1000);
      batch.push_back(TupleBuilder()
                          .I64(producer + 1)
                          .I64(seq)
                          .I64(i == 0 ? kStampSentinel : 0)
                          .I64(val)
                          .Build());
    }
    ring.push_back(EncodeFrame(batch));
  }
  return ring;
}

// A one-tuple frame that always passes the Select: when the sink has
// seen it from every producer, the pass's input is fully accounted for.
RingFrame FinalFrame(int producer) {
  return EncodeFrame({TupleBuilder()
                          .I64(producer + 1)
                          .I64(kFinalSeq)
                          .I64(kStampSentinel)
                          .I64(999)
                          .Build()});
}

struct Rings {
  std::vector<RingFrame> frames[kProducers];
  RingFrame final_frame[kProducers];
};

// Sink-side accounting: runs inside the sink's FeedbackDriver, on
// whichever worker runs the sink task (one at a time).
struct EdgeSink {
  uint64_t count[kProducers] = {};
  uint64_t sum[kProducers] = {};
  int done = 0;
  uint64_t consumed = 0;
  std::vector<double> latency_ms;
  int64_t done_ns = 0;
  double done_cpu = 0;
  std::atomic<uint64_t> published{0};
  std::atomic<bool> finished{false};

  void OnTuple(const Tuple& t) {
    trace::Span span("sink.driver", trace::Layer::kOps);
    const int p = static_cast<int>(t.value(0).int64_value()) - 1;
    const int64_t seq = t.value(1).int64_value();
    const int64_t val = t.value(3).int64_value();
    if (p < 0 || p >= kProducers) return;  // counted as a mismatch later
    ++count[p];
    sum[p] += Fold(seq, val);
    if (seq % kBatch == 0) {  // a frame's first tuple carries its stamp
      latency_ms.push_back(
          static_cast<double>(NowNs() - t.value(2).int64_value()) / 1e6);
    }
    if (seq == kFinalSeq && ++done == kProducers) {
      done_ns = NowNs();
      done_cpu = ProcessCpuSeconds();
      finished.store(true, std::memory_order_release);
    }
    published.store(++consumed, std::memory_order_relaxed);
  }
};

struct PassResult {
  bool ok = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t tuples = 0;
  std::vector<double> latency_ms;
  double blocked_frac = 0;
  double backlog_peak = 0;
  double queue_pages_peak = 0;
  SchedulerStats sched;
  AcceptorStats acceptor;
};

struct ProducerGen {
  int next_frame = 0;
  bool final_queued = false;
  bool eos_queued = false;
  bool shut = false;
  uint64_t expect_count = 0;
  uint64_t expect_sum = 0;
};

PassResult RunPass(const Rings& rings, int pass, int frames_per_producer,
                   bool sample_queues, Report* report) {
  PassResult out;
  const int64_t setup0 = NowNs();

  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  EdgeSink sink_state;
  auto plan = std::make_unique<QueryPlan>();
  IngestSourceOptions sopts;
  sopts.multi_producer = true;
  sopts.expected_eos_producers = kProducers;
  auto* source = plan->AddOp(std::make_unique<IngestSource>(
      "ingest", EdgeSchema(), &conduit, sopts));
  auto* select = plan->AddOp(Select::FromPattern(
      "select", ParsePattern("[*,*,*,>=" + std::to_string(kSelectMin) + "]")
                    .value()));
  auto* sink = plan->AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false},
      [&sink_state](const Tuple& t, TimeMs) {
        sink_state.OnTuple(t);
        return std::vector<FeedbackPunctuation>();
      }));
  NSTREAM_CHECK(plan->Connect(*source, *select).ok());
  NSTREAM_CHECK(plan->Connect(*select, *sink).ok());
  NSTREAM_CHECK(plan->Finalize().ok());

  PooledExecutorOptions eopts;
  eopts.pool_size = kWorkers;
  auto exec = std::make_unique<PooledExecutor>(eopts);
  if (!acceptor.Listen().ok()) {
    report->Check(false, "edge: listen failed");
    return out;
  }
  Result<QueryId> id = [&] {
    trace::Span span("exec.submit", trace::Layer::kExec);
    return exec->Submit(plan.get());
  }();
  if (!id.ok()) {
    report->Check(false, "edge: submit failed: " + id.status().ToString());
    return out;
  }
  std::vector<ProducerConn> conns(kProducers);
  bool connected = true;
  for (ProducerConn& c : conns) connected = connected && c.Connect(acceptor.port());
  if (!connected ||
      !HelloHandshake(&conns, 4, /*timeout_ns=*/10'000'000'000)) {
    report->Check(false, "edge: connect/hello handshake failed");
    acceptor.Stop();
    return out;
  }
  out.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;

  // ---- Timed phase: first data byte → sink accounted the last tuple.
  const int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  ProducerGen gen[kProducers];
  uint64_t generated_passing = 0;
  int64_t blocked_ns = 0;
  int64_t next_sample = t0;
  bool alive = true;
  auto all_shut = [&] {
    for (const ProducerGen& g : gen) {
      if (!g.shut) return false;
    }
    return true;
  };
  std::vector<pollfd> fds;
  std::vector<int> fd_producer;
  while (alive && !all_shut()) {
    fds.clear();
    fd_producer.clear();
    for (int p = 0; p < kProducers; ++p) {
      ProducerConn& c = conns[static_cast<size_t>(p)];
      ProducerGen& g = gen[p];
      if (g.shut) continue;
      if (!c.has_pending()) {
        trace::Span span("gen.frame", trace::Layer::kGen);
        std::string* out_buf = c.out();
        const int64_t now = NowNs();
        // Up to 4 frames per write keeps the syscall count per tuple low.
        for (int n = 0; n < 4; ++n) {
          const RingFrame* f = nullptr;
          if (g.next_frame < frames_per_producer) {
            f = &rings.frames[p][static_cast<size_t>(
                (g.next_frame + pass * 7) % kRingFrames)];
            ++g.next_frame;
          } else if (!g.final_queued) {
            f = &rings.final_frame[p];
            g.final_queued = true;
          }
          if (f == nullptr) break;
          const size_t start = out_buf->size();
          out_buf->append(f->bytes);
          Stamp(out_buf, start, *f, now);
          g.expect_count += f->passing;
          g.expect_sum += f->sum;
          generated_passing += f->passing;
        }
        if (out_buf->empty()) {
          if (!g.eos_queued) {
            AppendEosFrame(out_buf);
            g.eos_queued = true;
          } else {
            c.ShutdownWrite();
            g.shut = true;
            continue;
          }
        }
      }
      fds.push_back({c.fd(), POLLOUT | POLLIN, 0});
      fd_producer.push_back(p);
    }
    if (fds.empty()) break;
    // Wait until some connection can take bytes: the only pacing there
    // is. Time spent here is time the edge, not the generator, limited.
    const int64_t w0 = NowNs();
    ::poll(fds.data(), fds.size(), 1);
    const int64_t w1 = NowNs();
    blocked_ns += w1 - w0;
    for (size_t i = 0; i < fds.size() && alive; ++i) {
      ProducerConn& c = conns[static_cast<size_t>(fd_producer[i])];
      if (fds[i].revents & POLLOUT) {
        bool blocked = false;
        alive = c.Flush(&blocked);
      }
      // The engine → producer direction carries only hello-acks and,
      // under pressure, shed advice: drain so it never backs up.
      if (alive && (fds[i].revents & POLLIN)) {
        c.ReadFrames([](const FrameView&) {});
      }
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
    }
    if (w1 >= next_sample) {
      next_sample = w1 + 1'000'000;
      const double backlog =
          static_cast<double>(generated_passing) -
          static_cast<double>(
              sink_state.published.load(std::memory_order_relaxed));
      out.backlog_peak = std::max(out.backlog_peak, backlog);
      if (sample_queues) {
        trace::Span span("stream.stall_report", trace::Layer::kStream);
        out.queue_pages_peak = std::max(
            out.queue_pages_peak, QueuedPages(exec->scheduler()->StallReport()));
      }
    }
  }
  const int64_t send_end = NowNs();
  const int64_t deadline = send_end + 60'000'000'000;
  while (alive && !sink_state.finished.load(std::memory_order_acquire) &&
         NowNs() < deadline) {
    pollfd none{};
    ::poll(&none, 0, 1);
  }
  Status st;
  {
    trace::Span span("exec.wait", trace::Layer::kExec);
    st = exec->Wait(id.value(), /*timeout_ms=*/30'000);
  }
  out.sched = exec->scheduler()->stats();
  out.acceptor = acceptor.StatsReport();
  acceptor.Stop();
  exec.reset();

  const bool finished = sink_state.finished.load(std::memory_order_acquire);
  report->Check(alive && st.ok() && finished,
                "edge: pass did not complete: " + st.ToString());
  for (int p = 0; p < kProducers; ++p) {
    report->Check(sink_state.count[p] == gen[p].expect_count &&
                      sink_state.sum[p] == gen[p].expect_sum,
                  "edge: producer " + std::to_string(p + 1) +
                      " count/checksum mismatch");
  }
  report->Check(source->quarantined_producers() == 0 &&
                    out.acceptor.quarantined == 0,
                "edge: a producer was quarantined");
  if (!finished) return out;

  out.ok = true;
  out.tuples = static_cast<uint64_t>(kProducers) *
               (static_cast<uint64_t>(frames_per_producer) * kBatch + 1);
  out.wall_s = static_cast<double>(sink_state.done_ns - t0) / 1e9;
  out.cpu_s = sink_state.done_cpu - cpu0;
  out.latency_ms = std::move(sink_state.latency_ms);
  out.blocked_frac = static_cast<double>(blocked_ns) /
                     static_cast<double>(send_end - t0);
  return out;
}

// Replay of DecodeTupleBatchInto on this workload's own frames.
double DecodeNsPerTuple(const Rings& rings, double seconds) {
  trace::Span span("replay.decode", trace::Layer::kIngest);
  std::vector<std::string_view> payloads;
  for (const RingFrame& f : rings.frames[0]) {
    FrameView v;
    size_t consumed = 0;
    NSTREAM_CHECK(ScanFrame(f.bytes, &v, &consumed).ok());
    payloads.push_back(v.payload);
  }
  uint64_t tuples = 0;
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    for (std::string_view payload : payloads) {
      Page page;
      int64_t next_id = 1;
      NSTREAM_CHECK(
          DecodeTupleBatchInto(payload, 4, &page, true, &next_id).ok());
      tuples += page.size();
    }
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(tuples);
}

}  // namespace

Report RunEdgeFanin(const Options& opts) {
  Report report;
  Rings rings;
  for (int p = 0; p < kProducers; ++p) {
    rings.frames[p] = BuildRing(opts.seed, p);
    rings.final_frame[p] = FinalFrame(p);
  }
  auto run = [&rings](bool sample_queues) {
    return [&rings, sample_queues](int pass, Report* r) {
      return RunPass(rings, pass, kFramesPerPass, sample_queues, r);
    };
  };
  int pass_index = 0;
  {
    Report warmup;  // first-touch page faults and lazy init, not scored
    run(false)(pass_index++, &warmup);
  }
  if (!opts.trace) {
    AddEndToEnd(MeasureClosedLoop("edge_fanin", opts.seconds, &pass_index,
                                  run(false), &report),
                &report);
    return report;
  }

  LayerValues v;
  // The long pass runs first, so the process's peak RSS after it is
  // what the unbounded queues held during it.
  PassResult long_pass = RunPass(rings, pass_index++,
                                 kFramesPerPass * kLongPassFactor, false,
                                 &report);
  v["stream.backlog_peak_tuples"] = long_pass.backlog_peak;
  v["stream.long_pass_rss_mb"] = PeakRssMb();
  const auto plain =
      RunPhase(opts.seconds * 0.35, 3, &pass_index, run(false), &report);
  trace::ResetTotals();
  trace::SetEnabled(true);
  const auto traced =
      RunPhase(opts.seconds * 0.35, 3, &pass_index, run(true), &report);
  v["ingest.decode_ns_per_tuple"] =
      DecodeNsPerTuple(rings, opts.seconds * 0.1);
  trace::SetEnabled(false);
  AddSelfTimes(trace::Collect(), &v);
  v["trace.overhead_frac"] =
      MedianCpuNsPerTuple(traced) / MedianCpuNsPerTuple(plain) - 1;
  v["stream.queue_depth_peak_pages"] = QueuePagesPeak(traced);

  // Counters come from the untraced passes.
  AddExecCounters(plain, kWorkers, &v);
  v["exec.pass_spread"] = IqrOverMedian(PassRates(plain));
  double wall = 0, frames = 0, pauses = 0, blocked = 0;
  for (const PassResult& p : plain) {
    if (!p.ok) continue;
    wall += p.wall_s;
    frames += static_cast<double>(p.acceptor.frames_forwarded);
    pauses += static_cast<double>(p.acceptor.backpressure_pauses);
    blocked += p.blocked_frac * p.wall_s;
  }
  if (wall > 0) {
    v["gen.blocked_frac"] = blocked / wall;
    v["ingest.acceptor_frames_per_sec"] = frames / wall;
    v["ingest.backpressure_pauses"] = pauses;
  }
  AddLayerMetrics(v, &report);
  return report;
}

}  // namespace servebench
