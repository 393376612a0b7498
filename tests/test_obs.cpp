// Observability layer: the metrics registry must aggregate exactly
// (across threads, for counters, gauges and histograms), snapshots of
// a deterministic Session replay must equal the StreamStats the run
// returned (bursts / bytes / zeros / transitions, per-kernel dispatch
// counts == call counts), the Chrome trace JSON must parse back, rings
// must wrap without losing accounting, and disabled mode must produce
// nothing at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/verify.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/span_trace.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace dbi::obs {
namespace {

// ------------------------------------------------------------ registry

TEST(Metrics, CounterGaugeExactOnOneThread) {
  Registry r;
  const Counter c = r.counter("test_total");
  const Gauge g = r.gauge("test_gauge");
  for (int i = 0; i < 1000; ++i) c.inc();
  c.add(234);
  g.set(2.5);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.value("test_total"), 1234.0);
  EXPECT_EQ(s.value("test_gauge"), 2.5);
  EXPECT_EQ(s.value("absent_metric"), 0.0);
}

TEST(Metrics, CountersSumExactlyAcrossThreads) {
  Registry r;
  const Counter c = r.counter("threads_total");
  const Counter labeled = r.counter("threads_total", "shard=\"a\"");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
      labeled.add(3);
    });
  for (std::thread& w : workers) w.join();
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.value("threads_total"),
            static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(s.value("threads_total", "shard=\"a\""), 3.0 * kThreads);
}

TEST(Metrics, HistogramCountSumMaxQuantiles) {
  Registry r;
  const Histogram h = r.histogram("dur_ns");
  // 900 observations of 7 (bucket 3) and 100 of 1000 (bucket 10): p50
  // and p90 land in the low bucket, p99 in the high one; max is exact.
  for (int i = 0; i < 900; ++i) h.observe(7);
  for (int i = 0; i < 100; ++i) h.observe(1000);
  const Snapshot s = r.snapshot();
  const MetricPoint* p = s.find("dur_ns");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, MetricKind::kHistogram);
  EXPECT_EQ(p->count, 1000u);
  EXPECT_EQ(p->sum, 900.0 * 7 + 100.0 * 1000);
  EXPECT_EQ(p->max, 1000u);
  EXPECT_EQ(p->p50, 7.0);   // bucket upper bound == the value itself
  EXPECT_EQ(p->p90, 7.0);
  EXPECT_EQ(p->p99, 1000.0);  // clamped to the observed max
}

TEST(Metrics, HistogramExactUnderConcurrency) {
  Registry r;
  const Histogram h = r.histogram("conc_ns");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<std::uint64_t>(t + 1));
    });
  for (std::thread& w : workers) w.join();
  const Snapshot s = r.snapshot();
  const MetricPoint* p = s.find("conc_ns");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  double sum = 0;
  for (int t = 0; t < kThreads; ++t) sum += (t + 1.0) * kPerThread;
  EXPECT_EQ(p->sum, sum);
  EXPECT_EQ(p->max, static_cast<std::uint64_t>(kThreads));
}

TEST(Metrics, ReRegistrationIsIdempotentAndKindMismatchThrows) {
  Registry r;
  const Counter a = r.counter("same_total");
  const Counter b = r.counter("same_total");
  a.inc();
  b.inc();
  EXPECT_EQ(r.snapshot().value("same_total"), 2.0);
  EXPECT_EQ(r.metric_count(), 1u);
  EXPECT_THROW((void)r.gauge("same_total"), std::invalid_argument);
}

TEST(Metrics, DefaultHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  EXPECT_FALSE(static_cast<bool>(c));
  c.inc();       // must not crash
  g.set(1.0);
  h.observe(1);
}

TEST(Metrics, JsonExportParsesBackAndPrometheusNamesEveryMetric) {
  Registry r;
  r.counter("a_total", "k=\"v\"").add(7);
  r.gauge("b_gauge").set(1.5);
  r.histogram("c_ns").observe(31);
  const Snapshot s = r.snapshot();

  const json::Value doc = json::parse(s.to_json());
  const json::Value* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  std::set<std::string> names;
  for (const json::Value& m : metrics->array)
    names.insert(std::string(m.get_string("name")));
  EXPECT_TRUE(names.count("a_total"));
  EXPECT_TRUE(names.count("b_gauge"));
  EXPECT_TRUE(names.count("c_ns"));

  const std::string prom = s.to_prometheus();
  EXPECT_NE(prom.find("a_total{k=\"v\"} 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE b_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("c_ns_count 1"), std::string::npos);
}

// -------------------------------------------------------------- tracer

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  Tracer t(Tracer::Options{16, 1});
  for (int i = 0; i < 100; ++i)
    t.record(Stage::kCrc, static_cast<std::uint64_t>(i), 1, i, -1);
  EXPECT_EQ(t.retained(), 16u);
  EXPECT_EQ(t.dropped(), 84u);

  std::ostringstream os;
  t.write_chrome_json(os);
  const json::Value doc = json::parse(os.str());
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 16 "X" spans (the newest — a0 84..99) plus thread metadata.
  std::vector<double> kept;
  for (const json::Value& e : events->array)
    if (e.get_string("ph") == "X") {
      EXPECT_EQ(e.get_string("name"), "crc");
      const json::Value* args = e.get("args");
      ASSERT_NE(args, nullptr);
      kept.push_back(args->get_number("bytes", -1));
    }
  ASSERT_EQ(kept.size(), 16u);
  EXPECT_EQ(kept.front(), 84.0);  // oldest retained, emitted first
  EXPECT_EQ(kept.back(), 99.0);
}

TEST(Tracer, StrideSamplingKeepsEveryNth) {
  Tracer t(Tracer::Options{64, 3});
  int kept = 0;
  for (int i = 0; i < 9; ++i)
    if (t.sample(Stage::kEncodeChunk)) ++kept;
  EXPECT_EQ(kept, 3);
  // Independent per-stage counters: a different stage starts fresh.
  EXPECT_TRUE(t.sample(Stage::kGather));
}

// ----------------------------------------------------- session parity

trace::TraceReader make_trace(std::int64_t bursts,
                              std::uint32_t per_chunk = 64) {
  const BusConfig cfg{8, 8};
  auto src = workload::make_uniform_source(cfg, 11);
  const auto trace = workload::BurstTrace::collect(*src, bursts);
  std::ostringstream os(std::ios::binary);
  trace::TraceWriterOptions opt;
  opt.bursts_per_chunk = per_chunk;
  trace::TraceWriter writer(os, cfg, opt);
  for (const Burst& b : trace.bursts()) writer.write(b);
  writer.finish();
  const std::string s = os.str();
  return trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

TEST(Observer, DisabledSessionProducesNothing) {
  const auto reader = make_trace(100);
  SessionSpec spec;
  spec.policy = Scheme::kAc;
  Session session(spec);
  const auto source = make_trace_source(reader);
  (void)session.run(*source);
  EXPECT_EQ(session.observer(), nullptr);
  EXPECT_TRUE(session.report().metrics.points.empty());
}

TEST(Observer, SnapshotEqualsStreamStatsOnDeterministicReplay) {
  const auto reader = make_trace(333);
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.lanes = 2;
  spec.obs.level = ObsLevel::kCounters;
  Session session(spec);
  const auto source = make_trace_source(reader);
  const StreamStats a = session.run(*source);
  const StreamStats b = session.run(*source);  // restartable: same totals
  EXPECT_EQ(a, b);

  const Snapshot s = session.report().metrics;
  EXPECT_EQ(s.value("dbi_runs_total"), 2.0);
  EXPECT_EQ(s.value("dbi_bursts_total"),
            static_cast<double>(a.bursts + b.bursts));
  EXPECT_EQ(s.value("dbi_zeros_total"),
            static_cast<double>(a.zeros + b.zeros));
  EXPECT_EQ(s.value("dbi_transitions_total"),
            static_cast<double>(a.transitions + b.transitions));
  EXPECT_EQ(s.value("dbi_bytes_total"),
            static_cast<double>((a.bursts + b.bursts) *
                                spec.geometry.bytes_per_burst()));
  EXPECT_EQ(s.value("dbi_chunks_total"),
            2.0 * static_cast<double>(reader.chunk_count()));
  // Replay publishes the trace-file gauges.
  EXPECT_EQ(s.value("dbi_trace_file_bytes"),
            static_cast<double>(reader.file_bytes()));
}

TEST(Observer, EncodeDispatchCountersAreExactOnSerialReplay) {
  // Serial, lanes=1, threaded state: the fixed8 engine path dispatches
  // its kernel exactly once per chunk, so the per-kernel counters must
  // sum to the chunk count exactly.
  const auto reader = make_trace(333, 64);  // 6 chunks (5 full + tail)
  SessionSpec spec;
  spec.policy = Scheme::kAc;
  spec.lanes = 1;
  spec.obs.level = ObsLevel::kCounters;
  Session session(spec);
  const auto source = make_trace_source(reader);
  (void)session.run(*source);

  const Snapshot s = session.report().metrics;
  double dispatches = 0;
  for (const engine::KernelVariant* v : engine::registered_kernels())
    dispatches += s.value("dbi_kernel_dispatch_total",
                          "kernel=\"" + std::string(v->name()) +
                              "\",path=\"encode\"");
  EXPECT_EQ(dispatches, static_cast<double>(reader.chunk_count()));
  // The fallback counter can never exceed the dispatch total.
  EXPECT_LE(s.value("dbi_kernel_fallback_total", "path=\"encode\""),
            dispatches);
}

TEST(Observer, PoolMetricsPublishedOnThreadedReplay) {
  const auto reader = make_trace(512, 64);
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.lanes = 4;
  spec.threads = 2;
  spec.obs.level = ObsLevel::kCounters;
  Session session(spec);
  const auto source = make_trace_source(reader);
  (void)session.run(*source);

  const Snapshot s = session.report().metrics;
  EXPECT_EQ(s.value("dbi_pool_workers"), 2.0);
  EXPECT_GE(s.value("dbi_pool_runs_total"), 1.0);
  EXPECT_GE(s.value("dbi_pool_shards_total"), s.value("dbi_pool_runs_total"));
  // Per-worker busy counters exist for both workers (values are timing-
  // dependent, existence and kind are not).
  EXPECT_NE(s.find("dbi_pool_worker_busy_ns_total", "worker=\"0\""), nullptr);
  EXPECT_NE(s.find("dbi_pool_worker_busy_ns_total", "worker=\"1\""), nullptr);
}

TEST(Observer, SharedExternalObserverAggregatesConcurrentSessions) {
  // Several sessions on separate threads share one caller-owned
  // observer (SessionSpec::observer) — the multi-tenant daemon's
  // arrangement. The registry must aggregate exactly under that
  // concurrency: totals equal the summed per-session StreamStats.
  obs::ObsConfig cfg;
  cfg.level = ObsLevel::kCounters;
  obs::Observer shared(cfg);

  constexpr int kThreads = 4;
  constexpr std::int64_t kBursts = 256;
  std::vector<StreamStats> stats(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      const auto reader = make_trace(kBursts, 64);
      SessionSpec spec;
      spec.policy = Scheme::kAc;
      spec.observer = &shared;
      Session session(spec);
      ASSERT_EQ(session.observer(), &shared);
      const auto source = make_trace_source(reader);
      stats[t] = session.run(*source);
    });
  for (std::thread& w : workers) w.join();

  std::int64_t bursts = 0, zeros = 0, transitions = 0;
  for (const StreamStats& s : stats) {
    bursts += s.bursts;
    zeros += s.zeros;
    transitions += s.transitions;
  }
  const obs::Snapshot s = shared.snapshot();
  EXPECT_EQ(s.value("dbi_runs_total"), static_cast<double>(kThreads));
  EXPECT_EQ(s.value("dbi_bursts_total"), static_cast<double>(bursts));
  EXPECT_EQ(s.value("dbi_zeros_total"), static_cast<double>(zeros));
  EXPECT_EQ(s.value("dbi_transitions_total"), static_cast<double>(transitions));
}

TEST(Observer, TraceJsonFromFullSessionParsesAndNamesStages) {
  // Encode and round-trip runs go through the same chunk loop, so both
  // name the source and sink stages.
  const auto reader = make_trace(256, 64);
  for (const Direction direction :
       {Direction::kEncode, Direction::kRoundTrip}) {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.lanes = 2;
    spec.direction = direction;
    spec.obs.level = ObsLevel::kFull;
    Session session(spec);
    const auto source = make_trace_source(reader);
    (void)session.run(*source);
    EXPECT_TRUE(session.verify_report().ok());

    ASSERT_NE(session.observer(), nullptr);
    std::ostringstream os;
    ASSERT_TRUE(session.observer()->write_trace_json(os));
    const json::Value doc = json::parse(os.str());
    const json::Value* events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    std::set<std::string> names;
    for (const json::Value& e : events->array)
      if (e.get_string("ph") == "X")
        names.insert(std::string(e.get_string("name")));
    const int d = static_cast<int>(direction);
    EXPECT_TRUE(names.count("encode_chunk")) << d;
    EXPECT_TRUE(names.count("source_read")) << d;  // RLE expansion lands here
    EXPECT_TRUE(names.count("sink_write")) << d;
    // The stage histograms were fed by the same spans.
    const Snapshot s = session.report().metrics;
    const MetricPoint* enc =
        s.find("dbi_stage_duration_ns", "stage=\"encode_chunk\"");
    ASSERT_NE(enc, nullptr);
    EXPECT_GE(enc->count, static_cast<std::uint64_t>(reader.chunk_count()));
  }
}

/// A zeros-heavy x8 trace image: most 64-burst chunks are RLE'd on
/// write. With `encode`, the image is the transmitted stream plus masks
/// of an `encode` session over the same bursts (RAW keeps the zero runs,
/// so the encoded copy stays RLE'd too).
trace::TraceReader rle_trace(std::optional<Scheme> encode = std::nullopt) {
  const BusConfig cfg{8, 8};
  auto src = workload::make_sparse_source(cfg, 0.9, 17);
  const auto trace = workload::BurstTrace::collect(*src, 1024);
  std::ostringstream os(std::ios::binary);
  trace::TraceWriterOptions opt;
  opt.bursts_per_chunk = 64;
  if (encode) {
    opt.encoded = true;
    opt.enc_scheme = scheme_to_tag(*encode);
  }
  trace::TraceWriter writer(os, cfg, opt);
  if (encode) {
    SessionSpec spec;
    spec.policy = SchemePolicy::fixed(*encode);
    Session session(spec);
    const auto source = make_burst_source(trace.bursts());
    const auto sink = make_encoded_trace_sink(writer);
    (void)session.run(*source, *sink);
  } else {
    for (const Burst& b : trace.bursts()) writer.write(b);
    writer.finish();
  }
  const std::string s = os.str();
  return trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

/// RLE'd chunk streams in `reader`: payloads plus, on encoded traces,
/// mask streams (the reader tallies each expansion).
double rle_chunk_count(const trace::TraceReader& reader) {
  double n = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const trace::ChunkInfo& info = reader.chunk(c);
    n += info.compressed() ? 1 : 0;
    n += (info.mask_flags & trace::kChunkFlagRle) != 0 ? 1 : 0;
  }
  return n;
}

TEST(Observer, TraceIoCountersPublishedInEveryDirection) {
  const auto payload = rle_trace();
  const auto encoded = rle_trace(Scheme::kRaw);
  ASSERT_GT(rle_chunk_count(payload), 0.0);
  ASSERT_GT(rle_chunk_count(encoded), 0.0);

  struct Case {
    const char* name;
    const trace::TraceReader* reader;
    Direction direction;
    SchemePolicy policy;
  };
  const Case cases[] = {
      {"encode", &payload, Direction::kEncode, Scheme::kDc},
      {"roundtrip", &payload, Direction::kRoundTrip, Scheme::kDc},
      {"adaptive", &payload, Direction::kEncode,
       SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kAc})},
      {"decode", &encoded, Direction::kDecode, Scheme::kRaw},
  };
  for (const Case& c : cases) {
    SessionSpec spec;
    spec.policy = c.policy;
    spec.lanes = 2;
    spec.direction = c.direction;
    spec.obs.level = ObsLevel::kCounters;
    Session session(spec);
    const auto source = make_trace_source(*c.reader);
    (void)session.run(*source);
    const Snapshot s = session.report().metrics;
    EXPECT_EQ(s.value("dbi_trace_rle_chunks_total"),
              rle_chunk_count(*c.reader))
        << c.name;
    EXPECT_GT(s.value("dbi_trace_crc_ns"), 0.0) << c.name;
    EXPECT_EQ(s.value("dbi_trace_file_bytes"),
              static_cast<double>(c.reader->file_bytes()))
        << c.name;
  }
}

TEST(Observer, DecodeSessionBuildsNoPool) {
  const auto encoded = rle_trace(Scheme::kRaw);
  const auto decode = [&](int threads) {
    SessionSpec spec;
    spec.direction = Direction::kDecode;
    spec.threads = threads;
    spec.obs.level = ObsLevel::kCounters;
    Session session(spec);
    const auto source = make_trace_source(encoded);
    std::vector<std::uint8_t> bytes;
    const auto sink = make_payload_sink(bytes);
    (void)session.run(*source, *sink);
    EXPECT_EQ(session.report().metrics.value("dbi_pool_workers"), 0.0)
        << threads;
    return bytes;
  };
  const std::vector<std::uint8_t> serial = decode(0);
  EXPECT_EQ(serial.size(), static_cast<std::size_t>(encoded.bursts()) * 8);
  EXPECT_EQ(decode(4), serial);
}

TEST(Observer, CountersLevelWritesNoTrace) {
  Observer obs(ObsConfig{.level = ObsLevel::kCounters});
  EXPECT_EQ(obs.tracer(), nullptr);
  std::ostringstream os;
  EXPECT_FALSE(obs.write_trace_json(os));
  EXPECT_TRUE(os.str().empty());
  // ScopedSpan over a counters-only observer is inert.
  {
    ScopedSpan span(&obs, Stage::kEncodeChunk, 1, 2);
    EXPECT_FALSE(span.active());
  }
  const Snapshot s = obs.snapshot();
  const MetricPoint* p =
      s.find("dbi_stage_duration_ns", "stage=\"encode_chunk\"");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, 0u);
}

TEST(Observer, SharedObserverAggregatesAcrossSessions) {
  const auto reader = make_trace(128, 64);
  Observer shared(ObsConfig{.level = ObsLevel::kCounters});
  StreamStats sum;
  for (const Scheme scheme : {Scheme::kRaw, Scheme::kAc, Scheme::kOpt}) {
    SessionSpec spec;
    spec.policy = scheme;
    spec.observer = &shared;
    Session session(spec);
    const auto source = make_trace_source(reader);
    sum += session.run(*source);
  }
  const Snapshot s = shared.snapshot();
  EXPECT_EQ(s.value("dbi_runs_total"), 3.0);
  EXPECT_EQ(s.value("dbi_bursts_total"), static_cast<double>(sum.bursts));
}

TEST(Observer, VerifyEncodedTracePublishesTotals) {
  // Round-trip an encoded in-memory trace through verify_encoded_trace
  // with an observer: run totals and chunk counts must be exact.
  const BusConfig cfg{8, 8};
  auto src = workload::make_uniform_source(cfg, 5);
  const auto trace = workload::BurstTrace::collect(*src, 200);
  std::ostringstream os(std::ios::binary);
  trace::TraceWriterOptions opt;
  opt.bursts_per_chunk = 64;
  opt.encoded = true;
  opt.enc_scheme = scheme_to_tag(Scheme::kAc);
  opt.enc_lanes = 1;
  trace::TraceWriter writer(os, cfg, opt);
  {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    Session session(spec);
    const auto source = make_burst_source(trace.bursts());
    const auto sink = make_encoded_trace_sink(writer);
    (void)session.run(*source, *sink);
  }
  const std::string bytes = os.str();
  const auto reader = trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));

  Observer obs(ObsConfig{.level = ObsLevel::kCounters});
  VerifyOptions vopt;
  vopt.obs = &obs;
  const VerifyReport report = verify_encoded_trace(reader, vopt);
  EXPECT_TRUE(report.ok());
  const Snapshot s = obs.snapshot();
  EXPECT_EQ(s.value("dbi_bursts_total"), static_cast<double>(report.bursts));
  EXPECT_EQ(s.value("dbi_chunks_total"),
            static_cast<double>(reader.chunk_count()));
}

// ------------------------------------------------ zero-burst regression

TEST(StreamStatsRegression, ZeroBurstsYieldZeroNotNaN) {
  const StreamStats empty;
  EXPECT_EQ(empty.zeros_per_burst(), 0.0);
  EXPECT_EQ(empty.transitions_per_burst(), 0.0);
  EXPECT_EQ(empty.zeros_per_write(), 0.0);
  EXPECT_EQ(empty.transitions_per_write(), 0.0);

  // A session run over an empty source publishes clean zeros too.
  SessionSpec spec;
  spec.obs.level = ObsLevel::kCounters;
  Session session(spec);
  const std::vector<Burst> none;
  const auto source = make_burst_source(none);
  const StreamStats totals = session.run(*source);
  EXPECT_EQ(totals.bursts, 0);
  EXPECT_EQ(totals.zeros_per_burst(), 0.0);
  EXPECT_EQ(session.report().metrics.value("dbi_bursts_total"), 0.0);
}

}  // namespace
}  // namespace dbi::obs
