// Observability subsystem: JSON writer/checker, metrics registry, span
// tracer, and the div-by-zero throughput clamps that keep every exported
// document valid JSON (satellite of the tracing/metrics PR).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "db/engine_stats.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace doppio {
namespace {

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

Hal::Options SmallHal() {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;  // 128 MiB
  options.functional_threads = 2;
  return options;
}

/// Turns tracing on for one test and restores the default-off global
/// state (plus empties the buffers) on the way out.
class ScopedTracing {
 public:
  ScopedTracing() { obs::Tracer::Global().SetEnabled(true); }
  ~ScopedTracing() {
    obs::Tracer::Global().SetEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

TEST(JsonWriterTest, NestedDocumentRoundTrips) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("name", "doppio \"obs\"\n\t");
  w.Field("count", int64_t{42});
  w.Field("ratio", 0.5);
  w.Key("flags").BeginArray().Bool(true).Bool(false).Null().EndArray();
  w.Key("nested").BeginObject().Field("empty", "").EndObject();
  w.Key("none").BeginObject().EndObject();
  w.EndObject();
  ASSERT_TRUE(obs::CheckJsonSyntax(w.str()).ok())
      << obs::CheckJsonSyntax(w.str()).ToString() << "\n" << w.str();
  EXPECT_NE(w.str().find("\\\"obs\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesAreClampedToZero) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[0,0,0]");
  EXPECT_TRUE(obs::CheckJsonSyntax(w.str()).ok());
}

TEST(JsonCheckTest, RejectsNonFiniteLiteralsAndGarbage) {
  EXPECT_TRUE(obs::CheckJsonSyntax("{\"a\":[1,2.5e-3,\"x\"]}").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("{\"a\": inf}").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("{\"a\": Infinity}").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("{\"a\": nan}").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("{\"a\": NaN}").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("[1,2,]").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("{\"a\":1} trailing").ok());
  EXPECT_FALSE(obs::CheckJsonSyntax("").ok());
}

TEST(JsonClampTest, SafeRateNeverProducesNonFinite) {
  EXPECT_EQ(obs::SafeRate(10.0, 2.0), 5.0);
  EXPECT_EQ(obs::SafeRate(10.0, 0.0), 0.0);
  EXPECT_EQ(obs::SafeRate(0.0, 0.0), 0.0);
  EXPECT_EQ(obs::SafeRate(std::numeric_limits<double>::infinity(), 1.0), 0.0);
  EXPECT_EQ(obs::FiniteOr(3.25), 3.25);
  EXPECT_EQ(obs::FiniteOr(std::numeric_limits<double>::quiet_NaN(), -1), -1);
}

TEST(JsonClampTest, FunctionalMbpsIsFiniteForDegenerateRuns) {
  // The zero-row / zero-duration cases that used to put inf or NaN into
  // the bench JSON (satellite: div-by-zero throughput fix).
  QueryStats zero_duration;
  zero_duration.functional_bytes = 1 << 20;
  zero_duration.functional_seconds = 0;
  EXPECT_EQ(zero_duration.FunctionalMbps(), 0.0);

  QueryStats zero_rows;  // nothing measured at all
  EXPECT_EQ(zero_rows.FunctionalMbps(), 0.0);

  QueryStats normal;
  normal.functional_bytes = 2'000'000;
  normal.functional_seconds = 1.0;
  EXPECT_DOUBLE_EQ(normal.FunctionalMbps(), 2.0);
}

TEST(MetricsTest, CountersGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test.counter", "a counter");
  ASSERT_NE(c, nullptr);
  c->Add();
  c->Add(4);
  EXPECT_EQ(c->Value(), 5);
  // Same name, same kind: same instrument.
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
  // Same name, different kind: rejected.
  EXPECT_EQ(reg.GetGauge("test.counter"), nullptr);
  EXPECT_EQ(reg.GetHistogram("test.counter", obs::DepthBuckets()), nullptr);

  obs::Gauge* g = reg.GetGauge("test.gauge");
  ASSERT_NE(g, nullptr);
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 5);

  obs::Histogram* h = reg.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  ASSERT_NE(h, nullptr);
  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(10.0);   // bucket 1 (<= 10, inclusive upper bound)
  h->Observe(99.0);   // bucket 2
  h->Observe(1e9);    // overflow bucket
  EXPECT_EQ(h->TotalCount(), 4);
  EXPECT_NEAR(h->Sum(), 0.5 + 10.0 + 99.0 + 1e9, 1e9 * 1e-6);
  auto buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);

  std::string text = reg.ToJson();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  EXPECT_NE(text.find("test.gauge"), std::string::npos);
  EXPECT_NE(text.find("test.hist"), std::string::npos);

  std::string json = reg.ToJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok())
      << obs::CheckJsonSyntax(json).ToString() << "\n" << json;

  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->TotalCount(), 0);
  EXPECT_EQ(h->Sum(), 0.0);
}

TEST(MetricsTest, GlobalRegistryDrivenByTheJobPathExportsValidJson) {
  // Run a real HUDF query so the instrumented HAL/device sites populate
  // the process-wide registry, then check the exports.
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        input.AppendString(i % 4 == 0 ? "Berner Strasse 7" : "Berner Gasse 7")
            .ok());
  }
  auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* submitted = reg.GetCounter("doppio.device.jobs_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_GT(submitted->Value(), 0);
  obs::Counter* dispatched = reg.GetCounter("doppio.queue.jobs_dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_GT(dispatched->Value(), 0);
  obs::Histogram* latency = reg.GetHistogram(
      "doppio.hal.job_latency_virtual_seconds", obs::LatencySecondsBuckets());
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->TotalCount(), 0);

  std::string json = reg.ToJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok())
      << obs::CheckJsonSyntax(json).ToString();
  EXPECT_NE(json.find("doppio.device.jobs_submitted"), std::string::npos);
  EXPECT_NE(reg.ToJson().find("doppio.engine.functional_mbps"),
            std::string::npos);
}

TEST(TracerTest, DisabledTracerIsInvisible) {
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_FALSE(tracer.enabled());  // default off
  obs::TraceId id = tracer.BeginQuery("should-not-record");
  EXPECT_EQ(id, obs::kInvalidTraceId);
  tracer.EndQuery(id);

  obs::JobTraceRecord record;
  record.trace_id = obs::kInvalidTraceId;
  record.enqueue_time = 1;
  record.finish_time = 2;
  tracer.RecordJob(record);
  EXPECT_EQ(tracer.JobCount(obs::kInvalidTraceId), 0);
  EXPECT_EQ(tracer.VirtualExtent(obs::kInvalidTraceId), 0.0);
}

TEST(TracerTest, SyntheticJobsProduceWellFormedChromeTrace) {
  ScopedTracing scoped;
  obs::Tracer& tracer = obs::Tracer::Global();

  obs::TraceId id = tracer.BeginQuery("synthetic");
  ASSERT_NE(id, obs::kInvalidTraceId);
  for (int j = 0; j < 3; ++j) {
    obs::JobTraceRecord r;
    r.trace_id = id;
    r.queue_job_id = static_cast<uint64_t>(j);
    r.engine_id = j % 2;
    r.enqueue_time = PicosFromSeconds(1e-6 * (j + 1));
    r.dispatch_time = r.enqueue_time + PicosFromSeconds(1e-7);
    r.start_time = r.dispatch_time + PicosFromSeconds(1e-7);
    r.collect_start_time = r.start_time + PicosFromSeconds(5e-6);
    r.done_bit_time = r.collect_start_time + PicosFromSeconds(1e-7);
    r.finish_time = r.done_bit_time;
    r.matches = 10 * j;
    r.strings_processed = 100;
    r.bytes_streamed = 6400;
    r.pu_kernel = "literal";
    tracer.RecordJob(r);
  }
  tracer.RecordInstant(id, "sw_fallback", PicosFromSeconds(2e-6));
  tracer.EndQuery(id);

  EXPECT_EQ(tracer.JobCount(id), 3);
  // max(finish) - min(enqueue): job 2 finishes at 3us+5.3us, job 0
  // enqueues at 1us.
  EXPECT_NEAR(tracer.VirtualExtent(id), 7.3e-6, 1e-12);

  std::string json = tracer.ToChromeTraceJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok())
      << obs::CheckJsonSyntax(json).ToString() << "\n" << json;
  // Every duration-begin has a matching end (per-job tracks are strictly
  // sequential, so pairing is positional).
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  // 3 jobs x 4 phases + 1 query span.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 13);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sw_fallback\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"synthetic\""), std::string::npos);
}

TEST(TracerTest, UnreachedPhasesAreSkippedNotBroken) {
  ScopedTracing scoped;
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::TraceId id = tracer.BeginQuery("dropped-job");
  obs::JobTraceRecord r;
  r.trace_id = id;
  r.queue_job_id = 9;
  r.enqueue_time = PicosFromSeconds(1e-6);
  r.dispatch_time = r.enqueue_time + PicosFromSeconds(1e-7);
  // start/collect/done never stamped: the engine dropped the job.
  tracer.RecordJob(r);
  tracer.EndQuery(id);

  std::string json = tracer.ToChromeTraceJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok());
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"execute\""), std::string::npos);
}

TEST(TracerTest, TracedHudfQueryReconcilesWithQueryStats) {
  // The acceptance criterion of the PR: per-job virtual-time spans must
  // cover the same window QueryStats::hw_seconds reports, within 1%.
  ScopedTracing scoped;
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(
        input.AppendString(i % 5 == 0 ? "Koblenzer Strasse 44"
                                      : "Koblenzer Gasse 44")
            .ok());
  }
  auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_NE(out->stats.trace_id, obs::kInvalidTraceId);
  EXPECT_EQ(tracer.JobCount(out->stats.trace_id),
            hal.device_config().num_engines);
  const double extent = tracer.VirtualExtent(out->stats.trace_id);
  ASSERT_GT(out->stats.hw_seconds, 0.0);
  EXPECT_NEAR(extent, out->stats.hw_seconds, out->stats.hw_seconds * 0.01);

  std::string json = tracer.ToChromeTraceJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok())
      << obs::CheckJsonSyntax(json).ToString();
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
}

TEST(TracerTest, FailedSubmitStillExportsClosedSpan) {
  // A job the device refuses for good (memory outside the shared region
  // is not fallback-eligible) fails the query; its span must still be
  // closed, or the Chrome export silently drops it.
  ScopedTracing scoped;
  Hal hal(SmallHal());
  Bat input(ValueType::kString);  // host heap, outside the shared arena
  ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
  auto out = RegexpFpga(&hal, input, "Strasse");
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status().ToString();
  EXPECT_NE(out.status().ToString().find("shared region"), std::string::npos)
      << out.status().ToString();

  std::string json = obs::Tracer::Global().ToChromeTraceJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(json).ok())
      << obs::CheckJsonSyntax(json).ToString();
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"regexp_fpga\""), 2) << json;
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
}

TEST(TracerTest, ZeroRowTracedQueryExportsValidJson) {
  // Zero-row smoke (satellite: div-by-zero fix): a traced empty query
  // must not leak inf/NaN into any exported document.
  ScopedTracing scoped;
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  auto out = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.rows_matched, 0);
  EXPECT_EQ(out->stats.FunctionalMbps(), 0.0);

  // The figure-JSON shape bench_fig10_breakdown emits, round-tripped
  // through the strict parser.
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("hw_us", out->stats.hw_seconds * 1e6);
  w.Field("functional_mbps", out->stats.FunctionalMbps());
  w.Field("mbps_unclamped_guard",
          obs::SafeRate(static_cast<double>(out->stats.functional_bytes),
                        out->stats.functional_seconds));
  w.EndObject();
  ASSERT_TRUE(obs::CheckJsonSyntax(w.str()).ok()) << w.str();
  EXPECT_EQ(w.str().find("inf"), std::string::npos);
  EXPECT_EQ(w.str().find("nan"), std::string::npos);

  std::string trace = obs::Tracer::Global().ToChromeTraceJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(trace).ok());
  std::string metrics = obs::MetricsRegistry::Global().ToJson();
  ASSERT_TRUE(obs::CheckJsonSyntax(metrics).ok());
  EXPECT_EQ(metrics.find("inf"), std::string::npos);
  EXPECT_EQ(metrics.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace doppio
