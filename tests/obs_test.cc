// Unit tests for the observability subsystem: metric instruments and the
// registry's name/kind rules, JSON escaping, and the two trace
// serializations (JSONL for golden diffs, Chrome trace_event for UIs).

#include "obs/metrics.h"
#include "obs/trace.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dyno::obs {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  g.Set(7);
  g.Set(-3);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  Histogram h({10, 100});
  h.Observe(5);     // <= 10 -> bucket 0
  h.Observe(10);    // <= 10 -> bucket 0 (bounds are inclusive)
  h.Observe(11);    // <= 100 -> bucket 1
  h.Observe(1000);  // overflow -> bucket 2
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1000);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
}

TEST(MetricsTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  Histogram h({});  // empty bounds select the default latency buckets
  ASSERT_FALSE(h.bounds().empty());
  EXPECT_EQ(h.bounds(), DefaultLatencyBounds());
  for (size_t i = 1; i < h.bounds().size(); ++i) {
    EXPECT_LT(h.bounds()[i - 1], h.bounds()[i]);
  }
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("mr.jobs");
  Counter* b = registry.GetCounter("mr.jobs");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b) << "re-registration must share one instrument";
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsTest, RegistryRejectsKindChanges) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
  ASSERT_NE(registry.GetHistogram("h", {1, 2}), nullptr);
  EXPECT_EQ(registry.GetCounter("h"), nullptr);
  ASSERT_NE(registry.GetGauge("g"), nullptr);
  EXPECT_EQ(registry.GetCounter("g"), nullptr);
}

TEST(MetricsTest, SerializeIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(2);
  registry.GetGauge("a.level")->Set(9);
  registry.GetHistogram("c.lat", {10})->Observe(4);
  registry.GetHistogram("c.lat")->Observe(40);
  EXPECT_EQ(registry.Serialize(),
            "gauge a.level 9\n"
            "counter b.count 2\n"
            "histogram c.lat count=2 sum=44 buckets=1,1\n");
}

TEST(TraceTest, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(TraceTest, EventArgRendering) {
  TraceEvent e = TraceEvent(10, 5, TraceLane::kEngine, "mr", "job")
                     .Arg("s", "hi")
                     .ArgInt("i", -7)
                     .ArgDouble("d", 0.25)
                     .ArgBool("b", true);
  ASSERT_EQ(e.args.size(), 4u);
  EXPECT_EQ(e.args[0].second, "\"hi\"");
  EXPECT_EQ(e.args[1].second, "-7");
  EXPECT_EQ(e.args[2].second, "0.25");
  EXPECT_EQ(e.args[3].second, "true");
}

TEST(TraceTest, JsonlHeaderAndEventLayout) {
  TraceSink sink;
  sink.Record(TraceEvent(100, 40, TraceLane::kPilot, "pilot", "pilot_leaf")
                  .Arg("alias", "l")
                  .ArgInt("k", 128));
  sink.Record(
      TraceEvent(150, -1, TraceLane::kDriver, "driver", "checkpoint"));
  EXPECT_EQ(sink.SerializeJsonl(),
            "{\"schema\":" + std::to_string(kTraceSchemaVersion) +
                ",\"clock\":\"sim_ms\"}\n"
                "{\"seq\":0,\"ts\":100,\"dur\":40,\"lane\":2,\"cat\":\"pilot\","
                "\"name\":\"pilot_leaf\",\"args\":{\"alias\":\"l\",\"k\":128}}\n"
                "{\"seq\":1,\"ts\":150,\"lane\":0,\"cat\":\"driver\","
                "\"name\":\"checkpoint\",\"args\":{}}\n");
}

TEST(TraceTest, JsonlSchemaHeaderTracksVersionConstant) {
  TraceSink sink;
  std::string first_line =
      sink.SerializeJsonl().substr(0, sink.SerializeJsonl().find('\n'));
  char expected[64];
  std::snprintf(expected, sizeof(expected), "{\"schema\":%d,",
                kTraceSchemaVersion);
  EXPECT_EQ(first_line.rfind(expected, 0), 0u) << first_line;
}

TEST(TraceTest, ChromeTraceHasLaneMetadataAndPhases) {
  TraceSink sink;
  sink.Record(TraceEvent(100, 40, TraceLane::kTasks, "mr", "map_attempt")
                  .ArgInt("task", 3));
  sink.Record(TraceEvent(7, -1, TraceLane::kOptimizer, "optimizer", "optimize"));
  std::string chrome = sink.SerializeChromeTrace();
  // One thread_name metadata record per lane.
  for (const char* lane :
       {"\"driver\"", "\"optimizer\"", "\"pilot\"", "\"engine\"", "\"tasks\""}) {
    EXPECT_NE(chrome.find(lane), std::string::npos) << lane;
  }
  // Span: complete event, sim-ms scaled to trace-event microseconds.
  EXPECT_NE(chrome.find("{\"ph\":\"X\",\"ts\":100000,\"dur\":40000,\"pid\":0,"
                        "\"tid\":4,\"cat\":\"mr\",\"name\":\"map_attempt\","
                        "\"args\":{\"task\":3}}"),
            std::string::npos)
      << chrome;
  // Instant: ph "i" with scope, no dur.
  EXPECT_NE(chrome.find("{\"ph\":\"i\",\"ts\":7000,\"pid\":0,\"tid\":1,"
                        "\"s\":\"t\",\"cat\":\"optimizer\","
                        "\"name\":\"optimize\",\"args\":{}}"),
            std::string::npos)
      << chrome;
}

TEST(TraceTest, WriteJsonlRoundTripsThroughDisk) {
  TraceSink sink;
  sink.Record(TraceEvent(1, 2, TraceLane::kEngine, "mr", "job"));
  std::string path = ::testing::TempDir() + "obs_test_trace.jsonl";
  ASSERT_TRUE(sink.WriteJsonl(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, sink.SerializeJsonl());
  EXPECT_FALSE(sink.WriteJsonl("/nonexistent-dir/x.jsonl").ok());
}

}  // namespace
}  // namespace dyno::obs
