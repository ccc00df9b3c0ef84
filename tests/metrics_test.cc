// Metrics suite: counter/gauge/histogram semantics, registry identity,
// Prometheus rendering, and exactness under concurrent mutation (the
// concurrent tests are the TSan targets for the lock-free stripes).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dtdevolve::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  util::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(10.5);
  gauge.Add(2.0);
  gauge.Add(-4.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 8.0);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  // Integer-valued deltas stay exact in a double, so the sum must land
  // precisely even with the CAS-loop add racing across threads.
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  util::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  pool.Wait();
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketsUseInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 5.0});
  histogram.Observe(0.5);  // le=1
  histogram.Observe(1.0);  // le=1 (inclusive edge, Prometheus semantics)
  histogram.Observe(1.5);  // le=2
  histogram.Observe(5.0);  // le=5
  histogram.Observe(99.0);  // +Inf
  std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 107.0);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyAscending) {
  std::vector<double> bounds = Histogram::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "bound " << i;
  }
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  Histogram histogram({1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  util::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Observe(2.0);
    });
  }
  pool.Wait();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(histogram.Count(), total);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 2.0 * total);
  EXPECT_EQ(histogram.BucketCounts()[1], total);
}

TEST(RegistryTest, SameNameAndLabelsReturnsSameSeries) {
  Registry registry;
  Counter& a = registry.GetCounter("requests_total", "requests");
  Counter& b = registry.GetCounter("requests_total", "requests");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      registry.GetCounter("requests_total", "requests", {{"code", "200"}});
  EXPECT_NE(&a, &labeled);
}

TEST(RegistryTest, LabelOrderIsNormalized) {
  Registry registry;
  Counter& a = registry.GetCounter("hits_total", "hits",
                                   {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.GetCounter("hits_total", "hits",
                                   {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, ConcurrentLookupsYieldOneSeries) {
  Registry registry;
  constexpr int kThreads = 8;
  util::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&registry] {
      for (int i = 0; i < 2000; ++i) {
        registry.GetCounter("shared_total", "shared").Increment();
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(registry.GetCounter("shared_total", "shared").Value(),
            static_cast<uint64_t>(kThreads) * 2000);
}

TEST(RegistryTest, RenderPrometheusFormat) {
  Registry registry;
  registry.GetCounter("widgets_total", "Widgets made").Increment(3);
  registry.GetGauge("depth", "Queue depth").Set(7);
  Histogram& h =
      registry.GetHistogram("latency_seconds", "Latency", {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(2.0);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP widgets_total Widgets made\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE widgets_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("widgets_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: 1 at le=0.1, 2 at le=1, 3 at +Inf.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3\n"), std::string::npos);
}

TEST(RegistryTest, RenderPrintsIntegralGaugesExactly) {
  Registry registry;
  registry.GetGauge("bytes", "Bytes held").Set(33554431);
  registry.GetGauge("ratio", "A fraction").Set(0.25);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("bytes 33554431\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ratio 0.25\n"), std::string::npos) << text;
}

TEST(RegistryTest, RenderGroupsFamiliesAndSortsSeries) {
  Registry registry;
  registry.GetCounter("http_total", "HTTP", {{"code", "500"}}).Increment();
  registry.GetCounter("http_total", "HTTP", {{"code", "200"}}).Increment(2);
  const std::string text = registry.RenderPrometheus();
  // One HELP/TYPE pair for the family, series sorted by label set.
  const size_t help = text.find("# HELP http_total");
  ASSERT_NE(help, std::string::npos);
  EXPECT_EQ(text.find("# HELP http_total", help + 1), std::string::npos);
  const size_t code200 = text.find("http_total{code=\"200\"} 2");
  const size_t code500 = text.find("http_total{code=\"500\"} 1");
  ASSERT_NE(code200, std::string::npos);
  ASSERT_NE(code500, std::string::npos);
  EXPECT_LT(code200, code500);
}

TEST(RegistryTest, RenderEscapesLabelValues) {
  Registry registry;
  registry
      .GetCounter("odd_total", "odd",
                  {{"path", "a\"b\\c\nd"}})
      .Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("odd_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace dtdevolve::obs
