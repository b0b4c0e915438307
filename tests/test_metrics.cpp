#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace misuse {
namespace {

// Every instrument in these tests gets a unique name so the tests stay
// independent of execution order (the registry is process-global).

class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : saved_(metrics_enabled()) {}
  ~MetricsEnabledGuard() { set_metrics_enabled(saved_); }

 private:
  bool saved_;
};

TEST(Counter, IncrementAndReset) {
  Counter& c = metrics().counter("test.counter.basic");
  c.reset();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, RegistryReturnsSameInstrumentForSameName) {
  Counter& a = metrics().counter("test.counter.identity");
  Counter& b = metrics().counter("test.counter.identity");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = metrics().gauge("test.gauge.identity");
  Gauge& g2 = metrics().gauge("test.gauge.identity");
  EXPECT_EQ(&g1, &g2);
  HistogramMetric& h1 = metrics().histogram("test.histogram.identity");
  HistogramMetric& h2 = metrics().histogram("test.histogram.identity");
  EXPECT_EQ(&h1, &h2);
}

TEST(Counter, ConcurrentIncrementsFromThreadPoolAreExact) {
  Counter& c = metrics().counter("test.counter.concurrent");
  c.reset();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 1000;
  pool.parallel_for(0, kTasks, [&](std::size_t i) { c.inc(i % 3 + 1); });
  // sum over i of (i % 3 + 1): 334 ones, 333 twos, 333 threes.
  EXPECT_EQ(c.value(), 334u * 1 + 333u * 2 + 333u * 3);
}

TEST(Counter, DisabledRecordingIsDropped) {
  MetricsEnabledGuard guard;
  Counter& c = metrics().counter("test.counter.disabled");
  c.reset();
  set_metrics_enabled(false);
  c.inc(5);
  EXPECT_EQ(c.value(), 0u);
  set_metrics_enabled(true);
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Gauge, SetTracksValueAndHighWater) {
  Gauge& g = metrics().gauge("test.gauge.basic");
  g.reset();
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.high_water(), 7);
  g.add(10);
  EXPECT_EQ(g.value(), 13);
  EXPECT_EQ(g.high_water(), 13);
  g.add(-5);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.high_water(), 13);
}

TEST(Gauge, ConcurrentAddsBalanceOut) {
  Gauge& g = metrics().gauge("test.gauge.concurrent");
  g.reset();
  ThreadPool pool(4);
  pool.parallel_for(0, 500, [&](std::size_t) {
    g.add(1);
    g.add(-1);
  });
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.high_water(), 1);
}

TEST(HistogramMetric, ExponentialBuckets) {
  const auto bounds = exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(HistogramMetric, RecordsIntoCorrectBuckets) {
  HistogramMetric& h = metrics().histogram("test.histogram.buckets", {1.0, 2.0, 4.0});
  h.reset();
  h.record(0.5);   // <= 1.0
  h.record(1.0);   // <= 1.0 (bound is inclusive)
  h.record(3.0);   // <= 4.0
  h.record(100.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
}

TEST(HistogramMetric, EmptyQuantileIsZero) {
  HistogramMetric& h = metrics().histogram("test.histogram.empty", {1.0, 2.0});
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramMetric, SingleBucketQuantileInterpolates) {
  HistogramMetric& h = metrics().histogram("test.histogram.single", {10.0});
  h.reset();
  h.record(5.0);
  h.record(5.0);
  // Both samples are in [0, 10]; the median interpolates to the middle.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(HistogramMetric, OverflowQuantileReportsLastBound) {
  HistogramMetric& h = metrics().histogram("test.histogram.overflow", {1.0, 2.0});
  h.reset();
  h.record(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(HistogramMetric, QuantileWalksCumulativeCounts) {
  HistogramMetric& h = metrics().histogram("test.histogram.cumulative", {1.0, 2.0, 3.0, 4.0});
  h.reset();
  for (int i = 0; i < 10; ++i) h.record(0.5);  // bucket (0, 1]
  for (int i = 0; i < 10; ++i) h.record(3.5);  // bucket (3, 4]
  // p25 sits inside the first bucket, p75 inside the fourth.
  EXPECT_GT(h.quantile(0.25), 0.0);
  EXPECT_LE(h.quantile(0.25), 1.0);
  EXPECT_GT(h.quantile(0.75), 3.0);
  EXPECT_LE(h.quantile(0.75), 4.0);
}

TEST(HistogramMetric, ConcurrentRecordsCountExactly) {
  HistogramMetric& h = metrics().histogram("test.histogram.concurrent", {0.25, 0.5, 1.0});
  h.reset();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 800;
  // 0.125 has an exact double representation, so the sum is exact even
  // under the CAS-add and the equality below is safe.
  pool.parallel_for(0, kTasks, [&](std::size_t) { h.record(0.125); });
  EXPECT_EQ(h.count(), kTasks);
  EXPECT_DOUBLE_EQ(h.sum(), 0.125 * static_cast<double>(kTasks));
  EXPECT_EQ(h.bucket_count(0), kTasks);
}

TEST(HistogramMetric, DisabledRecordingIsDropped) {
  MetricsEnabledGuard guard;
  HistogramMetric& h = metrics().histogram("test.histogram.disabled", {1.0});
  h.reset();
  set_metrics_enabled(false);
  h.record(0.5);
  EXPECT_EQ(h.count(), 0u);
  set_metrics_enabled(true);
  h.record(0.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramMetric, LatencyBucketsAreAscending) {
  const auto& bounds = latency_buckets();
  ASSERT_FALSE(bounds.empty());
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(MetricsRegistry, WriteJsonProducesBalancedDocument) {
  metrics().counter("test.json.counter").inc(3);
  metrics().gauge("test.json.gauge").set(4);
  metrics().histogram("test.json.histogram", {1.0}).record(0.5);
  std::ostringstream out;
  {
    JsonWriter json(out);
    metrics().write_json(json);
  }
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.json.counter\""), std::string::npos);
  // Structural sanity: braces and brackets balance (no string in the
  // document contains them, so plain counting is enough here).
  int braces = 0;
  int brackets = 0;
  for (const char ch : doc) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  Counter& c = metrics().counter("test.registry.reset");
  c.inc(9);
  metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &metrics().counter("test.registry.reset"));
}

// --- Prometheus exposition ----------------------------------------------

/// One exposition sample line, labels kept verbatim.
struct PromSample {
  std::string name;
  std::string labels;  // "" or the "{...}" block
  double value = 0.0;
};

std::vector<PromSample> parse_prometheus_text(const std::string& text) {
  std::vector<PromSample> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "malformed sample line: " << line;
    if (space == std::string::npos) continue;
    PromSample s;
    const std::string value = line.substr(space + 1);
    if (value == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (value == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else if (value == "NaN") {
      s.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      char* end = nullptr;
      s.value = std::strtod(value.c_str(), &end);
      EXPECT_TRUE(end != nullptr && *end == '\0') << "bad value in: " << line;
    }
    s.name = line.substr(0, space);
    const std::size_t brace = s.name.find('{');
    if (brace != std::string::npos) {
      s.labels = s.name.substr(brace);
      s.name.resize(brace);
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

double find_sample(const std::vector<PromSample>& samples, const std::string& name,
                   const std::string& labels = "") {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "sample not found: " << name << labels;
  return 0.0;
}

double bucket_bound(const std::string& labels) {
  const std::size_t start = labels.find("le=\"");
  EXPECT_NE(start, std::string::npos) << labels;
  if (start == std::string::npos) return 0.0;
  const std::string raw = labels.substr(start + 4, labels.find('"', start + 4) - start - 4);
  if (raw == "+Inf") return std::numeric_limits<double>::infinity();
  return std::strtod(raw.c_str(), nullptr);
}

/// Asserts the Prometheus histogram contract for one family within an
/// exposition document: bucket counts monotone nondecreasing in le, the
/// last bucket is +Inf, and its count equals the family's _count sample.
void expect_bucket_invariants(const std::vector<PromSample>& samples, const std::string& family) {
  double previous_count = 0.0;
  double previous_bound = -std::numeric_limits<double>::infinity();
  double last_count = 0.0;
  double last_bound = 0.0;
  std::size_t buckets = 0;
  for (const auto& s : samples) {
    if (s.name != family + "_bucket") continue;
    const double bound = bucket_bound(s.labels);
    EXPECT_GT(bound, previous_bound) << family << " bounds not ascending";
    EXPECT_GE(s.value, previous_count) << family << " cumulative counts not monotone";
    previous_bound = bound;
    previous_count = s.value;
    last_count = s.value;
    last_bound = bound;
    ++buckets;
  }
  ASSERT_GT(buckets, 0u) << "no buckets for " << family;
  EXPECT_TRUE(std::isinf(last_bound)) << family << " missing the +Inf bucket";
  EXPECT_DOUBLE_EQ(last_count, find_sample(samples, family + "_count"))
      << family << " +Inf bucket != _count";
}

TEST(Prometheus, NameManglingAndPrefix) {
  EXPECT_EQ(prometheus_name("serve.step_seconds"), "misusedet_serve_step_seconds");
  EXPECT_EQ(prometheus_name("lm.cluster.fit_seconds.0"), "misusedet_lm_cluster_fit_seconds_0");
  EXPECT_EQ(prometheus_name("weird-name with spaces"), "misusedet_weird_name_with_spaces");
}

TEST(Prometheus, CountersAndGaugesRenderWithTypes) {
  metrics().counter("test.prom.counter").reset();
  metrics().counter("test.prom.counter").inc(3);
  Gauge& g = metrics().gauge("test.prom.gauge");
  g.reset();
  g.set(9);
  g.set(4);
  std::ostringstream out;
  metrics().write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE misusedet_test_prom_counter_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE misusedet_test_prom_gauge gauge\n"), std::string::npos);
  const auto samples = parse_prometheus_text(text);
  EXPECT_DOUBLE_EQ(find_sample(samples, "misusedet_test_prom_counter_total"), 3.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, "misusedet_test_prom_gauge"), 4.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, "misusedet_test_prom_gauge_high_water"), 9.0);
}

TEST(Prometheus, HistogramKnownDistributionQuantilesAndBuckets) {
  HistogramMetric& h = metrics().histogram("test.prom.known", {1.0, 2.0, 4.0});
  h.reset();
  for (int i = 0; i < 50; ++i) h.record(0.5);  // (0, 1]
  for (int i = 0; i < 49; ++i) h.record(3.0);  // (2, 4]
  h.record(100.0);                             // overflow
  // p50: rank 50 lands exactly at the top of the first bucket; p99: rank
  // 99 at the top of the (2, 4] bucket (both from linear interpolation).
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);

  std::ostringstream out;
  metrics().write_prometheus(out);
  const auto samples = parse_prometheus_text(out.str());
  const std::string family = "misusedet_test_prom_known";
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_bucket", "{le=\"1\"}"), 50.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_bucket", "{le=\"2\"}"), 50.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_bucket", "{le=\"4\"}"), 99.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_bucket", "{le=\"+Inf\"}"), 100.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_count"), 100.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_sum"), 50 * 0.5 + 49 * 3.0 + 100.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_summary", "{quantile=\"0.5\"}"), 1.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, family + "_summary", "{quantile=\"0.99\"}"), 4.0);
  expect_bucket_invariants(samples, family);
}

TEST(Prometheus, EveryHistogramFamilyKeepsBucketInvariants) {
  metrics().histogram("test.prom.sweep_a", {0.1, 0.2}).record(0.15);
  HistogramMetric& b = metrics().histogram("test.prom.sweep_b", {1.0, 8.0, 64.0});
  b.record(0.5);
  b.record(9.0);
  b.record(1e9);
  std::ostringstream out;
  metrics().write_prometheus(out);
  const auto samples = parse_prometheus_text(out.str());
  // Collect family names from the _count samples and check each one.
  std::size_t families = 0;
  for (const auto& s : samples) {
    const std::string suffix = "_count";
    if (s.name.size() <= suffix.size() ||
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string family = s.name.substr(0, s.name.size() - suffix.size());
    const std::string summary = "_summary";
    if (family.size() > summary.size() &&
        family.compare(family.size() - summary.size(), summary.size(), summary) == 0) {
      continue;  // the summary companion has no buckets
    }
    expect_bucket_invariants(samples, family);
    ++families;
  }
  EXPECT_GE(families, 2u);
}

TEST(Prometheus, ScrapeUnderConcurrentWritersStaysConsistent) {
  HistogramMetric& h = metrics().histogram("test.prom.torn", {0.001, 0.01, 0.1, 1.0});
  h.reset();
  Counter& c = metrics().counter("test.prom.torn_counter");
  c.reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&h, &c, &stop, w] {
      double v = 0.0001 * (w + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        c.inc();
        v = v < 1.0 ? v * 1.7 : 0.0001 * (w + 1);
      }
    });
  }
  // Every scrape taken mid-flight must satisfy the histogram contract:
  // the exposition renders from one copy of the bucket counts, so torn
  // reads can never surface as non-monotone buckets or +Inf != _count.
  for (int scrape = 0; scrape < 25; ++scrape) {
    std::ostringstream out;
    metrics().write_prometheus(out);
    const auto samples = parse_prometheus_text(out.str());
    expect_bucket_invariants(samples, "misusedet_test_prom_torn");
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

// --- Snapshot / delta ----------------------------------------------------

TEST(MetricsSnapshotTest, CapturesInstrumentsWithInfBucket) {
  metrics().counter("test.snap.counter").reset();
  metrics().counter("test.snap.counter").inc(7);
  metrics().gauge("test.snap.gauge").set(-3);
  HistogramMetric& h = metrics().histogram("test.snap.hist", {1.0, 2.0});
  h.reset();
  h.record(0.5);
  h.record(5.0);
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_GT(snap.at_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("test.snap.counter"), 7.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.snap.gauge"), -3.0);
  const auto& hist = snap.histograms.at("test.snap.hist");
  EXPECT_DOUBLE_EQ(hist.count, 2.0);
  ASSERT_EQ(hist.cumulative.size(), 3u);
  EXPECT_TRUE(std::isinf(hist.cumulative.back().first));
  EXPECT_DOUBLE_EQ(hist.cumulative.back().second, hist.count);
}

TEST(MetricsDeltaTest, RatesAndResetClamping) {
  MetricsSnapshot earlier;
  MetricsSnapshot later;
  earlier.at_seconds = 10.0;
  later.at_seconds = 12.0;
  earlier.counters["steps_total"] = 100.0;
  later.counters["steps_total"] = 300.0;
  earlier.counters["restarted_total"] = 50.0;
  later.counters["restarted_total"] = 5.0;  // scrape target restarted
  later.gauges["depth"] = 7.0;
  const MetricsDelta delta(earlier, later);
  EXPECT_DOUBLE_EQ(delta.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(delta.counter_delta("steps_total"), 200.0);
  EXPECT_DOUBLE_EQ(delta.rate("steps_total"), 100.0);
  EXPECT_DOUBLE_EQ(delta.counter_delta("restarted_total"), 0.0);  // clamped, not negative
  EXPECT_DOUBLE_EQ(delta.gauge("depth"), 7.0);
  EXPECT_DOUBLE_EQ(delta.counter_delta("never_seen_total"), 0.0);
}

TEST(MetricsDeltaTest, IntervalQuantileUsesBucketDeltasNotLifetime) {
  const double inf = std::numeric_limits<double>::infinity();
  MetricsSnapshot earlier;
  MetricsSnapshot later;
  earlier.at_seconds = 0.0;
  later.at_seconds = 1.0;
  // Lifetime history: 10 samples in (0, 1]. Interval: 20 samples, all in
  // (1, 2] — the interval quantile must come from the new bucket only.
  earlier.histograms["lat"].count = 10.0;
  earlier.histograms["lat"].cumulative = {{1.0, 10.0}, {2.0, 10.0}, {inf, 10.0}};
  later.histograms["lat"].count = 30.0;
  later.histograms["lat"].cumulative = {{1.0, 10.0}, {2.0, 30.0}, {inf, 30.0}};
  const MetricsDelta delta(earlier, later);
  EXPECT_DOUBLE_EQ(delta.histogram_count_delta("lat"), 20.0);
  EXPECT_DOUBLE_EQ(delta.histogram_quantile("lat", 0.5), 1.5);
  EXPECT_NEAR(delta.histogram_quantile("lat", 0.99), 1.99, 1e-9);
  // A lifetime quantile over `later` alone would sit near 1.0/2.0 split;
  // the interval p50 of 1.5 proves the earlier curve was subtracted.
}

TEST(MetricsDeltaTest, OverflowGrowthReportsLastFiniteBound) {
  const double inf = std::numeric_limits<double>::infinity();
  MetricsSnapshot earlier;
  MetricsSnapshot later;
  earlier.at_seconds = 0.0;
  later.at_seconds = 1.0;
  earlier.histograms["lat"].count = 0.0;
  earlier.histograms["lat"].cumulative = {{1.0, 0.0}, {inf, 0.0}};
  later.histograms["lat"].count = 4.0;
  later.histograms["lat"].cumulative = {{1.0, 0.0}, {inf, 4.0}};
  const MetricsDelta delta(earlier, later);
  EXPECT_DOUBLE_EQ(delta.histogram_quantile("lat", 0.5), 1.0);
  EXPECT_DOUBLE_EQ(delta.histogram_quantile("lat", 0.99), 1.0);
}

TEST(MetricsDeltaTest, IntervalMeanUsesSumAndCountDeltas) {
  MetricsSnapshot earlier;
  MetricsSnapshot later;
  earlier.histograms["batch"].count = 10.0;
  earlier.histograms["batch"].sum = 10.0;  // lifetime: batches of one
  later.histograms["batch"].count = 14.0;
  later.histograms["batch"].sum = 42.0;  // interval: 4 batches, 32 events
  const MetricsDelta delta(earlier, later);
  EXPECT_DOUBLE_EQ(delta.histogram_mean("batch"), 8.0);
  EXPECT_DOUBLE_EQ(MetricsDelta(later, later).histogram_mean("batch"), 0.0);
  EXPECT_DOUBLE_EQ(delta.histogram_mean("never_seen"), 0.0);
}

TEST(MetricsDeltaTest, EmptyIntervalQuantileIsZero) {
  const MetricsSnapshot snap = metrics().snapshot();
  const MetricsDelta delta(snap, snap);
  EXPECT_DOUBLE_EQ(delta.histogram_quantile("test.snap.hist", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(delta.rate("test.snap.counter"), 0.0);
}

}  // namespace
}  // namespace misuse
