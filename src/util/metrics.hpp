// Process-global metrics registry: named counters, gauges, and
// fixed-bucket histograms for the pipeline's instrument panel. The hot
// path is lock-free — recording is a handful of relaxed atomic updates —
// while registration (name -> instrument lookup) takes a mutex and is
// meant to happen once per call site, not per event. Quantiles are
// estimated at read time from the bucket counts, so recording never
// sorts or allocates.
//
// Naming scheme (see DESIGN.md "Observability"): lowercase dot-separated
// paths, coarse-to-fine ("monitor.alarms", "pool.tasks_executed"), with
// a unit suffix on time-valued instruments ("_nanos", "_seconds").
//
// The global enabled flag (set_metrics_enabled) gates *recording* only:
// reads, registration, and trace spans (util/trace.hpp) stay live, so a
// benchmark can measure the instrumented-vs-bare cost of a hot path
// while still timing both sides with spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace misuse {

class JsonWriter;

/// Recording on/off switch (default on). Relaxed-atomic; safe to flip
/// from any thread, though mid-flight events may land on either side.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-set value plus its high-water mark (e.g. queue depth).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v);
  void add(std::int64_t delta);
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const { return high_water_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void reset();

 private:
  void raise_high_water(std::int64_t v);

  std::string name_;
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// `count` upper bounds growing geometrically from `start` by `factor`.
std::vector<double> exponential_buckets(double start, double factor, std::size_t count);

/// Default bounds for latency-in-seconds histograms: 1us .. ~134s, x2.
const std::vector<double>& latency_buckets();

/// Fixed-bucket histogram. Bucket i counts values <= bounds[i] (first
/// matching bound wins); values above the last bound land in an overflow
/// bucket. Bounds are fixed at registration, so recording is one binary
/// search plus two relaxed atomic adds.
class HistogramMetric {
 public:
  HistogramMetric(std::string name, std::vector<double> bounds);
  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void record(double value);

  std::uint64_t count() const;
  double sum() const;
  /// Linear-interpolated quantile estimate, q in [0, 1]. Returns 0 for an
  /// empty histogram; values in the overflow bucket report the last bound.
  double quantile(double q) const;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// bounds().size() regular buckets + 1 overflow bucket.
  std::size_t buckets() const { return bounds_.size() + 1; }
  void reset();

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Prometheus exposition name for a dotted instrument path: characters
/// outside [a-zA-Z0-9_:] become underscores and every family gets a
/// "misusedet_" prefix ("serve.step_seconds" -> "misusedet_serve_step_seconds").
std::string prometheus_name(std::string_view name);

/// Point-in-time copy of every instrument, stamped with a monotonic
/// clock so two snapshots taken seconds apart can be turned into
/// interval rates and quantiles (MetricsDelta). Snapshots are built
/// either from the local registry (MetricsRegistry::snapshot) or from
/// scraped Prometheus text (misusedet_top), so values are doubles and
/// names follow whichever naming scheme the source used.
struct MetricsSnapshot {
  struct Histogram {
    double count = 0.0;
    double sum = 0.0;
    /// (upper bound, cumulative count of values <= bound), ascending,
    /// with the +Inf bucket (bound == infinity) last.
    std::vector<std::pair<double, double>> cumulative;
  };

  double at_seconds = 0.0;  ///< steady-clock stamp, seconds
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
};

/// Difference between two snapshots of the same source. Counter deltas
/// are clamped at zero (a restarted scrape target resets to zero), and
/// histogram quantiles are interpolated from the bucket-count deltas,
/// so a 1 Hz poller reads "p99 over the last interval" rather than a
/// lifetime quantile that stops moving once the process has history.
class MetricsDelta {
 public:
  MetricsDelta(MetricsSnapshot earlier, MetricsSnapshot later);

  double seconds() const { return seconds_; }
  /// later - earlier, clamped at 0; 0 for names absent from `later`.
  double counter_delta(const std::string& name) const;
  /// counter_delta / seconds; 0 when the interval is empty.
  double rate(const std::string& name) const;
  /// Latest gauge value; 0 for unknown names.
  double gauge(const std::string& name) const;
  double histogram_count_delta(const std::string& name) const;
  /// Mean of the values recorded in the interval (sum delta / count
  /// delta); 0 when nothing was recorded.
  double histogram_mean(const std::string& name) const;
  /// Interval quantile (q in [0, 1]) interpolated from bucket deltas;
  /// 0 when nothing was recorded in the interval.
  double histogram_quantile(const std::string& name, double q) const;

 private:
  double seconds_ = 0.0;
  MetricsSnapshot earlier_;
  MetricsSnapshot later_;
};

/// Name -> instrument map. Lookups are mutex-guarded; hold the returned
/// reference at the call site (instruments live for the whole process,
/// reset() zeroes values but never invalidates references).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers with the given bounds on first sight; later calls return
  /// the existing histogram and ignore `bounds`.
  HistogramMetric& histogram(std::string_view name, const std::vector<double>& bounds = latency_buckets());

  /// Zeroes every instrument (tests/benchmarks); references stay valid.
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// name-sorted members; histogram entries carry count/sum/mean,
  /// p50/p90/p99 estimates, and the non-empty buckets.
  void write_json(JsonWriter& json) const;

  /// Prometheus text exposition format (0.0.4): counters as
  /// `<name>_total`, gauges as the value plus a `_high_water` companion,
  /// histograms as cumulative `_bucket{le="..."}` / `_sum` / `_count`
  /// families plus a `<name>_summary` quantile family (p50/p90/p99).
  /// Each histogram renders from one consistent copy of its bucket
  /// counts, so cumulative counts are monotone and the `+Inf` bucket
  /// equals `_count` even while writers are recording.
  void write_prometheus(std::ostream& out) const;

  /// Consistent point-in-time copy of every instrument under the
  /// registry mutex, stamped with a steady-clock timestamp.
  MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  using NameMap = std::vector<std::pair<std::string, std::unique_ptr<T>>>;  // sorted by name

  mutable std::mutex mutex_;
  NameMap<Counter> counters_;
  NameMap<Gauge> gauges_;
  NameMap<HistogramMetric> histograms_;
};

/// The process-global registry (never destroyed, so instruments outlive
/// worker threads that record into them during shutdown).
MetricsRegistry& metrics();

}  // namespace misuse
