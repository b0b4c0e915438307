#include "util/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "util/json.hpp"

namespace misuse {

namespace {
std::atomic<bool> g_metrics_enabled{true};

void atomic_add_double(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// --- Gauge -------------------------------------------------------------

void Gauge::raise_high_water(std::int64_t v) {
  std::int64_t seen = high_water_.load(std::memory_order_relaxed);
  while (v > seen && !high_water_.compare_exchange_weak(seen, v, std::memory_order_relaxed,
                                                        std::memory_order_relaxed)) {
  }
}

void Gauge::set(std::int64_t v) {
  if (!metrics_enabled()) return;
  value_.store(v, std::memory_order_relaxed);
  raise_high_water(v);
}

void Gauge::add(std::int64_t delta) {
  if (!metrics_enabled()) return;
  const std::int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_high_water(now);
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
}

// --- HistogramMetric ---------------------------------------------------------

std::vector<double> exponential_buckets(double start, double factor, std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

const std::vector<double>& latency_buckets() {
  static const std::vector<double> bounds = exponential_buckets(1e-6, 2.0, 28);
  return bounds;
}

HistogramMetric::HistogramMetric(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  // Bounds must be strictly ascending for the binary search; a misuse
  // here is a programming error, so just sort/dedupe defensively.
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void HistogramMetric::record(double value) {
  if (!metrics_enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
}

std::uint64_t HistogramMetric::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double HistogramMetric::sum() const { return sum_.load(std::memory_order_relaxed); }

double HistogramMetric::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Rank of the requested quantile (1-based), then walk the cumulative
  // counts and interpolate linearly inside the bucket that crosses it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const std::uint64_t next = cumulative + in_bucket;
    if (rank <= static_cast<double>(next)) {
      if (i == bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void HistogramMetric::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------

namespace {
// Generic sorted-vector upsert shared by the three instrument kinds.
template <typename T, typename Make>
T& find_or_create(std::vector<std::pair<std::string, std::unique_ptr<T>>>& map,
                  std::string_view name, const Make& make) {
  const auto it = std::lower_bound(
      map.begin(), map.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != map.end() && it->first == name) return *it->second;
  return *map.insert(it, {std::string(name), make()})->second;
}
}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, name,
                        [&] { return std::make_unique<Counter>(std::string(name)); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(gauges_, name, [&] { return std::make_unique<Gauge>(std::string(name)); });
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, name,
                        [&] { return std::make_unique<HistogramMetric>(std::string(name), bounds); });
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(JsonWriter& json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  json.begin_object();

  json.key("counters");
  json.begin_object();
  for (const auto& [name, c] : counters_) json.member(name, c->value());
  json.end_object();

  json.key("gauges");
  json.begin_object();
  for (const auto& [name, g] : gauges_) {
    json.key(name);
    json.begin_object();
    json.member("value", static_cast<long long>(g->value()));
    json.member("high_water", static_cast<long long>(g->high_water()));
    json.end_object();
  }
  json.end_object();

  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : histograms_) {
    json.key(name);
    json.begin_object();
    const std::uint64_t n = h->count();
    json.member("count", n);
    json.member("sum", h->sum());
    json.member("mean", n > 0 ? h->sum() / static_cast<double>(n) : 0.0);
    json.member("p50", h->quantile(0.50));
    json.member("p90", h->quantile(0.90));
    json.member("p99", h->quantile(0.99));
    json.key("buckets");
    json.begin_array();
    for (std::size_t i = 0; i < h->buckets(); ++i) {
      const std::uint64_t in_bucket = h->bucket_count(i);
      if (in_bucket == 0) continue;  // sparse: empty buckets carry no information
      json.begin_object();
      if (i < h->bounds().size()) {
        json.member("le", h->bounds()[i]);
      } else {
        json.member("le", "inf");
      }
      json.member("count", in_bucket);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();

  json.end_object();
}

// --- Prometheus exposition ---------------------------------------------

std::string prometheus_name(std::string_view name) {
  std::string out = "misusedet_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  return out;
}

namespace {
// Prometheus floats: shortest round-trippable-ish decimal, with the
// spec's spellings for the non-finite values ("+Inf" bucket bounds).
void write_prom_value(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
    return;
  }
  if (std::isinf(v)) {
    out << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out << buf;
}
}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);

  for (const auto& [name, c] : counters_) {
    const std::string prom = prometheus_name(name) + "_total";
    out << "# TYPE " << prom << " counter\n";
    out << prom << ' ' << c->value() << '\n';
  }

  for (const auto& [name, g] : gauges_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << ' ' << g->value() << '\n';
    out << "# TYPE " << prom << "_high_water gauge\n";
    out << prom << "_high_water " << g->high_water() << '\n';
  }

  for (const auto& [name, h] : histograms_) {
    const std::string prom = prometheus_name(name);
    // One consistent copy of the bucket counts: writers may race the
    // scrape, but rendering from the copy keeps the cumulative counts
    // monotone and makes the +Inf bucket equal _count by construction.
    const std::vector<double>& bounds = h->bounds();
    std::vector<std::uint64_t> counts(h->buckets());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = h->bucket_count(i);
      total += counts[i];
    }

    out << "# TYPE " << prom << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      out << prom << "_bucket{le=\"";
      write_prom_value(out, i < bounds.size() ? bounds[i]
                                              : std::numeric_limits<double>::infinity());
      out << "\"} " << cumulative << '\n';
    }
    out << prom << "_sum ";
    write_prom_value(out, h->sum());
    out << '\n';
    out << prom << "_count " << total << '\n';

    // Companion summary family so scrapers that don't do bucket math
    // still get the headline quantiles.
    out << "# TYPE " << prom << "_summary summary\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      out << prom << "_summary{quantile=\"";
      write_prom_value(out, q);
      out << "\"} ";
      write_prom_value(out, h->quantile(q));
      out << '\n';
    }
    out << prom << "_summary_sum ";
    write_prom_value(out, h->sum());
    out << '\n';
    out << prom << "_summary_count " << total << '\n';
  }
}

// --- Snapshot / delta ---------------------------------------------------

namespace {
double steady_now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.at_seconds = steady_now_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = static_cast<double>(g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Histogram& hist = snap.histograms[name];
    const std::vector<double>& bounds = h->bounds();
    hist.cumulative.reserve(h->buckets());
    double cumulative = 0.0;
    for (std::size_t i = 0; i < h->buckets(); ++i) {
      cumulative += static_cast<double>(h->bucket_count(i));
      hist.cumulative.emplace_back(
          i < bounds.size() ? bounds[i] : std::numeric_limits<double>::infinity(), cumulative);
    }
    hist.count = cumulative;
    hist.sum = h->sum();
  }
  return snap;
}

MetricsDelta::MetricsDelta(MetricsSnapshot earlier, MetricsSnapshot later)
    : earlier_(std::move(earlier)), later_(std::move(later)) {
  seconds_ = std::max(0.0, later_.at_seconds - earlier_.at_seconds);
}

double MetricsDelta::counter_delta(const std::string& name) const {
  const auto it = later_.counters.find(name);
  if (it == later_.counters.end()) return 0.0;
  const auto prev = earlier_.counters.find(name);
  const double before = prev == earlier_.counters.end() ? 0.0 : prev->second;
  return std::max(0.0, it->second - before);
}

double MetricsDelta::rate(const std::string& name) const {
  if (seconds_ <= 0.0) return 0.0;
  return counter_delta(name) / seconds_;
}

double MetricsDelta::gauge(const std::string& name) const {
  const auto it = later_.gauges.find(name);
  return it == later_.gauges.end() ? 0.0 : it->second;
}

double MetricsDelta::histogram_count_delta(const std::string& name) const {
  const auto it = later_.histograms.find(name);
  if (it == later_.histograms.end()) return 0.0;
  const auto prev = earlier_.histograms.find(name);
  const double before = prev == earlier_.histograms.end() ? 0.0 : prev->second.count;
  return std::max(0.0, it->second.count - before);
}

double MetricsDelta::histogram_mean(const std::string& name) const {
  const double count = histogram_count_delta(name);
  if (count <= 0.0) return 0.0;
  const auto prev = earlier_.histograms.find(name);
  const double before = prev == earlier_.histograms.end() ? 0.0 : prev->second.sum;
  return std::max(0.0, later_.histograms.at(name).sum - before) / count;
}

double MetricsDelta::histogram_quantile(const std::string& name, double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto it = later_.histograms.find(name);
  if (it == later_.histograms.end()) return 0.0;
  const MetricsSnapshot::Histogram& now = it->second;
  const auto prev_it = earlier_.histograms.find(name);
  const MetricsSnapshot::Histogram* before =
      prev_it == earlier_.histograms.end() ? nullptr : &prev_it->second;

  // Per-bucket counts recorded during the interval: difference of the
  // two cumulative curves, matched by bucket index when the layouts
  // agree (same registry / same scrape target) and treated as growth
  // from zero otherwise.
  std::vector<double> in_bucket(now.cumulative.size(), 0.0);
  double total = 0.0;
  double prev_cum_now = 0.0;
  double prev_cum_before = 0.0;
  const bool aligned = before != nullptr && before->cumulative.size() == now.cumulative.size();
  for (std::size_t i = 0; i < now.cumulative.size(); ++i) {
    const double cum_now = now.cumulative[i].second;
    const double cum_before = aligned ? before->cumulative[i].second : 0.0;
    in_bucket[i] = std::max(0.0, (cum_now - prev_cum_now) - (cum_before - prev_cum_before));
    total += in_bucket[i];
    prev_cum_now = cum_now;
    prev_cum_before = cum_before;
  }
  if (total <= 0.0) return 0.0;

  const double rank = q * total;
  double cumulative = 0.0;
  double last_finite = 0.0;
  for (std::size_t i = 0; i < in_bucket.size(); ++i) {
    const double hi = now.cumulative[i].first;
    if (std::isfinite(hi)) last_finite = hi;
    if (in_bucket[i] <= 0.0) continue;
    const double next = cumulative + in_bucket[i];
    if (rank <= next) {
      if (!std::isfinite(hi)) return last_finite;  // overflow bucket: report the last bound
      const double lo = i == 0 ? 0.0 : now.cumulative[i - 1].first;
      const double within = (rank - cumulative) / in_bucket[i];
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return last_finite;
}

MetricsRegistry& metrics() {
  // Deliberately leaked (still reachable through this pointer): pool
  // workers may record into instruments while static destructors run, so
  // the registry must never be torn down before them.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace misuse
