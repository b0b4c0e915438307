#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  // The epsilon keeps p/100 * n from rounding up past an exact rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()) - 1e-9);
  const std::size_t k =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(xs.size()))) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return xs[k];
}

double top_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the nearest-rank position of p.
    const double beyond =
        static_cast<double>(n) - std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (beyond >= 10.0) best = p;
  }
  return best;
}

double windowed_percentile(const std::vector<double>& xs, double p, std::size_t window) {
  std::vector<double> per_window;
  for (std::size_t b = 0; window > 0 && b + window <= xs.size(); b += window) {
    per_window.push_back(percentile(std::vector<double>(xs.begin() + static_cast<std::ptrdiff_t>(b),
                                                        xs.begin() + static_cast<std::ptrdiff_t>(b + window)),
                                    p));
  }
  return per_window.empty() ? 0.0 : misuse::median(per_window);
}

double misuse_auc(const std::vector<double>& normal, const std::vector<double>& misuse) {
  if (normal.empty() || misuse.empty()) return 0.0;
  std::vector<double> sorted = normal;
  std::sort(sorted.begin(), sorted.end());
  double wins = 0.0;
  for (const double m : misuse) {
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), m);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), m);
    wins += static_cast<double>(sorted.end() - hi) + 0.5 * static_cast<double>(hi - lo);
  }
  return wins / (static_cast<double>(normal.size()) * static_cast<double>(misuse.size()));
}

double detect_at_far(const std::vector<double>& normal, const std::vector<double>& misuse,
                     double far) {
  if (normal.empty() || misuse.empty()) return 0.0;
  std::vector<double> sorted = normal;
  std::sort(sorted.begin(), sorted.end());
  // At most k normal scores may fall strictly below the threshold; the
  // largest such threshold is the (k+1)-th smallest normal score.
  const auto k = static_cast<std::size_t>(std::floor(far * static_cast<double>(sorted.size())));
  const double threshold =
      k < sorted.size() ? sorted[k] : std::numeric_limits<double>::infinity();
  const auto flagged =
      std::count_if(misuse.begin(), misuse.end(), [&](double m) { return m < threshold; });
  return static_cast<double>(flagged) / static_cast<double>(misuse.size());
}

std::vector<double> poisson_arrivals(double rate, double t0, double duration, std::uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0 || duration <= 0.0) return out;
  misuse::Rng rng(seed);
  double t = t0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= t0 + duration) break;
    out.push_back(t);
  }
  return out;
}

std::vector<double> lateness(const std::vector<double>& due, const std::vector<double>& sent) {
  std::vector<double> out(std::min(due.size(), sent.size()));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::max(0.0, sent[i] - due[i]);
  return out;
}

double windowed_rate(std::vector<double> times, std::size_t window) {
  std::sort(times.begin(), times.end());
  std::vector<double> per_window;
  for (std::size_t b = 0; window > 0 && b + window < times.size(); b += window) {
    const double span = times[b + window] - times[b];
    if (span > 0.0) per_window.push_back(static_cast<double>(window) / span);
  }
  return per_window.empty() ? 0.0 : misuse::median(per_window);
}

}  // namespace perfbench
