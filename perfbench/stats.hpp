// Statistics the benchmark reports: the percentile rule, detection
// quality at a fixed false-alarm rate, and open-loop schedule arithmetic.
// Kept free of I/O so selftest.cpp can check them on hand-built inputs.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty. Unlike misuse::percentile it never interpolates, so the figure
/// is an observed latency and the ten-beyond rule counts whole samples.
double percentile(std::vector<double> xs, double p);

/// The highest percentile among 50, 90, 99, 99.9 and 99.99 that has at
/// least ten samples beyond it in a sample of `n`; 0 when even the
/// median has fewer than ten samples above it.
double top_percentile(std::size_t n);

/// Percentile p of each consecutive window of `window` samples (in
/// arrival order; a short tail window is dropped), then the median over
/// windows: one stall of the host lifts one window, not the figure. 0
/// when there is no full window.
double windowed_percentile(const std::vector<double>& xs, double p, std::size_t window);

/// Area under the ROC curve when a *lower* score is more suspicious:
/// P(misuse < normal), ties counting one half (Mann-Whitney U / n1 n0).
double misuse_auc(const std::vector<double>& normal, const std::vector<double>& misuse);

/// Fraction of misuse scores flagged by the threshold that flags at most
/// `far` of the normal scores (flag := score strictly below threshold).
double detect_at_far(const std::vector<double>& normal, const std::vector<double>& misuse,
                     double far);

/// Start times of a Poisson process of `rate` arrivals per second over
/// [t0, t0 + duration), ascending.
std::vector<double> poisson_arrivals(double rate, double t0, double duration, std::uint64_t seed);

/// Lateness of an open-loop generator: send time minus due time per
/// event, clamped at zero (an early send is not late).
std::vector<double> lateness(const std::vector<double>& due, const std::vector<double>& sent);

/// Completion rate of a saturated system: the times (any order) are
/// sorted, each run of `window` intervals between consecutive ones gives
/// window ÷ its length, and the median over runs is returned (a short
/// tail is dropped). One stall of the host slows one run, not the figure.
/// 0 when there is no full run.
double windowed_rate(std::vector<double> times, std::size_t window);

}  // namespace perfbench
