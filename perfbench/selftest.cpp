// Harness self-tests, run at the start of every benchmark run: a run whose
// statistics are wrong reports nothing.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "self-test failed: " << what << "\n";
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_percentile_rule() {
  // Ten or more samples beyond the percentile: p99 needs 1000 samples.
  expect(top_percentile(19) == 0.0, "19 samples support no percentile");
  expect(top_percentile(20) == 50.0, "20 samples support the median");
  expect(top_percentile(100) == 90.0, "100 samples support p90");
  expect(top_percentile(999) == 90.0, "999 samples do not support p99");
  expect(top_percentile(1000) == 99.0, "1000 samples support p99");
  expect(top_percentile(10000) == 99.9, "10000 samples support p99.9");
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  expect(percentile(xs, 50) == 50.0, "nearest-rank median of 1..100");
  expect(percentile(xs, 99) == 99.0, "nearest-rank p99 of 1..100");
  expect(percentile(xs, 100) == 100.0, "p100 is the maximum");
  expect(percentile({}, 50) == 0.0, "empty sample");
  // One stalled window lifts only its own p99.
  std::vector<double> lat(3000, 1.0);
  for (int i = 0; i < 50; ++i) lat[1000 + i] = 250.0;
  expect(windowed_percentile(lat, 99, 1000) == 1.0, "windowed p99 ignores one stalled window");
  expect(percentile(lat, 99) == 250.0, "plain p99 sees the stall");
  expect(windowed_percentile(std::vector<double>(999, 1.0), 99, 1000) == 0.0,
         "no full window");
}

void test_detection_quality() {
  // Lower score = more suspicious.
  const std::vector<double> normal = {0.5, 0.6, 0.7, 0.8};
  expect(near(misuse_auc(normal, {0.1, 0.2}), 1.0), "separated sets give AUC 1");
  expect(near(misuse_auc(normal, {0.9, 1.0}), 0.0), "inverted sets give AUC 0");
  expect(near(misuse_auc(normal, {0.65}), 0.5), "a midpoint misuse gives AUC 1/2");
  expect(near(misuse_auc(normal, {0.6}), 0.625), "a tie counts one half");
  // 200 normal scores 1..200: 1% FAR allows two false alarms, so the
  // threshold is the third smallest normal score (3).
  std::vector<double> many;
  for (int i = 1; i <= 200; ++i) many.push_back(i);
  expect(near(detect_at_far(many, {0.5, 2.5, 3.0, 50.0}, 0.01), 0.5),
         "1% FAR threshold flags scores below the third smallest normal");
  expect(near(detect_at_far(many, {0.5}, 0.0), 1.0), "0% FAR still flags below the minimum");
  expect(near(detect_at_far(normal, {}, 0.01), 0.0), "no misuse scores");
}

void test_schedule() {
  const auto a = poisson_arrivals(1000.0, 2.0, 10.0, 42);
  const auto b = poisson_arrivals(1000.0, 2.0, 10.0, 42);
  expect(a == b, "arrivals repeat for one seed");
  expect(a != poisson_arrivals(1000.0, 2.0, 10.0, 43), "arrivals change with the seed");
  expect(!a.empty() && a.front() >= 2.0 && a.back() < 12.0, "arrivals stay in the window");
  expect(std::is_sorted(a.begin(), a.end()), "arrivals ascend");
  // 10000 expected; a Poisson count is within 5 sigma (500) of it.
  expect(std::fabs(static_cast<double>(a.size()) - 10000.0) < 500.0, "arrival rate");
  expect(poisson_arrivals(0.0, 0.0, 1.0, 1).empty(), "zero rate");
  const auto late = lateness({1.0, 2.0, 3.0}, {1.5, 1.9, 3.0});
  expect(late.size() == 3 && near(late[0], 0.5) && late[1] == 0.0 && late[2] == 0.0,
         "lateness is send minus due, never negative");
  // Completions every 1 ms, out of order, with one 200 ms stall.
  std::vector<double> done;
  for (int i = 0; i < 5000; ++i) done.push_back(0.001 * i + (i >= 2500 ? 0.2 : 0.0));
  std::reverse(done.begin(), done.end());
  expect(near(windowed_rate(done, 1000), 1000.0, 1e-6), "a stall slows one window of completions");
  expect(windowed_rate(std::vector<double>(done.begin(), done.begin() + 1000), 1000) == 0.0,
         "no full window of completions");
}

void test_self_time() {
  SpanLog log;
  log.set_enabled(true);
  const auto root = log.add("event", SpanLog::kNone, 1, 0, 10'000);
  const auto child = log.add("submit", root, 1, 1'000, 7'000);
  log.add("observe", child, 1, 2'000, 6'000);
  const auto totals = log.totals();
  expect(near(totals.at("event").self_seconds, 4e-6), "root self time");
  expect(near(totals.at("submit").self_seconds, 2e-6), "child self time");
  expect(near(totals.at("observe").self_seconds, 4e-6), "leaf self time");
  log.add("event", SpanLog::kNone, 2, 20'000, 23'000);
  const auto by_id = log.self_by_id();
  expect(by_id.at("event").size() == 2 && near(by_id.at("event").at(1), 4e-6) &&
             near(by_id.at("event").at(2), 3e-6),
         "self time per event id");
  SpanLog off;
  expect(off.add("x", SpanLog::kNone, 0, 0, 1) == SpanLog::kNone && off.size() == 0,
         "a disabled log records nothing");
}

}  // namespace

int run_selftests() {
  g_failures = 0;
  test_percentile_rule();
  test_detection_quality();
  test_schedule();
  test_self_time();
  return g_failures;
}

}  // namespace perfbench
