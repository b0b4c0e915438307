#include "core/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "core/observability.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace misuse::core {

bool TrendDetector::push(double value) {
  history_.push_back(value);
  if (history_.size() < 2 * window_) return false;
  const auto end = history_.end();
  const double recent =
      std::accumulate(end - static_cast<std::ptrdiff_t>(window_), end, 0.0) /
      static_cast<double>(window_);
  const double previous = std::accumulate(end - static_cast<std::ptrdiff_t>(2 * window_),
                                          end - static_cast<std::ptrdiff_t>(window_), 0.0) /
                          static_cast<double>(window_);
  return previous > 0.0 && recent < previous * (1.0 - drop_);
}

OnlineMonitor::OnlineMonitor(const MisuseDetector& detector, const MonitorConfig& config)
    : detector_(detector),
      config_(config),
      assignment_(detector.assigner().start_online()),
      trend_(config.trend_window, config.trend_drop) {
  states_.reserve(detector.cluster_count());
  next_distributions_.resize(detector.cluster_count());
  dist_ready_.assign(detector.cluster_count(), 1);
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    states_.push_back(detector.make_cluster_state(c));
  }
  monitor_metrics().sessions.inc();
}

void OnlineMonitor::reset() {
  assignment_.reset();
  for (std::size_t c = 0; c < states_.size(); ++c) {
    states_[c].reset();
    next_distributions_[c].clear();
    dist_ready_[c] = 1;
  }
  trend_.reset();
  step_ = 0;
  monitor_metrics().sessions.inc();
}

OnlineMonitor::StepResult OnlineMonitor::observe(int action) {
  OnlineMonitor* self = this;
  StepResult result;
  observe_batch(detector_, std::span<OnlineMonitor* const>(&self, 1),
                std::span<const int>(&action, 1), std::span<StepResult>(&result, 1));
  return result;
}

OnlineMonitor::StepResult OnlineMonitor::begin_step(int action) {
  assert(action >= 0 && static_cast<std::size_t>(action) < detector_.vocab().size());
  StepResult result;
  result.step = ++step_;

  // Cluster routing on the prefix including this action.
  result.ocsvm_scores = assignment_.push(action);
  result.cluster_argmax = assignment_.current_argmax();
  result.cluster_voted = assignment_.voted_cluster();
  result.degraded = detector_.cluster_degraded(result.cluster_voted);

  // Likelihood of this action under each strategy's model, using the
  // distributions predicted at the previous step.
  if (step_ > 1) {
    const auto likelihood_of = [&](std::size_t c) {
      const auto& dist = current_dist(c);
      assert(!dist.empty());
      return static_cast<double>(dist[static_cast<std::size_t>(action)]);
    };
    result.likelihood_argmax = likelihood_of(result.cluster_argmax);
    result.likelihood_voted = likelihood_of(result.cluster_voted);

    // Alarm policy on the voted strategy (the deployable one).
    const double voted = *result.likelihood_voted;
    if (voted < config_.alarm_likelihood) result.alarm = true;
    if (trend_.push(voted)) {
      result.trend_alarm = true;
      result.alarm = true;
    }

    // Explain alarms: what the voted model expected instead.
    if (result.alarm && config_.explain_top_k > 0) {
      const auto& dist = current_dist(result.cluster_voted);
      std::vector<std::size_t> order(dist.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      const std::size_t k = std::min(config_.explain_top_k, order.size());
      std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                        order.end(),
                        [&dist](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
      for (std::size_t i = 0; i < k; ++i) {
        result.expected.push_back(
            {static_cast<int>(order[i]), static_cast<double>(dist[order[i]])});
      }
    }
  }

  return result;
}

const std::vector<float>& OnlineMonitor::current_dist(std::size_t c) {
  if (dist_ready_[c] == 0) {
    detector_.materialize_cluster_dist(c, states_[c], next_distributions_[c]);
    dist_ready_[c] = 1;
  }
  return next_distributions_[c];
}

void OnlineMonitor::record_step(const StepResult& result, double seconds) {
  MonitorMetrics& mm = monitor_metrics();
  mm.steps.inc();
  if (result.alarm) mm.alarms.inc();
  if (result.trend_alarm) mm.trend_alarms.inc();
  if (result.cluster_argmax != result.cluster_voted) mm.disagree_steps.inc();
  mm.observe_seconds.record(seconds);
}

void OnlineMonitor::observe_batch(const MisuseDetector& detector,
                                  std::span<OnlineMonitor* const> monitors,
                                  std::span<const int> actions,
                                  std::span<StepResult> results) {
  assert(monitors.size() == actions.size() && monitors.size() == results.size());
  if (monitors.empty()) return;
  // Per-step telemetry is counters + one histogram record — tens of ns,
  // well inside the monitor's <5% overhead budget (see DESIGN.md). The
  // Timer only runs when recording is on.
  const bool record = metrics_enabled();
  std::optional<Timer> batch_timer;
  if (record) batch_timer.emplace();
  // Routing/alarm halves first (independent per monitor), then one fused
  // model advance per cluster across the whole batch.
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    assert(&monitors[i]->detector_ == &detector);
    results[i] = monitors[i]->begin_step(actions[i]);
  }
  // Per-thread row staging, reused across calls (the serving hot path
  // runs one batch per epoll wakeup).
  struct Rows {
    std::vector<MisuseDetector::ClusterState*> states;
    std::vector<std::vector<float>*> outs;
    std::vector<std::uint8_t> ready;
  };
  thread_local Rows rows;
  rows.states.resize(monitors.size());
  rows.outs.resize(monitors.size());
  rows.ready.resize(monitors.size());
  // Let the engine defer head + softmax per row: next step's begin_step
  // only reads the argmax and voted clusters' distributions (usually one
  // cluster), and current_dist materializes those on demand.
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      rows.states[i] = &monitors[i]->states_[c];
      rows.outs[i] = &monitors[i]->next_distributions_[c];
    }
    detector.step_cluster_batch(c, rows.states, actions, rows.outs, rows.ready);
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      monitors[i]->dist_ready_[c] = rows.ready[i];
    }
  }
  if (record) {
    const double per_step = batch_timer->seconds() / static_cast<double>(monitors.size());
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      monitors[i]->record_step(results[i], per_step);
    }
  }
}

void SessionAccumulator::add(const OnlineMonitor::StepResult& step) {
  report_.steps = step.step;
  if (step.alarm) {
    ++report_.alarms;
    if (!report_.first_alarm_step) report_.first_alarm_step = step.step;
  }
  if (step.trend_alarm) ++report_.trend_alarms;
  if (step.degraded) report_.degraded = true;
  if (step.cluster_argmax != step.cluster_voted) ++report_.disagree_steps;
  if (step.likelihood_voted) {
    likelihood_sum_ += *step.likelihood_voted;
    ++scored_steps_;
  }
  report_.voted_cluster = step.cluster_voted;
}

SessionMonitorReport SessionAccumulator::report() const {
  SessionMonitorReport report = report_;
  if (scored_steps_ > 0) {
    report.avg_likelihood_voted = likelihood_sum_ / static_cast<double>(scored_steps_);
  }
  return report;
}

std::vector<SessionMonitorReport> monitor_sessions(
    const MisuseDetector& detector, const MonitorConfig& config,
    std::span<const std::span<const int>> sessions) {
  std::vector<SessionMonitorReport> reports(sessions.size());
  Span batch_span("monitor.batch");
  // Sessions are independent streams: each task replays one session
  // through a private monitor (the shared detector is only read) and
  // fills its own report slot.
  global_pool().parallel_for(0, sessions.size(), [&](std::size_t s) {
    Span session_span("monitor.session");
    OnlineMonitor monitor(detector, config);
    SessionAccumulator acc;
    for (const int action : sessions[s]) acc.add(monitor.observe(action));
    reports[s] = acc.report();
  });
  return reports;
}

}  // namespace misuse::core
