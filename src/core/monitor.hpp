// OnlineMonitor: the paper's realtime use case (§IV-C). A session is
// analyzed action by action "in order to give an alarm for security
// operators as soon as some suspicious behavior is observed".
//
// Two cluster-selection strategies are tracked simultaneously, matching
// the two baselines of Fig. 7:
//   * argmax: the model of the cluster with the maximal OC-SVM score at
//     the current step, re-predicted every step;
//   * voted: the cluster frozen after a majority vote over the first 15
//     actions (the dataset's average session length), the paper's fix for
//     OC-SVM scores collapsing on long sessions (Fig. 6).
//
// Alarm policy: a step alarms when the voted-model likelihood of the
// observed action falls below `alarm_likelihood`, or when the moving
// average over `trend_window` steps drops by more than `trend_drop`
// relative to the previous window (the trend detection the paper proposes
// in §V as an improvement over reacting to every low score).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/detector.hpp"

namespace misuse::core {

struct MonitorConfig {
  double alarm_likelihood = 0.02;  // immediate alarm threshold
  std::size_t trend_window = 8;    // moving-average window (actions)
  double trend_drop = 0.5;         // alarm when the average halves
  std::size_t explain_top_k = 3;   // expected actions reported on alarms
};

/// Detects a sustained drop in a likelihood stream: fires when the mean
/// of the last `window` values falls below (1 - drop) times the mean of
/// the `window` values before them. Extracted from the monitor so the
/// §V trend-alarm proposal is testable in isolation.
class TrendDetector {
 public:
  TrendDetector(std::size_t window, double drop) : window_(window), drop_(drop) {}

  /// Feeds one value; returns true when the drop condition holds.
  bool push(double value);
  void reset() { history_.clear(); }
  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  double drop_;
  std::vector<double> history_;
};

class OnlineMonitor {
 public:
  OnlineMonitor(const MisuseDetector& detector, const MonitorConfig& config);

  /// One of the actions the voted model expected at this step — surfaced
  /// on alarms so the operator sees *what normal would have looked like*
  /// (addressing the semantic-gap complaint of Sommer & Paxson that the
  /// paper cites in SS I).
  struct ExpectedAction {
    int action = 0;
    double probability = 0.0;
  };

  struct StepResult {
    std::size_t step = 0;  // 1-based index of the observed action
    /// OC-SVM scores of every cluster on the current prefix.
    std::vector<double> ocsvm_scores;
    std::size_t cluster_argmax = 0;
    std::size_t cluster_voted = 0;
    /// Likelihood the respective strategy's model assigned to this action
    /// *before* observing it; absent for the first action.
    std::optional<double> likelihood_argmax;
    std::optional<double> likelihood_voted;
    bool alarm = false;
    bool trend_alarm = false;
    /// True when the voted cluster is served by its Markov fallback
    /// because the LSTM section of the archive was corrupt (degraded
    /// mode, core/detector.hpp). Surfaced so downstream consumers can
    /// weigh these verdicts differently.
    bool degraded = false;
    /// On alarm: the top expected actions under the voted model at this
    /// step (empty otherwise).
    std::vector<ExpectedAction> expected;
  };

  /// Feeds one observed action: observe_batch over this one monitor.
  StepResult observe(int action);

  /// The monitor's one entry point. Feeds one action into each of
  /// `monitors` (all built over `detector`), writing monitors[i]'s step
  /// result for actions[i] into results[i]. The cluster-model advance
  /// runs as one batched forward per cluster across all monitors (the
  /// inference engine's step_batch), and only the distributions the
  /// next step reads (argmax and voted cluster) ever get a head +
  /// softmax. This is bit-identical to feeding the monitors one at a
  /// time, in any batch composition — sessions only share read-only
  /// weights.
  static void observe_batch(const MisuseDetector& detector,
                            std::span<OnlineMonitor* const> monitors,
                            std::span<const int> actions, std::span<StepResult> results);

  /// Starts a new session.
  void reset();

  std::size_t steps() const { return step_; }

 private:
  /// The routing/alarm half of a step: consumes the *previous* step's
  /// distributions, bumps step_. observe_batch then advances the models.
  StepResult begin_step(int action);
  /// next_distributions_[c], materializing it first if the last advance
  /// deferred this cluster's head + softmax (dist_ready_[c] == 0).
  const std::vector<float>& current_dist(std::size_t c);
  void record_step(const StepResult& result, double seconds);

  const MisuseDetector& detector_;
  MonitorConfig config_;
  cluster::ClusterAssigner::OnlineAssignment assignment_;
  /// One streaming state and one next-action distribution per cluster
  /// model, advanced in lockstep so either strategy can read its
  /// prediction at any step. ClusterState routes degraded clusters to
  /// their Markov fallback transparently.
  std::vector<MisuseDetector::ClusterState> states_;
  std::vector<std::vector<float>> next_distributions_;
  /// Per cluster: whether next_distributions_[c] reflects the state's
  /// last advance. observe_batch defers heads the routing half never
  /// reads — begin_step only ever consumes the argmax and voted
  /// clusters' distributions, so the other clusters' head + softmax work
  /// is skipped entirely.
  std::vector<std::uint8_t> dist_ready_;
  TrendDetector trend_;
  std::size_t step_ = 0;
};

/// Whole-session summary of one monitored session in a batch evaluation.
struct SessionMonitorReport {
  std::size_t steps = 0;
  std::size_t alarms = 0;        // steps whose StepResult alarmed
  std::size_t trend_alarms = 0;  // steps where the trend detector fired
  /// Steps where the argmax and voted strategies chose different clusters
  /// (the disagreement Fig. 7 contrasts; also tracked globally as the
  /// monitor.disagree_steps counter).
  std::size_t disagree_steps = 0;
  /// 1-based step of the first alarm, if any.
  std::optional<std::size_t> first_alarm_step;
  /// Voted cluster at the end of the session.
  std::size_t voted_cluster = 0;
  /// True when any step of the session was scored by a degraded
  /// (Markov-fallback) voted cluster.
  bool degraded = false;
  /// Mean voted-model likelihood over the scored steps (steps >= 2); the
  /// session's normality estimate under the online regime.
  double avg_likelihood_voted = 0.0;
};

/// Folds a stream of StepResults into a SessionMonitorReport. Extracted
/// from monitor_sessions so every consumer of the online regime — the
/// offline batch replay below and the streaming server's session shards
/// (serve/session_table.hpp) — derives end-of-session reports from the
/// exact same accumulation, keeping the two paths bit-identical.
class SessionAccumulator {
 public:
  /// Folds one observed step (steps must arrive in order).
  void add(const OnlineMonitor::StepResult& step);

  /// Report over the steps added so far (callable repeatedly).
  SessionMonitorReport report() const;

  std::size_t steps() const { return report_.steps; }

 private:
  SessionMonitorReport report_;
  double likelihood_sum_ = 0.0;
  std::size_t scored_steps_ = 0;
};

/// Replays every session through its own OnlineMonitor, fanning the
/// independent sessions out over the global thread pool (each task owns
/// one monitor and one output slot, so reports are index-ordered and
/// bit-identical to a serial replay). This is the batch-evaluation path:
/// the figure benches and threat-hunting sweeps score thousands of
/// recorded sessions at once.
std::vector<SessionMonitorReport> monitor_sessions(
    const MisuseDetector& detector, const MonitorConfig& config,
    std::span<const std::span<const int>> sessions);

}  // namespace misuse::core
