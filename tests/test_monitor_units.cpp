// Unit tests of the online monitor's standalone pieces (the integration
// behaviour is covered against a trained pipeline in test_detector.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "synth/portal.hpp"

namespace misuse::core {
namespace {

TEST(TrendDetector, QuietBeforeTwoFullWindows) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(trend.push(1.0)) << "at step " << i;
  }
}

TEST(TrendDetector, NoAlarmOnFlatStream) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(trend.push(0.4));
}

TEST(TrendDetector, FiresOnSustainedDrop) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 8; ++i) trend.push(0.8);
  bool fired = false;
  for (int i = 0; i < 4; ++i) fired |= trend.push(0.1);  // mean halves and more
  EXPECT_TRUE(fired);
}

TEST(TrendDetector, IgnoresSingleOutlier) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 8; ++i) trend.push(0.8);
  EXPECT_FALSE(trend.push(0.01));  // one bad step can't halve a 4-mean
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(trend.push(0.8));
}

TEST(TrendDetector, RecoversAfterDrop) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 6; ++i) trend.push(0.9);
  for (int i = 0; i < 3; ++i) trend.push(0.1);  // fires somewhere in here
  // After the stream climbs back and stays, no more alarms.
  bool late_alarm = false;
  for (int i = 0; i < 12; ++i) {
    const bool fired = trend.push(0.9);
    if (i >= 6) late_alarm |= fired;
  }
  EXPECT_FALSE(late_alarm);
}

TEST(TrendDetector, DropThresholdIsRelative) {
  // 30% drop must not trigger a 50% detector but must trigger a 20% one.
  TrendDetector loose(4, 0.5);
  TrendDetector tight(4, 0.2);
  bool loose_fired = false, tight_fired = false;
  for (int i = 0; i < 8; ++i) {
    loose.push(1.0);
    tight.push(1.0);
  }
  for (int i = 0; i < 4; ++i) {
    loose_fired |= loose.push(0.7);
    tight_fired |= tight.push(0.7);
  }
  EXPECT_FALSE(loose_fired);
  EXPECT_TRUE(tight_fired);
}

TEST(TrendDetector, ResetClearsHistory) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 6; ++i) trend.push(0.9);
  trend.reset();
  // Fresh start: needs two full windows again before it can fire.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(trend.push(0.01));
}

TEST(TrendDetector, ZeroBaselineNeverFires) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(trend.push(0.0));
}

// --- observe vs observe_batch: one entry point, any batch composition ---

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_step(const OnlineMonitor::StepResult& a, const OnlineMonitor::StepResult& b) {
  EXPECT_EQ(a.step, b.step);
  ASSERT_EQ(a.ocsvm_scores.size(), b.ocsvm_scores.size());
  for (std::size_t c = 0; c < a.ocsvm_scores.size(); ++c) {
    EXPECT_TRUE(bits_equal(a.ocsvm_scores[c], b.ocsvm_scores[c]));
  }
  EXPECT_EQ(a.cluster_argmax, b.cluster_argmax);
  EXPECT_EQ(a.cluster_voted, b.cluster_voted);
  ASSERT_EQ(a.likelihood_argmax.has_value(), b.likelihood_argmax.has_value());
  ASSERT_EQ(a.likelihood_voted.has_value(), b.likelihood_voted.has_value());
  if (a.likelihood_voted) {
    EXPECT_TRUE(bits_equal(*a.likelihood_argmax, *b.likelihood_argmax));
    EXPECT_TRUE(bits_equal(*a.likelihood_voted, *b.likelihood_voted));
  }
  EXPECT_EQ(a.alarm, b.alarm);
  EXPECT_EQ(a.trend_alarm, b.trend_alarm);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.expected.size(), b.expected.size());
  for (std::size_t k = 0; k < a.expected.size(); ++k) {
    EXPECT_EQ(a.expected[k].action, b.expected[k].action);
    EXPECT_TRUE(bits_equal(a.expected[k].probability, b.expected[k].probability));
  }
}

class MonitorBatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 240;
    pc.users = 30;
    pc.action_count = 50;
    pc.seed = 13;
    const synth::Portal portal(pc);
    const SessionStore store = portal.generate();
    DetectorConfig dc;
    dc.ensemble.topic_counts = {8};
    dc.ensemble.iterations = 6;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 16;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new MisuseDetector(MisuseDetector::train(store, dc));
    // Normal sessions plus random ones: the random sessions alarm, so the
    // explain path (expected actions from the voted distribution) runs.
    sessions_ = new std::vector<std::vector<int>>();
    for (std::size_t i = 0; i < store.size() && sessions_->size() < 6; ++i) {
      if (store.at(i).length() >= 4) sessions_->push_back(store.at(i).actions);
    }
    const SessionStore random = portal.generate_random_sessions(5, 77);
    for (std::size_t i = 0; i < random.size(); ++i) sessions_->push_back(random.at(i).actions);
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete sessions_;
    detector_ = nullptr;
    sessions_ = nullptr;
  }

  static MonitorConfig alarm_config() {
    MonitorConfig mc;
    mc.alarm_likelihood = 0.1;  // loose: many steps alarm and get explained
    mc.trend_window = 3;
    mc.explain_top_k = 3;
    return mc;
  }

  static MisuseDetector* detector_;
  static std::vector<std::vector<int>>* sessions_;
};

MisuseDetector* MonitorBatchFixture::detector_ = nullptr;
std::vector<std::vector<int>>* MonitorBatchFixture::sessions_ = nullptr;

// Every live session advanced as one observe_batch per round (the batch
// shrinks as sessions end) equals each session fed alone through
// observe(), field by field and bit for bit, explanations included.
TEST_F(MonitorBatchFixture, ObserveBatchMatchesObserveOnAlarmingSessions) {
  const MisuseDetector& detector = *detector_;
  const auto& sessions = *sessions_;
  const MonitorConfig mc = alarm_config();

  std::vector<std::vector<OnlineMonitor::StepResult>> alone(sessions.size());
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    OnlineMonitor monitor(detector, mc);
    for (const int a : sessions[s]) alone[s].push_back(monitor.observe(a));
  }

  std::vector<std::unique_ptr<OnlineMonitor>> monitors;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    monitors.push_back(std::make_unique<OnlineMonitor>(detector, mc));
  }
  std::size_t explained = 0;
  std::size_t widest = 0;
  for (std::size_t t = 0;; ++t) {
    std::vector<OnlineMonitor*> batch;
    std::vector<int> actions;
    std::vector<std::size_t> owner;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (t >= sessions[s].size()) continue;
      batch.push_back(monitors[s].get());
      actions.push_back(sessions[s][t]);
      owner.push_back(s);
    }
    if (batch.empty()) break;
    widest = std::max(widest, batch.size());
    std::vector<OnlineMonitor::StepResult> results(batch.size());
    OnlineMonitor::observe_batch(detector, batch, actions, results);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(owner[i]) + " step " + std::to_string(t));
      expect_same_step(results[i], alone[owner[i]][t]);
      if (!results[i].expected.empty()) ++explained;
    }
  }
  EXPECT_GE(widest, 8u);
  EXPECT_GT(explained, 0u) << "no step alarmed: the explain path went untested";
}

// The likelihoods observe() reports (heads deferred, only the argmax and
// voted clusters materialized) equal the previous step's eager
// distributions of every cluster, computed independently.
TEST_F(MonitorBatchFixture, DeferredHeadsMatchEagerDistributions) {
  const MisuseDetector& detector = *detector_;
  const MonitorConfig mc = alarm_config();
  for (const auto& session : *sessions_) {
    OnlineMonitor monitor(detector, mc);
    std::vector<MisuseDetector::ClusterState> states;
    for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
      states.push_back(detector.make_cluster_state(c));
    }
    std::vector<std::vector<float>> dists(detector.cluster_count());
    for (const int a : session) {
      const auto step = monitor.observe(a);
      if (step.likelihood_voted) {
        const auto at = static_cast<std::size_t>(a);
        EXPECT_TRUE(bits_equal(*step.likelihood_voted, dists[step.cluster_voted][at]));
        EXPECT_TRUE(bits_equal(*step.likelihood_argmax, dists[step.cluster_argmax][at]));
      }
      for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
        detector.step_cluster_into(c, states[c], a, dists[c]);
      }
    }
  }
}

}  // namespace
}  // namespace misuse::core
