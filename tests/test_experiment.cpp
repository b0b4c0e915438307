#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "temp_dir.hpp"

namespace misuse::core {
namespace {

ExperimentConfig config_from(std::initializer_list<const char*> flags) {
  std::vector<const char*> argv = {"bench"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  return ExperimentConfig::from_cli(args);
}

TEST(ExperimentConfig, DefaultsAreCpuScale) {
  const auto config = config_from({});
  EXPECT_EQ(config.portal.sessions, 3000u);
  EXPECT_EQ(config.portal.action_count, 100u);
  EXPECT_EQ(config.detector.lm.hidden, 48u);
  EXPECT_EQ(config.detector.lm.layers, 1u);
  EXPECT_EQ(config.detector.lm.batching.mode, lm::BatchingMode::kFullSequence);
  EXPECT_EQ(config.detector.expert.target_clusters, 13u);
  EXPECT_TRUE(config.use_cache);
}

TEST(ExperimentConfig, PaperScaleMatchesPaper) {
  const auto config = config_from({"--paper-scale"});
  EXPECT_EQ(config.portal.sessions, 15000u);   // ~15000 sessions (SS IV-A)
  EXPECT_EQ(config.portal.users, 1400u);       // ~1400 users
  EXPECT_EQ(config.portal.action_count, 300u); // ~300 actions
  EXPECT_EQ(config.detector.lm.hidden, 256u);  // 256 LSTM units
  EXPECT_EQ(config.detector.lm.batching.window, 100u);  // window 100
  EXPECT_FLOAT_EQ(config.detector.lm.dropout, 0.4f);    // dropout 0.4
  EXPECT_EQ(config.detector.ensemble.topic_counts.size(), 4u);
}

TEST(ExperimentConfig, WindowedModeUsesPaperTrainingHyperparams) {
  const auto config = config_from({"--mode=windowed"});
  EXPECT_EQ(config.detector.lm.batching.mode, lm::BatchingMode::kWindowed);
  EXPECT_EQ(config.detector.lm.batching.batch_size, 32u);  // minibatch 32
  EXPECT_FLOAT_EQ(config.detector.lm.learning_rate, 1e-3f);  // lr 0.001
}

TEST(ExperimentConfig, FlagsOverrideDefaults) {
  const auto config = config_from({"--sessions=777", "--hidden=32", "--layers=2",
                                   "--embedding=16", "--seed=9", "--no-cache"});
  EXPECT_EQ(config.portal.sessions, 777u);
  EXPECT_EQ(config.detector.lm.hidden, 32u);
  EXPECT_EQ(config.detector.lm.layers, 2u);
  EXPECT_EQ(config.detector.lm.embedding_dim, 16u);
  EXPECT_EQ(config.portal.seed, 9u);
  EXPECT_FALSE(config.use_cache);
}

TEST(ExperimentConfig, FingerprintStableForSameConfig) {
  const auto a = config_from({"--sessions=500"});
  const auto b = config_from({"--sessions=500"});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ExperimentConfig, FingerprintSensitiveToTrainingKnobs) {
  const auto base = config_from({});
  for (const char* flag : {"--sessions=2999", "--actions=99", "--hidden=49", "--layers=2",
                           "--embedding=8", "--epochs=29", "--window=63", "--seed=43",
                           "--clusters=12", "--nu=0.2", "--mode=windowed",
                           "--normalize-features"}) {
    const auto changed = config_from({flag});
    EXPECT_NE(base.fingerprint(), changed.fingerprint()) << flag;
  }
}

TEST(ExperimentConfig, FingerprintIgnoresPresentationKnobs) {
  const auto a = config_from({});
  const auto b = config_from({"--results-dir=elsewhere", "--log-level=warn"});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Experiment, PrepareTrainsAndCachesDetector) {
  const std::string dir = misuse::testing_support::test_temp_path("misuse_experiment_cache");
  std::filesystem::remove_all(dir);
  auto config = config_from({"--sessions=250", "--actions=60", "--hidden=8", "--epochs=2",
                             "--lda-iters=10", "--clusters=4", "--min-cluster-sessions=5",
                             "--patience=0"});
  config.results_dir = dir;

  Experiment first = Experiment::prepare(config);
  EXPECT_GT(first.detector.cluster_count(), 0u);
  // A cache file must now exist.
  std::size_t cache_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/cache")) {
    (void)entry;
    ++cache_files;
  }
  EXPECT_EQ(cache_files, 1u);

  // Second prepare loads the cache and yields identical predictions.
  Experiment second = Experiment::prepare(config);
  const auto& probe = first.store.at(first.detector.cluster(0).members.front());
  const auto a = first.detector.predict(probe.view());
  const auto b = second.detector.predict(probe.view());
  EXPECT_EQ(a.cluster, b.cluster);
  ASSERT_EQ(a.score.likelihoods.size(), b.score.likelihoods.size());
  for (std::size_t i = 0; i < a.score.likelihoods.size(); ++i) {
    EXPECT_EQ(a.score.likelihoods[i], b.score.likelihoods[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Experiment, UnitedTestSetCoversAllClusters) {
  const std::string dir = misuse::testing_support::test_temp_path("misuse_experiment_united");
  std::filesystem::remove_all(dir);
  auto config = config_from({"--sessions=250", "--actions=60", "--hidden=8", "--epochs=2",
                             "--lda-iters=10", "--clusters=4", "--min-cluster-sessions=5",
                             "--patience=0"});
  config.results_dir = dir;
  Experiment experiment = Experiment::prepare(config);
  const auto united = experiment.united_test_set();
  std::set<std::size_t> clusters;
  for (const auto& [i, c] : united) {
    EXPECT_LT(i, experiment.store.size());
    clusters.insert(c);
  }
  EXPECT_EQ(clusters.size(), experiment.detector.cluster_count());
  std::filesystem::remove_all(dir);
}

TEST(Experiment, CorruptCacheFallsBackToTraining) {
  const std::string dir = misuse::testing_support::test_temp_path("misuse_experiment_corrupt");
  std::filesystem::remove_all(dir);
  auto config = config_from({"--sessions=250", "--actions=60", "--hidden=8", "--epochs=2",
                             "--lda-iters=10", "--clusters=4", "--min-cluster-sessions=5",
                             "--patience=0"});
  config.results_dir = dir;
  Experiment first = Experiment::prepare(config);
  // Corrupt the cache file.
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/cache")) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  Experiment second = Experiment::prepare(config);  // must retrain, not crash
  EXPECT_EQ(second.detector.cluster_count(), first.detector.cluster_count());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace misuse::core
