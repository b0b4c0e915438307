// Shared pieces of the benchmark harness: options, the result record,
// corpus and model construction from the workload seed, and helpers the
// workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "sessions/session.hpp"
#include "sessions/store.hpp"
#include "synth/portal.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< the build tree's src/ (serve/ and router/ binaries)
  std::string work_dir;  ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an output-check failure; the run then prints no numbers.
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// The simulated portal (vocabulary, archetypes, users and its history)
/// is one fixed organization, as the paper's single dataset is, and the
/// model trained and fine-tuned on that history is the same on every
/// run. --seed draws the traffic: which later sessions arrive, in what
/// order and when, and the injected misuse.
inline constexpr std::uint64_t kPortalSeed = 2019;

/// Fine-tune windows are at most this many actions (the paper's window).
inline constexpr std::size_t kWindowActions = 100;

/// Model and corpus size of a workload.
struct Shape {
  std::size_t train_sessions = 0;    ///< history the detector is trained on
  std::size_t tune_sessions = 0;     ///< the next slice: fine-tune windows
  std::size_t traffic_sessions = 0;  ///< the slice after: traffic
  std::size_t hidden = 0;
  std::size_t epochs = 0;
};

/// The paper-shape detector (300 actions, one-hot input, the expert
/// policy's default cluster count) at the given hidden size and epochs.
misuse::core::DetectorConfig detector_config(const Shape& shape);

struct Corpus {
  misuse::synth::Portal portal;
  misuse::SessionStore train;
  std::vector<misuse::Session> tune;
  std::vector<misuse::Session> traffic;  ///< shuffled by the seed
};
Corpus make_corpus(const Shape& shape, std::uint64_t seed);

/// Replaces about `fraction` of `sessions` with injected misuse: the
/// portal's misuse kinds plus the paper's random sessions (§IV-D), in
/// turn. Injected sessions carry injected_misuse = true.
void inject_misuse(const misuse::synth::Portal& portal, std::vector<misuse::Session>& sessions,
                   double fraction, std::uint64_t seed);

/// Mean per-action cross-entropy of each cluster's model on its test split.
double heldout_nll(misuse::core::MisuseDetector& detector, const misuse::SessionStore& train);

/// Fine-tune windows: each session's first kWindowActions actions, routed
/// to its OC-SVM cluster.
std::vector<std::vector<std::vector<int>>> route_windows(
    const misuse::core::MisuseDetector& detector, const std::vector<misuse::Session>& sessions);

std::string save_bytes(const misuse::core::MisuseDetector& detector);
misuse::core::MisuseDetector load_bytes(const std::string& bytes);

/// Stage times of the last MisuseDetector::train, read from the
/// repository's existing trace spans (trace_reset() before the call).
struct TrainStages {
  double lda_s = 0.0;
  double expert_s = 0.0;
  double ocsvm_s = 0.0;
  double lm_wall_s = 0.0;
  double lm_cluster_max_s = 0.0;
  double lm_cluster_sum_s = 0.0;
};
TrainStages train_stages();

/// Actions the LM fit consumed: training actions x epochs run, all clusters.
double lm_train_actions(const misuse::core::MisuseDetector& detector,
                        const misuse::SessionStore& train);

/// Median (0 when empty).
double median(const std::vector<double>& xs);
double seconds_since(std::uint64_t start_ns);

/// Adds the per-layer metrics of training (stage spans, pool use).
void add_train_layers(Result& r, const std::vector<TrainStages>& stages,
                      const std::vector<double>& lm_actions);

Result run_traffic(const Options& options, bool fanout);
Result run_retrain(const Options& options);
int run_selftests();

}  // namespace perfbench
