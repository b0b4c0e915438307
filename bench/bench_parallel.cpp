// Serial-vs-parallel wall-clock comparison of every pipeline stage that
// fans out over the thread pool (util/thread_pool.hpp), recorded to
// BENCH_parallel.json. Not a paper figure: this is the scaling record for
// the execution layer — per-cluster LSTM training (k = 13, the paper's
// cluster count), the LDA ensemble, blocked GEMM, and batch session
// monitoring. Results are bit-identical across thread counts by the
// determinism contract, so only time changes.
//
// Timings come from the trace layer (util/trace.hpp): every repetition
// runs under a Span named after the stage, and the reported number is
// that node's min_seconds — the same instrument the pipeline itself
// exports via --metrics-out. The monitor stage also runs once with
// metric recording disabled to bound the instrumentation overhead of the
// per-step telemetry (the <5% budget documented in DESIGN.md).
//
//   ./bench/bench_parallel [--threads=1,2,4,8] [--out=BENCH_parallel.json] [--reduced]
//
// --help prints the usage; any other flag exits 2.
//
// --reduced shrinks the workloads and the default thread sweep to 1,2 —
// the CI smoke configuration, which cares about "runs and writes valid
// JSON", not about the timings themselves.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "lm/language_model.hpp"
#include "synth/portal.hpp"
#include "tensor/ops.hpp"
#include "topics/ensemble.hpp"
#include "util/cli.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace misuse {
namespace {

constexpr std::size_t kClusters = 13;  // the paper's k
constexpr int kRepetitions = 3;        // best-of to suppress scheduler noise

struct StageResult {
  std::string stage;
  std::size_t threads = 0;
  double seconds = 0.0;
};

// Runs `fn` kRepetitions times, each under a Span named `stage`, and
// reads the fastest repetition back from the aggregated trace tree.
// Assumes the caller trace_reset()s between rounds so the min is fresh.
template <typename Fn>
double best_of(std::string_view stage, const Fn& fn) {
  for (int r = 0; r < kRepetitions; ++r) {
    Span span(stage);
    fn();
  }
  const TraceStats tree = trace_snapshot();
  const TraceStats* stats = find_span(tree, stage);
  return stats != nullptr && stats->count > 0 ? stats->min_seconds : 0.0;
}

std::vector<std::vector<std::vector<int>>> make_cluster_corpus(std::size_t sessions_per_cluster,
                                                               std::size_t vocab) {
  std::vector<std::vector<std::vector<int>>> corpus(kClusters);
  for (std::size_t c = 0; c < kClusters; ++c) {
    Rng rng = Rng::stream(31, c);
    corpus[c].resize(sessions_per_cluster);
    for (auto& s : corpus[c]) {
      s.resize(15);
      for (auto& a : s) a = static_cast<int>(rng.uniform_index(vocab));
    }
  }
  return corpus;
}

double time_per_cluster_training(const std::vector<std::vector<std::vector<int>>>& corpus) {
  return best_of("per_cluster_lstm_train_k13", [&] {
    global_pool().parallel_for(0, kClusters, [&](std::size_t c) {
      lm::LmConfig config;
      config.vocab = 60;
      config.hidden = 24;
      config.epochs = 3;
      config.patience = 0;
      config.seed = 100 + c;
      lm::ActionLanguageModel model(config);
      const std::vector<std::span<const int>> train(corpus[c].begin(), corpus[c].end());
      (void)model.fit(train, {});
    });
  });
}

double time_lda_ensemble(const std::vector<std::vector<int>>& docs) {
  return best_of("lda_ensemble_4runs", [&] {
    topics::EnsembleConfig config;
    config.topic_counts = {10, 13, 16, 20};
    config.iterations = 20;
    (void)topics::LdaEnsemble::fit(docs, 80, config);
  });
}

double time_gemm() {
  Rng rng(17);
  const std::size_t n = 256;
  Matrix a(n, n), b(n, n), c(n, n);
  a.init_gaussian(rng, 1.0f);
  b.init_gaussian(rng, 1.0f);
  return best_of("gemm_256x256x256_x20", [&] {
    for (int i = 0; i < 20; ++i) gemm(1.0f, a, b, 0.0f, c, GemmPolicy::kParallel);
  });
}

double time_monitor_batch(std::string_view stage, const core::MisuseDetector& detector,
                          std::span<const std::span<const int>> sessions) {
  return best_of(stage, [&] {
    (void)core::monitor_sessions(detector, core::MonitorConfig{}, sessions);
  });
}

}  // namespace
}  // namespace misuse

int main(int argc, char** argv) {
  using namespace misuse;
  const CliArgs args(argc, argv);
  const std::string usage =
      "usage: " + args.program() +
      " [--threads=1,2,4,8] [--out=BENCH_parallel.json] [--reduced]\n" +
      "  --threads=LIST  thread counts to time (default 1,2,4,8; 1,2 with --reduced)\n"
      "  --out=PATH      where to write the JSON record (default BENCH_parallel.json)\n"
      "  --reduced       small workloads: the CI smoke configuration\n";
  if (const auto code = args.early_exit({"threads", "out", "reduced"}, usage)) return *code;
  const bool reduced = args.flag("reduced");
  const std::string out_path = args.str("out", "BENCH_parallel.json");
  std::vector<std::size_t> thread_counts;
  for (const auto& tok : split(args.str("threads", reduced ? "1,2" : "1,2,4,8"), ',')) {
    thread_counts.push_back(static_cast<std::size_t>(std::stoul(tok)));
  }

  // Shared workloads (built once; identical for every thread count).
  const auto corpus = make_cluster_corpus(reduced ? 8 : 30, 60);
  Rng doc_rng(23);
  std::vector<std::vector<int>> docs(reduced ? 60 : 250);
  for (auto& d : docs) {
    d.resize(15);
    for (auto& w : d) w = static_cast<int>(doc_rng.uniform_index(80));
  }
  // A small trained detector for the batch-monitoring stage.
  synth::PortalConfig portal_config;
  portal_config.sessions = 220;
  portal_config.action_count = 60;
  portal_config.seed = 42;
  const synth::Portal portal(portal_config);
  const SessionStore store = portal.generate();
  core::DetectorConfig detector_config;
  detector_config.ensemble.topic_counts = {10, 13};
  detector_config.ensemble.iterations = 8;
  detector_config.expert.target_clusters = 4;
  detector_config.expert.min_cluster_sessions = 5;
  detector_config.lm.hidden = 8;
  detector_config.lm.epochs = 2;
  detector_config.lm.patience = 0;
  set_global_threads(1);
  const core::MisuseDetector detector = core::MisuseDetector::train(store, detector_config);
  std::vector<std::span<const int>> monitor_sessions_views;
  for (std::size_t i = 0; i < std::min<std::size_t>(store.size(), 64); ++i) {
    monitor_sessions_views.push_back(store.at(i).view());
  }

  std::vector<StageResult> results;
  struct OverheadResult {
    std::size_t threads = 0;
    double instrumented_seconds = 0.0;
    double bare_seconds = 0.0;
  };
  std::vector<OverheadResult> overheads;
  for (const std::size_t threads : thread_counts) {
    set_global_threads(threads);
    trace_reset();  // fresh min/max for this round's stage spans
    results.push_back({"per_cluster_lstm_train_k13", threads, time_per_cluster_training(corpus)});
    results.push_back({"lda_ensemble_4runs", threads, time_lda_ensemble(docs)});
    results.push_back({"gemm_256x256x256_x20", threads, time_gemm()});
    const double monitor_on =
        time_monitor_batch("monitor_batch_64_sessions", detector, monitor_sessions_views);
    results.push_back({"monitor_batch_64_sessions", threads, monitor_on});
    // Same workload with metric recording off (spans stay live on both
    // sides, so the comparison isolates the counter/histogram cost on
    // the per-step hot path).
    set_metrics_enabled(false);
    const double monitor_off =
        time_monitor_batch("monitor_batch_64_sessions_bare", detector, monitor_sessions_views);
    set_metrics_enabled(true);
    overheads.push_back({threads, monitor_on, monitor_off});
    const double overhead_pct =
        monitor_off > 0.0 ? (monitor_on / monitor_off - 1.0) * 100.0 : 0.0;
    std::cout << "threads=" << threads << " done (monitor metrics overhead " << overhead_pct
              << "%)\n";
  }
  set_global_threads(1);

  const auto serial_seconds = [&](const std::string& stage) {
    for (const auto& r : results) {
      if (r.stage == stage && r.threads == 1) return r.seconds;
    }
    return 0.0;
  };

  std::ofstream out(out_path);
  JsonWriter json(out);
  json.begin_object();
  json.member("hardware_concurrency",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  write_host_info(json);
  json.member("repetitions_best_of", static_cast<std::size_t>(kRepetitions));
  json.member("note",
              "Wall-clock seconds per stage (trace-span min over repetitions); speedup is "
              "serial_time / time. Outputs are bit-identical across thread counts (determinism "
              "contract, util/thread_pool.hpp). Speedups above 1 require the host to expose that "
              "many cores; on a single-core host every row degenerates to ~1x.");
  json.key("stages");
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.member("stage", r.stage);
    json.member("threads", r.threads);
    json.member("seconds", r.seconds);
    const double serial = serial_seconds(r.stage);
    json.member("speedup_vs_serial", r.seconds > 0.0 ? serial / r.seconds : 0.0);
    json.end_object();
  }
  json.end_array();
  // Instrumentation cost of the per-step monitor telemetry: same batch
  // replay with metric recording on vs off.
  json.key("monitor_metrics_overhead");
  json.begin_array();
  for (const auto& o : overheads) {
    json.begin_object();
    json.member("threads", o.threads);
    json.member("instrumented_seconds", o.instrumented_seconds);
    json.member("bare_seconds", o.bare_seconds);
    json.member("overhead_ratio",
                o.bare_seconds > 0.0 ? o.instrumented_seconds / o.bare_seconds : 0.0);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
