// The `retrain` workload: the write side of the model. Full training at
// portal_live's model shape, one fine-tune pass on windows from a later
// slice of the corpus, and a save/load round trip; then the retrained
// model scores a held-out stream in-process, which checks that
// load(save(d)) scores identically to d.
#include <iostream>
#include <optional>

#include "common.hpp"
#include "core/monitor.hpp"
#include "procs.hpp"
#include "serve/event.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/trace.hpp"

namespace perfbench {

using misuse::core::MisuseDetector;
using misuse::core::OnlineMonitor;

namespace {

// Sized so one train + fine-tune + round trip takes a few seconds on a
// 4-core host, leaving room for two or more repetitions per run.
constexpr Shape kShape{600, 200, 400, 256, 3};
constexpr double kScoredMisuseFraction = 0.15;  // the traffic slice + misuse is scored
constexpr std::size_t kCompared = 100;  // scored sessions also replayed on d itself

bool same_step(const OnlineMonitor::StepResult& a, const OnlineMonitor::StepResult& b) {
  return a.cluster_voted == b.cluster_voted && a.cluster_argmax == b.cluster_argmax &&
         a.likelihood_voted == b.likelihood_voted && a.likelihood_argmax == b.likelihood_argmax &&
         a.alarm == b.alarm && a.trend_alarm == b.trend_alarm && a.ocsvm_scores == b.ocsvm_scores;
}

}  // namespace

Result run_retrain(const Options& o) {
  Result r;
  std::vector<double> setup;
  std::optional<Corpus> corpus;
  // Set-up is corpus generation; the thread pool is already running (the
  // host stamp starts it).
  for (int rep = 0; rep < 25; ++rep) {
    const std::uint64_t t0 = now_ns();
    corpus.emplace(make_corpus(kShape, o.seed));
    setup.push_back(seconds_since(t0));
  }
  const auto config = detector_config(kShape);
  std::vector<misuse::Session> scored = corpus->traffic;
  inject_misuse(corpus->portal, scored, kScoredMisuseFraction, o.seed + 11);

  std::vector<double> train_s, finetune_s, save_s, load_s, lm_actions;
  std::vector<TrainStages> stages;
  std::string first_archive;
  std::optional<MisuseDetector> detector;
  std::optional<MisuseDetector> loaded;
  const std::uint64_t start = now_ns();
  for (int rep = 0; rep < 2 || (seconds_since(start) < o.seconds && rep < 6); ++rep) {
    misuse::trace_reset();
    std::uint64_t t = now_ns();
    detector.emplace(MisuseDetector::train(corpus->train, config));
    train_s.push_back(seconds_since(t));
    stages.push_back(train_stages());
    lm_actions.push_back(lm_train_actions(*detector, corpus->train));

    t = now_ns();
    const std::string archive = save_bytes(*detector);
    save_s.push_back(seconds_since(t));
    if (first_archive.empty()) {
      first_archive = archive;
    } else if (archive != first_archive) {
      r.fail("two identical trainings saved different archive bytes");
    }
    t = now_ns();
    loaded.emplace(load_bytes(archive));
    load_s.push_back(seconds_since(t));

    const auto windows = route_windows(*detector, corpus->tune);
    t = now_ns();
    const MisuseDetector candidate = MisuseDetector::fine_tune(*detector, windows, {});
    finetune_s.push_back(seconds_since(t));
    if (candidate.cluster_count() != detector->cluster_count()) {
      r.fail("fine-tune changed the cluster count");
    }
    r.attempted += 3;
  }

  // The retrained model serves: score the held-out stream with d and
  // load(save(d)) side by side; timing covers the loaded model's observe.
  const misuse::core::MonitorConfig monitor_config;
  std::vector<double> observe_ms;
  std::vector<double> normal, misuse_scores;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    const misuse::Session& s = scored[i];
    const bool compare = i < kCompared;
    OnlineMonitor original(*detector, monitor_config);
    OnlineMonitor reloaded(*loaded, monitor_config);
    misuse::core::SessionAccumulator acc;
    for (const int a : s.actions) {
      const std::uint64_t t = now_ns();
      const auto step = reloaded.observe(a);
      const double dt = seconds_since(t);
      observe_ms.push_back(dt * 1e3);
      if (compare && !same_step(step, original.observe(a))) {
        r.fail("load(save(d)) scored differently from d");
      }
      acc.add(step);
    }
    if (s.length() < 2) continue;
    (s.injected_misuse ? misuse_scores : normal).push_back(acc.report().avg_likelihood_voted);
  }
  r.attempted += observe_ms.size();

  const double nll = heldout_nll(*detector, corpus->train);
  if (o.trace) {
    add_train_layers(r, stages, lm_actions);
    r.add("core.archive.save_s", median(save_s), "s");
    r.add("core.archive.load_s", median(load_s), "s");
    r.add("core.monitor.observe_us", percentile(observe_ms, 50) * 1e3, "us");
    r.add("verdict_p99_ms", windowed_percentile(observe_ms, 99, 1000), "ms");
    r.add("quality.detect_at_1pct_far", detect_at_far(normal, misuse_scores, 0.01), "ratio");
    // Shares of one retrain (median repetition): training stages from the
    // repository's spans, the fine-tune pass (LSTM updates) counted as
    // lm, and the archive round trip plus the rest of train() as core.
    auto stage = [&](auto field) {
      std::vector<double> xs;
      for (const auto& s : stages) xs.push_back(field(s));
      return median(xs);
    };
    const double lda = stage([](const TrainStages& s) { return s.lda_s; });
    const double expert = stage([](const TrainStages& s) { return s.expert_s; });
    const double ocsvm = stage([](const TrainStages& s) { return s.ocsvm_s; });
    const double lm = stage([](const TrainStages& s) { return s.lm_wall_s; }) + median(finetune_s);
    const double all = median(train_s) + median(finetune_s) + median(save_s) + median(load_s);
    r.add("share.topics", lda / all, "ratio");
    r.add("share.cluster", expert / all, "ratio");
    r.add("share.ocsvm", ocsvm / all, "ratio");
    r.add("share.lm", lm / all, "ratio");
    r.add("share.core", std::max(0.0, all - lda - expert - ocsvm - lm) / all, "ratio");
  } else {
    r.add("setup_s", median(setup), "s");
    r.add("verdict_p50_ms", windowed_percentile(observe_ms, 50, 1000), "ms");
    // Events per second of each 1000-event window, median over windows.
    std::vector<double> window_rates;
    for (std::size_t b = 0; b + 1000 <= observe_ms.size(); b += 1000) {
      double ms = 0.0;
      for (std::size_t i = b; i < b + 1000; ++i) ms += observe_ms[i];
      window_rates.push_back(1000.0 / (ms * 1e-3));
    }
    r.add("sustained_eps", median(window_rates), "1/s");
    r.add("node_rss_mb", static_cast<double>(peak_rss_kb("self")) / 1024.0, "MB");
    r.add("misuse_auc", misuse_auc(normal, misuse_scores), "ratio");
    r.add("train_s", median(train_s), "s");
    r.add("finetune_s", median(finetune_s), "s");
    r.add("heldout_nll", nll, "nats");
  }
  std::cerr << "retrain: " << detector->cluster_count() << " clusters, " << train_s.size()
            << " trainings, " << observe_ms.size() << " scored events, " << misuse_scores.size()
            << " misuse / " << normal.size() << " normal sessions\n";
  return r;
}

}  // namespace perfbench
