// Inference-engine throughput record (writes BENCH_inference.json).
// Not a paper figure: this is the perf contract for the scoring hot
// path (nn/infer/) — the packed/batched kernels against the
// training-grade reference forward they must stay bit-identical to.
//
// Two families:
//   * model_step — one LSTM+head forward per action: the engine against
//     NextActionModel::step_into called directly (the reference row).
//   * monitor_path — the full OnlineMonitor scoring path (routing,
//     likelihood voting, alarms) per event, comparing the per-event
//     loop against observe_batch's fused per-cluster steps. This is the
//     speedup the streaming server actually sees.
//
// Timings are best-of-5 wall clock; the engine's outputs are
// bit-identical to the reference by contract, so only time may differ
// across rows.
//
//   ./bench/bench_inference [--out=BENCH_inference.json] [--reduced]
//
// --help prints the usage; any other flag exits 2.
//
// --reduced shrinks the workloads — the CI smoke configuration, which
// cares about "runs and writes valid JSON", not the timings.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "nn/infer/engine.hpp"
#include "nn/next_action_model.hpp"
#include "synth/portal.hpp"
#include "util/cli.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace misuse {
namespace {

constexpr int kRepetitions = 5;

template <typename Fn>
double best_of(const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < kRepetitions; ++r) {
    Timer timer;
    fn();
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct Row {
  std::string mode;
  std::size_t steps = 0;
  double seconds = 0.0;
  double actions_per_sec() const { return seconds > 0.0 ? steps / seconds : 0.0; }
};

// --- model_step: one forward per action --------------------------------

std::vector<int> random_actions(std::size_t n, std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> actions(n);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_index(vocab));
  return actions;
}

Row time_reference_step(const nn::NextActionModel& model, const std::vector<int>& actions) {
  nn::ModelState state = model.make_state();
  std::vector<float> probs;
  const double seconds = best_of([&] {
    state = model.make_state();
    for (const int a : actions) model.step_into(state, a, probs);
  });
  return {"reference_step", actions.size(), seconds};
}

Row time_engine_step(const nn::infer::LstmInferEngine& engine, const std::vector<int>& actions) {
  nn::infer::EngineState state = engine.make_state();
  nn::infer::EngineScratch scratch;
  std::vector<float> probs;
  const double seconds = best_of([&] {
    state.reset();
    for (const int a : actions) engine.step(state, a, probs, scratch);
  });
  return {"engine_step", actions.size(), seconds};
}

// --- monitor_path: the full scoring pipeline per event -----------------

core::MisuseDetector train_detector(bool reduced) {
  synth::PortalConfig portal_config;
  portal_config.sessions = reduced ? 120 : 220;
  portal_config.action_count = 60;
  portal_config.seed = 42;
  const synth::Portal portal(portal_config);
  const SessionStore store = portal.generate();
  core::DetectorConfig config;
  config.ensemble.topic_counts = {10, 13};
  config.ensemble.iterations = 8;
  config.expert.target_clusters = 4;
  config.expert.min_cluster_sessions = 5;
  config.lm.hidden = reduced ? 8 : 128;
  config.lm.epochs = 2;
  config.lm.patience = 0;
  return core::MisuseDetector::train(store, config);
}

// Per-event loop: one observe() per monitor per step — what a shard does
// without batching.
// One timed pass; the caller interleaves passes across variants.
double monitor_per_event_pass(const core::MisuseDetector& detector,
                              const std::vector<std::vector<int>>& streams) {
  const std::size_t steps_per = streams.front().size();
  Timer timer;
  std::vector<core::OnlineMonitor> monitors;
  monitors.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    monitors.emplace_back(detector, core::MonitorConfig{});
  }
  for (std::size_t t = 0; t < steps_per; ++t) {
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      (void)monitors[i].observe(streams[i][t]);
    }
  }
  return timer.seconds();
}

// Batched loop: one observe_batch per step across all live sessions —
// what ScoringServer::submit_batch does on the server's hot path.
double monitor_batched_pass(const core::MisuseDetector& detector,
                            const std::vector<std::vector<int>>& streams) {
  const std::size_t steps_per = streams.front().size();
  Timer timer;
  std::vector<std::unique_ptr<core::OnlineMonitor>> monitors;
  std::vector<core::OnlineMonitor*> ptrs;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    monitors.push_back(std::make_unique<core::OnlineMonitor>(detector, core::MonitorConfig{}));
    ptrs.push_back(monitors.back().get());
  }
  std::vector<int> actions(streams.size());
  std::vector<core::OnlineMonitor::StepResult> results(streams.size());
  for (std::size_t t = 0; t < steps_per; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i) actions[i] = streams[i][t];
    core::OnlineMonitor::observe_batch(detector, ptrs, actions, results);
  }
  return timer.seconds();
}

}  // namespace
}  // namespace misuse

int main(int argc, char** argv) {
  using namespace misuse;
  const CliArgs args(argc, argv);
  const std::string usage =
      "usage: " + args.program() + " [--out=BENCH_inference.json] [--reduced]\n" +
      "  --out=PATH  where to write the JSON record (default BENCH_inference.json)\n"
      "  --reduced   small workloads: the CI smoke configuration\n";
  if (const auto code = args.early_exit({"out", "reduced"}, usage)) return *code;
  const bool reduced = args.flag("reduced");
  const std::string out_path = args.str("out", "BENCH_inference.json");
  // Single-core: the engine's win must not depend on the pool.
  set_global_threads(1);

  // --- model_step workload ---
  nn::ModelConfig model_config;
  model_config.vocab = 50;
  model_config.hidden = reduced ? 64 : 256;
  Rng model_rng(7);
  const nn::NextActionModel model(model_config, model_rng);
  const auto engine = nn::infer::LstmInferEngine::build(model);
  if (engine == nullptr) {
    std::cerr << "engine rejected the benchmark model configuration\n";
    return 1;
  }
  const auto actions = random_actions(reduced ? 400 : 4000, model_config.vocab, 11);

  std::vector<Row> model_rows;
  model_rows.push_back(time_reference_step(model, actions));
  model_rows.push_back(time_engine_step(*engine, actions));

  // --- monitor_path workload ---
  const core::MisuseDetector detector = train_detector(reduced);
  const std::size_t n_sessions = 64;
  const std::size_t session_len = reduced ? 16 : 48;
  std::vector<std::vector<int>> streams(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    streams[i] = random_actions(session_len, detector.vocab().size(), 100 + i);
  }

  // The two monitor-path variants are compared against each other, so
  // their repetitions are interleaved: host clock-speed drift over the
  // run (turbo, shared containers) then lands on both instead of biasing
  // whichever ran first.
  const std::size_t monitor_steps = n_sessions * session_len;
  std::vector<Row> monitor_rows = {{"per_event", monitor_steps, 0.0},
                                   {"batched", monitor_steps, 0.0}};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t i = 0; i < monitor_rows.size(); ++i) {
      const double s = i == 1 ? monitor_batched_pass(detector, streams)
                              : monitor_per_event_pass(detector, streams);
      if (rep == 0 || s < monitor_rows[i].seconds) monitor_rows[i].seconds = s;
    }
  }

  const double ref_step = model_rows.front().actions_per_sec();
  const double per_event = monitor_rows.front().actions_per_sec();

  std::ofstream out(out_path);
  JsonWriter json(out);
  json.begin_object();
  json.member("hardware_concurrency",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  write_host_info(json);
  json.member("reduced", reduced);
  json.member("note",
              "Single-core actions/sec. model_step times the engine's LSTM+head forward "
              "(engine_step) against NextActionModel::step_into (reference_step); "
              "monitor_path times the full OnlineMonitor pipeline, per-event loop vs "
              "observe_batch fusion, with speedups over per_event. Every row's outputs are "
              "bit-identical to the reference by contract.");
  json.key("model_step");
  json.begin_array();
  for (const auto& r : model_rows) {
    json.begin_object();
    json.member("mode", r.mode);
    json.member("hidden", static_cast<std::size_t>(model_config.hidden));
    json.member("steps", r.steps);
    json.member("seconds", r.seconds);
    json.member("actions_per_sec", r.actions_per_sec());
    json.member("speedup_vs_reference", ref_step > 0.0 ? r.actions_per_sec() / ref_step : 0.0);
    json.end_object();
  }
  json.end_array();
  json.key("monitor_path");
  json.begin_array();
  for (const auto& r : monitor_rows) {
    json.begin_object();
    json.member("mode", r.mode);
    json.member("sessions", n_sessions);
    json.member("steps", r.steps);
    json.member("seconds", r.seconds);
    json.member("actions_per_sec", r.actions_per_sec());
    json.member("speedup_vs_per_event",
                per_event > 0.0 ? r.actions_per_sec() / per_event : 0.0);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  for (const auto& r : monitor_rows) {
    std::cout << "monitor " << r.mode << ": " << r.actions_per_sec() << " actions/s ("
              << (per_event > 0.0 ? r.actions_per_sec() / per_event : 0.0) << "x)\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
