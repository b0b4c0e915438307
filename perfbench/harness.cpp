// perfbench_harness: runs one benchmark workload against the repository's
// real binaries and training API and prints one JSON result line.
//
//   perfbench_harness --workload=portal_live|portal_fanout|retrain --seed=N
//       --seconds=S --trace=0|1 --bin-dir=DIR --work-dir=DIR
//
// perfbench/run.py builds it and passes the arguments; see perfbench/README.md.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "spans.hpp"
#include "core/observability.hpp"
#include "nn/infer/dispatch.hpp"
#include "util/hostinfo.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace perfbench {

using misuse::core::DetectorConfig;
using misuse::core::MisuseDetector;

DetectorConfig detector_config(const Shape& shape) {
  DetectorConfig config;
  config.lm.hidden = shape.hidden;
  config.lm.embedding_dim = 0;
  config.lm.epochs = shape.epochs;
  config.seed = kPortalSeed;
  config.ensemble.seed = kPortalSeed;
  // A benchmark-sized corpus gives each cluster a few dozen sessions;
  // small batches and a larger step let the models learn in a few epochs.
  config.lm.batching.batch_size = 8;
  config.lm.learning_rate = 5e-3f;
  return config;
}

Corpus make_corpus(const Shape& shape, std::uint64_t seed) {
  misuse::synth::PortalConfig config;
  config.sessions = shape.train_sessions + shape.tune_sessions + shape.traffic_sessions;
  config.action_count = 300;
  config.seed = kPortalSeed;
  Corpus corpus{misuse::synth::Portal(config), {}, {}, {}};
  const misuse::SessionStore all = corpus.portal.generate();
  corpus.train = misuse::SessionStore(all.vocab());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i < shape.train_sessions) {
      corpus.train.add(all.at(i));
    } else if (i < shape.train_sessions + shape.tune_sessions) {
      corpus.tune.push_back(all.at(i));
    } else {
      corpus.traffic.push_back(all.at(i));
    }
  }
  misuse::Rng rng(seed);
  std::shuffle(corpus.traffic.begin(), corpus.traffic.end(), rng);
  return corpus;
}

void inject_misuse(const misuse::synth::Portal& portal, std::vector<misuse::Session>& sessions,
                   double fraction, std::uint64_t seed) {
  misuse::Rng rng(seed);
  const auto random_pool = portal.generate_random_sessions(sessions.size(), seed + 7);
  std::size_t turn = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (rng.uniform() >= fraction) continue;
    const std::uint32_t user = sessions[i].user;
    const auto kind = turn % 4;
    misuse::Session s =
        kind < 3 ? portal.make_misuse(static_cast<misuse::synth::MisuseKind>(kind), rng)
                 : random_pool.at(i);
    ++turn;
    s.user = user;
    s.injected_misuse = true;
    sessions[i] = std::move(s);
  }
}

double heldout_nll(MisuseDetector& detector, const misuse::SessionStore& train) {
  const std::size_t k = detector.cluster_count();
  std::vector<double> loss(k, 0.0);
  std::vector<double> steps(k, 0.0);
  misuse::global_pool().parallel_for(0, k, [&](std::size_t c) {
    for (const std::size_t i : detector.cluster(c).test) {
      const auto score = detector.score_with_cluster(c, train.at(i).view());
      for (const double l : score.losses) loss[c] += l;
      steps[c] += static_cast<double>(score.losses.size());
    }
  });
  double total = 0.0;
  double n = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    total += loss[c];
    n += steps[c];
  }
  return n > 0.0 ? total / n : 0.0;
}

std::vector<std::vector<std::vector<int>>> route_windows(
    const MisuseDetector& detector, const std::vector<misuse::Session>& sessions) {
  std::vector<std::vector<std::vector<int>>> windows(detector.cluster_count());
  for (const auto& s : sessions) {
    if (s.length() < 2) continue;
    const std::size_t n = std::min(s.length(), kWindowActions);
    windows[detector.route(s.view())].emplace_back(s.actions.begin(),
                                                   s.actions.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return windows;
}

std::string save_bytes(const MisuseDetector& detector) {
  std::ostringstream out;
  misuse::BinaryWriter writer(out);
  detector.save(writer);
  return out.str();
}

MisuseDetector load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  misuse::BinaryReader reader(in);
  return MisuseDetector::load(reader);
}

TrainStages train_stages() {
  const misuse::TraceStats root = misuse::trace_snapshot();
  auto total = [&](std::string_view name) {
    const misuse::TraceStats* s = misuse::find_span(root, name);
    return s != nullptr ? s->total_seconds : 0.0;
  };
  TrainStages t;
  t.lda_s = total("lda.ensemble");
  t.expert_s = total("expert.cluster");
  t.ocsvm_s = total("ocsvm.train");
  t.lm_wall_s = total("lm.train");
  t.lm_cluster_sum_s = total("lm.cluster_fit");
  const misuse::TraceStats* fit = misuse::find_span(root, "lm.cluster_fit");
  t.lm_cluster_max_s = fit != nullptr ? fit->max_seconds : 0.0;
  return t;
}

double lm_train_actions(const MisuseDetector& detector, const misuse::SessionStore& train) {
  double actions = 0.0;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    double per_epoch = 0.0;
    for (const std::size_t i : detector.cluster(c).train) {
      per_epoch += static_cast<double>(train.at(i).length());
    }
    actions += per_epoch * static_cast<double>(detector.train_report(c).epochs.size());
  }
  return actions;
}

void add_train_layers(Result& r, const std::vector<TrainStages>& stages,
                      const std::vector<double>& lm_actions) {
  auto med = [&](auto field) {
    std::vector<double> xs;
    for (const auto& s : stages) xs.push_back(field(s));
    return median(xs);
  };
  const double wall = med([](const TrainStages& s) { return s.lm_wall_s; });
  const double sum = med([](const TrainStages& s) { return s.lm_cluster_sum_s; });
  const double threads = static_cast<double>(std::max<std::size_t>(1, misuse::global_pool().size()));
  r.add("topics.lda.fit_s", med([](const TrainStages& s) { return s.lda_s; }), "s");
  r.add("cluster.expert.run_s", med([](const TrainStages& s) { return s.expert_s; }), "s");
  r.add("cluster.assigner.train_s", med([](const TrainStages& s) { return s.ocsvm_s; }), "s");
  r.add("lm.fit_wall_s", wall, "s");
  r.add("lm.cluster_fit_max_s", med([](const TrainStages& s) { return s.lm_cluster_max_s; }), "s");
  r.add("lm.cluster_fit_sum_s", sum, "s");
  r.add("lm.train_actions_per_s", wall > 0.0 ? median(lm_actions) / wall : 0.0, "1/s");
  r.add("util.pool.lm_busy_frac", wall > 0.0 ? sum / (threads * wall) : 0.0, "ratio");
}

double median(const std::vector<double>& xs) { return xs.empty() ? 0.0 : misuse::median(xs); }

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

namespace {

/// Keeps every vCPU busy at idle priority while the harness runs, as
/// disabling deep idle states does on bare metal. On a 4-vCPU microVM, a
/// vCPU that halts runs about three times slower for its first second
/// back (four parallel CPU loops started after 5 s idle), so per-event
/// latency depended on how long the host had let each vCPU sleep; the
/// fanout p50 moved between 0.34 and 2.9 ms from run to run. SCHED_IDLE
/// spinners yield at once to any runnable thread, so the programs under
/// test keep every cycle they ask for.
class VcpuWarmer {
 public:
  VcpuWarmer() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~VcpuWarmer() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }
  VcpuWarmer(const VcpuWarmer&) = delete;
  VcpuWarmer& operator=(const VcpuWarmer&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

void print_host_stamp() {
  const misuse::HostInfo& host = misuse::host_info();
  std::string flags;
  for (const char* f : {"avx2", "fma", "f16c", "avx512f"}) {
    if ((" " + host.cpu_flags + " ").find(std::string(" ") + f + " ") != std::string::npos) {
      flags += std::string(flags.empty() ? "" : ",") + f;
    }
  }
  std::cerr << "host: cores=" << host.cores << " cpu=\"" << host.cpu_model << "\" flags=" << flags
            << " infer=" << misuse::nn::infer::infer_mode_name(misuse::nn::infer::effective_infer_mode())
            << " pool_threads=" << misuse::global_pool().size()
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
}

void print_result(const Result& r) {
  for (const auto& m : r.metrics) {
    std::cerr << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(16)
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  for (const auto& e : r.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  if (r.correct) {
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0;
      json << (i ? ", " : "") << "\"" << r.metrics[i].name << "\": {\"value\": " << v
           << ", \"unit\": \"" << r.metrics[i].unit << "\"}";
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--bin-dir") {
      o.bin_dir = value;
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return false;
    }
  }
  return !o.workload.empty() && !o.work_dir.empty() && o.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release" ||
      !std::string_view(PERFBENCH_SANITIZE).empty()) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << (std::string_view(PERFBENCH_SANITIZE).empty() ? "" : " sanitizer")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release and no MISUSEDET_SANITIZE\n";
    return 2;
  }
  Options options;
  if (!parse_options(argc, argv, options)) return 2;
  if (run_selftests() != 0) return 2;

  misuse::set_log_level(misuse::LogLevel::kWarn);
  misuse::core::register_core_metrics();
  print_host_stamp();
  const VcpuWarmer warmer;
  Result result;
  try {
    if (options.workload == "portal_live") {
      result = run_traffic(options, false);
    } else if (options.workload == "portal_fanout") {
      result = run_traffic(options, true);
    } else if (options.workload == "retrain") {
      result = run_retrain(options);
    } else {
      std::cerr << "unknown workload '" << options.workload
                << "' (portal_live | portal_fanout | retrain)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
