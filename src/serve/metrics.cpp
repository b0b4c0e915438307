#include "serve/metrics.hpp"

namespace misuse::serve {

ServeMetrics& serve_metrics() {
  static ServeMetrics instruments{
      metrics().counter("serve.events"),
      metrics().counter("serve.steps"),
      metrics().counter("serve.alarms"),
      metrics().counter("serve.parse_errors"),
      metrics().counter("serve.sessions_opened"),
      metrics().counter("serve.sessions_evicted"),
      metrics().counter("serve.sessions_finished"),
      metrics().gauge("serve.sessions_active"),
      metrics().histogram("serve.step_seconds"),
      // Powers of two from 1 to 1024: a fused step holds at most what one
      // epoll wakeup (or one pipe-mode batch) delivered.
      metrics().histogram("serve.batch_events", exponential_buckets(1.0, 2.0, 11)),
      metrics().counter("serve.wal_appends"),
      metrics().counter("serve.wal_torn_records"),
      metrics().counter("serve.snapshot_failures"),
      metrics().counter("serve.recovered_events"),
      metrics().counter("serve.recovered_sessions"),
      metrics().counter("serve.replay_skipped"),
      metrics().gauge("serve.degraded_clusters"),
      metrics().counter("serve.swaps"),
      metrics().counter("serve.swap_sessions_rolled"),
      metrics().gauge("serve.model_version"),
      metrics().histogram("serve.swap_pause_seconds"),
      metrics().gauge("serve.drift_micronats"),
      metrics().counter("serve.reload_failures"),
      metrics().gauge("serve.reload_failure_streak"),
      metrics().counter("serve.admin.scrapes"),
      metrics().counter("serve.admin.errors"),
      metrics().counter("serve.shadow.steps"),
      metrics().counter("serve.shadow.sessions"),
      metrics().counter("serve.shadow.verdict_flips"),
      metrics().counter("serve.shadow.unknown_actions"),
      metrics().histogram("serve.shadow.loss_delta"),
  };
  return instruments;
}

}  // namespace misuse::serve
