// Per-tenant token-bucket admission for the router: each tenant
// (user_id) owns a bucket of `burst` tokens refilled at `rate`
// tokens/second; an event spends one token, and an empty bucket rejects
// the event at the router — a misbehaving tenant is throttled *before*
// its traffic can take a node's scoring time from other tenants.
//
// Refill runs on the caller's clock, and the caller names which clock
// it is. The router feeds event time when the producer stamps
// timestamps (so replayed traces throttle deterministically — the
// contract the quota tests pin) and falls back to wall clock for
// unstamped traffic. The two domains are incomparable (producer epoch
// time vs. seconds-since-boot), so each bucket keeps an independent
// baseline per domain per tenant: a tenant whose stamped events carry
// large epoch timestamps still refills normally on later unstamped
// (wall-clock) traffic, and one tenant's future timestamps never
// inflate another tenant's refill. Within a domain, time moving
// backwards refills nothing; it never drains a bucket.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>

namespace misuse::router {

struct QuotaConfig {
  double rate = 0.0;   // tokens (events) per second; <= 0 disables quotas
  double burst = 0.0;  // bucket capacity; <= 0 defaults to max(rate, 1)
};

/// Which clock `now_seconds` was read from. Elapsed time is only ever
/// measured between two readings of the same clock.
enum class QuotaClock { kWall, kEvent };

class TenantQuotas {
 public:
  explicit TenantQuotas(const QuotaConfig& config) : config_(config) {
    if (config_.burst <= 0.0) config_.burst = std::max(config_.rate, 1.0);
  }

  bool enabled() const { return config_.rate > 0.0; }

  /// True when `tenant` may send an event at `now_seconds` on `clock`
  /// (and spends the token); false when the bucket is empty. Unlimited
  /// when quotas are disabled. New tenants start with a full bucket.
  bool admit(const std::string& tenant, double now_seconds,
             QuotaClock clock = QuotaClock::kWall) {
    if (!enabled()) return true;
    auto [it, inserted] = buckets_.try_emplace(tenant, Bucket{config_.burst});
    Bucket& bucket = it->second;
    const bool is_wall = clock == QuotaClock::kWall;
    double& last = is_wall ? bucket.last_wall : bucket.last_event;
    bool& seen = is_wall ? bucket.seen_wall : bucket.seen_event;
    if (seen) {
      const double elapsed = std::max(0.0, now_seconds - last);
      bucket.tokens = std::min(config_.burst, bucket.tokens + elapsed * config_.rate);
      last = std::max(last, now_seconds);
    } else {
      // First reading in this domain: a baseline, never a refill (the
      // other domain's baseline says nothing about elapsed time here).
      last = now_seconds;
      seen = true;
    }
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  std::size_t tenants() const { return buckets_.size(); }

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_wall = 0.0;   // valid only when seen_wall
    double last_event = 0.0;  // valid only when seen_event
    bool seen_wall = false;
    bool seen_event = false;
  };
  QuotaConfig config_;
  std::unordered_map<std::string, Bucket> buckets_;
};

}  // namespace misuse::router
