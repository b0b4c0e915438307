// Head sampling for live trace export (--trace-sample=N): the first N
// distinct session keys the process sees get per-event TraceEvents
// (util/trace.hpp ring) spanning monitor step -> report;
// every other session costs one mutex-guarded set probe and nothing
// else. Head sampling (rather than rate sampling) is deliberate: the
// sampled sessions are complete, so their exported span trees show the
// full step/verdict lifecycle, not random slices.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

namespace misuse::serve {

class SessionTraceSampler {
 public:
  explicit SessionTraceSampler(std::size_t head_count) : head_count_(head_count) {}

  /// True iff `key` is (or just became) one of the head-sampled
  /// sessions. Thread-safe: shards call in from pool workers. The probe
  /// sits on the per-event hot path, so once the head fills the key set
  /// is sealed immutable and probes skip the mutex entirely (the
  /// acquire pairs with the sealing release, publishing the final
  /// rehash); only the brief filling phase serializes.
  bool sampled(std::string_view key) {
    if (sealed_.load(std::memory_order_acquire)) {
      return keys_.find(key) != keys_.end();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (keys_.find(key) != keys_.end()) return true;
    if (keys_.size() >= head_count_) {
      sealed_.store(true, std::memory_order_release);
      return false;
    }
    keys_.emplace(key);
    if (keys_.size() >= head_count_) sealed_.store(true, std::memory_order_release);
    return true;
  }

  std::size_t sampled_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return keys_.size();
  }

  std::size_t head_count() const { return head_count_; }

 private:
  /// Heterogeneous hashing so probes never materialize a std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const std::size_t head_count_;
  std::atomic<bool> sealed_{false};
  mutable std::mutex mutex_;
  std::unordered_set<std::string, KeyHash, std::equal_to<>> keys_;
};

}  // namespace misuse::serve
