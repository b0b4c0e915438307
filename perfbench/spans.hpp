// In-memory span log for the traced run: each span is a layer call the
// harness made (name, start, end, parent span, event or session id). The
// log is written out once, when the run ends, and per-layer self time is
// computed from it: a span's duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

class SpanLog {
 public:
  static constexpr std::int32_t kNone = -1;

  /// Records a span timed around a call (steady clock, ns); returns its
  /// handle, or kNone while the log is disabled.
  std::int32_t add(std::string_view name, std::int32_t parent, std::uint64_t id,
                   std::uint64_t start_ns, std::uint64_t end_ns);

  void set_enabled(bool on) { enabled_ = on; }
  std::size_t size() const { return spans_.size(); }

  struct Totals {
    std::uint64_t count = 0;
    double seconds = 0.0;       ///< summed durations
    double self_seconds = 0.0;  ///< summed durations minus child coverage
  };
  /// Per span name.
  std::map<std::string, Totals> totals() const;
  /// Per span name: self seconds summed per id.
  std::map<std::string, std::map<std::uint64_t, double>> self_by_id() const;

  /// One JSON object per span: name, start/end (ns), parent index, id.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    std::uint32_t name = 0;
    std::int32_t parent = kNone;
    std::uint64_t id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  std::uint32_t intern(std::string_view name);
  static double seconds(const Record& r);
  std::vector<double> self_seconds() const;  ///< per span

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Record> spans_;
};

}  // namespace perfbench
