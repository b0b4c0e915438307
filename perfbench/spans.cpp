#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::string_view name, std::int32_t parent, std::uint64_t id,
                          std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) return kNone;
  spans_.push_back({intern(name), parent, id, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SpanLog::seconds(const Record& r) {
  return r.end_ns > r.start_ns ? static_cast<double>(r.end_ns - r.start_ns) * 1e-9 : 0.0;
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent != kNone) child_cover[static_cast<std::size_t>(r.parent)] += seconds(r);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = std::max(0.0, seconds(spans_[i]) - child_cover[i]);
  }
  return out;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[names_[spans_[i].name]];
    t.count += 1;
    t.seconds += seconds(spans_[i]);
    t.self_seconds += self[i];
  }
  return out;
}

std::map<std::string, std::map<std::uint64_t, double>> SpanLog::self_by_id() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]][spans_[i].id] += self[i];
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Record& r : spans_) {
    out << "{\"name\":\"" << names_[r.name] << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent << ",\"id\":" << r.id
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
