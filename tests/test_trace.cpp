#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace misuse {
namespace {

// The trace tree is process-global and aggregates by name, so every test
// uses its own span names and locates them with find_span rather than
// assuming a fresh tree.

TEST(Trace, SpanRecordsIntoNamedNode) {
  { Span span("trace_test.single"); }
  const TraceStats tree = trace_snapshot();
  const TraceStats* stats = find_span(tree, "trace_test.single");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->count, 1u);
  EXPECT_GE(stats->total_seconds, 0.0);
  EXPECT_LE(stats->min_seconds, stats->max_seconds);
}

TEST(Trace, NestedSpansBecomeChildren) {
  {
    Span outer("trace_test.parent");
    Span inner("trace_test.child");
  }
  const TraceStats tree = trace_snapshot();
  const TraceStats* parent = find_span(tree, "trace_test.parent");
  ASSERT_NE(parent, nullptr);
  const TraceStats* child = find_span(*parent, "trace_test.child");
  ASSERT_NE(child, nullptr);
  EXPECT_GE(child->count, 1u);
}

TEST(Trace, SameNameAggregatesUnderSameParent) {
  {
    Span outer("trace_test.agg_parent");
    for (int i = 0; i < 5; ++i) {
      Span inner("trace_test.agg_child");
    }
  }
  const TraceStats tree = trace_snapshot();
  const TraceStats* parent = find_span(tree, "trace_test.agg_parent");
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children.size(), 1u);  // one node, not five
  EXPECT_EQ(parent->children[0].count, 5u);
  EXPECT_GE(parent->children[0].total_seconds, parent->children[0].min_seconds);
}

TEST(Trace, StopIsIdempotentAndReturnsSeconds) {
  Span span("trace_test.stop");
  const double first = span.stop();
  EXPECT_GE(first, 0.0);
  const double second = span.stop();
  EXPECT_DOUBLE_EQ(first, second);  // destructor will also be a no-op
}

TEST(Trace, SecondsReadsWithoutStopping) {
  Span span("trace_test.seconds");
  const double early = span.seconds();
  EXPECT_GE(early, 0.0);
  EXPECT_GE(span.seconds(), early);
}

TEST(Trace, SpansNestAcrossParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    Span outer("trace_test.fanout");
    pool.parallel_for(0, 64, [&](std::size_t) {
      Span inner("trace_test.fanout_task");
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 64);
  const TraceStats tree = trace_snapshot();
  const TraceStats* outer = find_span(tree, "trace_test.fanout");
  ASSERT_NE(outer, nullptr);
  // Worker-side spans attached under the span that issued the fan-out,
  // not at the root: 64 closes aggregated into one child node.
  const TraceStats* inner = find_span(*outer, "trace_test.fanout_task");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 64u);
}

TEST(Trace, SpansNestAcrossSubmit) {
  ThreadPool pool(2);
  {
    Span outer("trace_test.submit");
    auto f = pool.submit([] { Span inner("trace_test.submit_task"); });
    f.get();
  }
  const TraceStats tree = trace_snapshot();
  const TraceStats* outer = find_span(tree, "trace_test.submit");
  ASSERT_NE(outer, nullptr);
  const TraceStats* inner = find_span(*outer, "trace_test.submit_task");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->count, 1u);
}

TEST(Trace, EnsurePathCreatesZeroCountNodes) {
  trace_ensure_path({"trace_test.skeleton", "trace_test.skeleton_leaf"});
  const TraceStats tree = trace_snapshot();
  const TraceStats* node = find_span(tree, "trace_test.skeleton");
  ASSERT_NE(node, nullptr);
  const TraceStats* leaf = find_span(*node, "trace_test.skeleton_leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 0u);
  EXPECT_DOUBLE_EQ(leaf->total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(leaf->min_seconds, 0.0);  // unrecorded min reads as 0
}

TEST(Trace, FormatTreeListsSpanNames) {
  { Span span("trace_test.format"); }
  const std::string text = format_trace_tree(trace_snapshot());
  EXPECT_NE(text.find("trace_test.format"), std::string::npos);
}

TEST(Trace, ResetZeroesStatsButKeepsStructure) {
  { Span span("trace_test.reset"); }
  trace_reset();
  const TraceStats tree = trace_snapshot();
  const TraceStats* stats = find_span(tree, "trace_test.reset");
  ASSERT_NE(stats, nullptr);  // node survives
  EXPECT_EQ(stats->count, 0u);
  EXPECT_DOUBLE_EQ(stats->total_seconds, 0.0);
  // Recording works again after the reset.
  { Span span("trace_test.reset"); }
  const TraceStats tree_after = trace_snapshot();
  const TraceStats* after = find_span(tree_after, "trace_test.reset");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, 1u);
}

TEST(Trace, ChildrenAreNameSorted) {
  {
    Span outer("trace_test.sorted");
    { Span b("trace_test.sorted_b"); }
    { Span a("trace_test.sorted_a"); }
  }
  const TraceStats tree = trace_snapshot();
  const TraceStats* parent = find_span(tree, "trace_test.sorted");
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children.size(), 2u);
  EXPECT_EQ(parent->children[0].name, "trace_test.sorted_a");
  EXPECT_EQ(parent->children[1].name, "trace_test.sorted_b");
}

// --- Sampled trace events ------------------------------------------------

/// The event ring is process-global; every test enables it fresh (enable
/// clears) and disables on the way out so other tests see it off.
class EventLogGuard {
 public:
  explicit EventLogGuard(std::size_t capacity) { trace_events().enable(capacity); }
  ~EventLogGuard() { trace_events().disable(); }
};

TraceEvent make_event(const std::string& name, const std::string& track, std::uint64_t start,
                      std::uint64_t duration = 10, const std::string& args = "") {
  TraceEvent e;
  e.name = name;
  e.track = track;
  e.start_nanos = start;
  e.duration_nanos = duration;
  e.args = args;
  return e;
}

TEST(TraceEvents, DisabledRecordIsDropped) {
  trace_events().disable();
  EXPECT_FALSE(trace_events().enabled());
  trace_events().record(make_event("e", "t", 1));
  EXPECT_TRUE(trace_events().snapshot().empty());
}

TEST(TraceEvents, RingKeepsNewestAndCountsDropped) {
  EventLogGuard guard(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace_events().record(make_event("e" + std::to_string(i), "t", i));
  }
  const auto events = trace_events().snapshot();
  ASSERT_EQ(events.size(), 3u);  // bounded by capacity
  EXPECT_EQ(trace_events().dropped(), 2u);
  // Oldest-first order, holding the newest three.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
}

TEST(TraceEvents, EnableClearsAndClearKeepsEnabled) {
  EventLogGuard guard(4);
  trace_events().record(make_event("stale", "t", 1));
  trace_events().enable(4);  // re-enable = fresh ring
  EXPECT_TRUE(trace_events().snapshot().empty());
  trace_events().record(make_event("fresh", "t", 2));
  trace_events().clear();
  EXPECT_TRUE(trace_events().snapshot().empty());
  EXPECT_TRUE(trace_events().enabled());
}

TEST(TraceEvents, ChromeTraceExportShape) {
  const std::vector<TraceEvent> events = {
      make_event("step", "user1|s1", 2000, 500, "\"step\":1,\"alarm\":false"),
      make_event("step", "user2|s2", 3000, 250),
  };
  std::ostringstream out;
  write_chrome_trace(out, events);
  const std::string doc = out.str();
  // Complete events with microsecond units, plus thread_name metadata
  // naming each track lane.
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"user1|s1\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":2"), std::string::npos);   // 2000 ns -> 2 us
  EXPECT_NE(doc.find("\"dur\":0.5"), std::string::npos);  // 500 ns -> 0.5 us
  EXPECT_NE(doc.find("\"args\":{\"step\":1,\"alarm\":false}"), std::string::npos);
  // Balanced braces: args splicing must not break the document.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceEvents, NdjsonExportOneFlatObjectPerLine) {
  const std::vector<TraceEvent> events = {
      make_event("step", "k", 100, 7, "\"shard\":2"),
      make_event("report", "k", 200, 0),
  };
  std::ostringstream out;
  write_trace_events_ndjson(out, events);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":"), std::string::npos);
    EXPECT_NE(line.find("\"start_nanos\":"), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_NE(out.str().find("\"duration_nanos\":7,\"shard\":2}"), std::string::npos);
}

TEST(TraceEvents, ConcurrentRecordsAllLandWithinCapacity) {
  EventLogGuard guard(256);
  ThreadPool pool(4);
  pool.parallel_for(0, 200, [&](std::size_t i) {
    trace_events().record(make_event("c", "t" + std::to_string(i % 8), i));
  });
  EXPECT_EQ(trace_events().snapshot().size(), 200u);
  EXPECT_EQ(trace_events().dropped(), 0u);
}

}  // namespace
}  // namespace misuse
