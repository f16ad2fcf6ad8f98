// Tests for the tracing subsystem: context minting/propagation, the
// lock-free flight recorder (wraparound, concurrent dump, off-mode), the
// Perfetto exporter, and the dump-on-CHECK / slow-op triggers.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/obs/obs.h"

namespace aerie {
namespace obs {
namespace {

// The flight recorder's per-thread ring capacity (trace.cc).
constexpr uint64_t kRingEvents = 4096;

std::vector<TraceEventView> EventsNamed(const char* name) {
  std::vector<TraceEventView> out;
  for (const TraceEventView& e : CollectTraceEvents()) {
    if (std::string_view(e.name) == name) {
      out.push_back(e);
    }
  }
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = CurrentMode();
    SetMode(Mode::kSpans);
    SetSlowTraceThresholdUs(0);
    ResetAll();  // zeroes metrics and floors the flight recorder
  }
  void TearDown() override {
    SetSlowTraceThresholdUs(0);
    SetMode(prev_mode_);
    ResetAll();
  }

 private:
  Mode prev_mode_ = Mode::kCounters;
};

TEST_F(TraceTest, RootSpanMintsTraceAndChildrenInherit) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  TraceContext outer;
  TraceContext inner;
  {
    AERIE_SPAN("pxfs", "t_root");
    outer = CurrentTraceContext();
    EXPECT_TRUE(outer.valid());
    EXPECT_EQ(outer.parent_id, 0u);
    {
      AERIE_SPAN("clerk", "t_child");
      inner = CurrentTraceContext();
    }
  }
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
  EXPECT_FALSE(CurrentTraceContext().valid());

  const auto roots = EventsNamed("pxfs.t_root");
  const auto children = EventsNamed("clerk.t_child");
  ASSERT_EQ(roots.size(), 2u);  // begin + end
  ASSERT_EQ(children.size(), 2u);
  for (const auto& e : children) {
    EXPECT_EQ(e.trace_id, outer.trace_id);
    EXPECT_EQ(e.parent_id, outer.span_id);
  }
  bool saw_end = false;
  for (const auto& e : roots) {
    if (e.kind == TraceEventKind::kSpanEnd) {
      saw_end = true;
      EXPECT_EQ(e.span_id, outer.span_id);
    }
  }
  EXPECT_TRUE(saw_end);
}

TEST_F(TraceTest, SeparateRootSpansGetSeparateTraces) {
  TraceContext first;
  TraceContext second;
  {
    AERIE_SPAN("pxfs", "t_sep");
    first = CurrentTraceContext();
  }
  {
    AERIE_SPAN("pxfs", "t_sep");
    second = CurrentTraceContext();
  }
  EXPECT_NE(first.trace_id, second.trace_id);
}

TEST_F(TraceTest, OffAndCountersModesRecordNothing) {
  for (Mode mode : {Mode::kOff, Mode::kCounters}) {
    SetMode(mode);
    {
      AERIE_SPAN("pxfs", "t_off");
      TraceInstant("test.t_off_instant", 1);
    }
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  SetMode(Mode::kSpans);
  EXPECT_TRUE(EventsNamed("pxfs.t_off").empty());
  EXPECT_TRUE(EventsNamed("test.t_off_instant").empty());
}

TEST_F(TraceTest, InstantAttributesToEnclosingSpan) {
  TraceContext ctx;
  {
    AERIE_SPAN("tfs", "t_host");
    ctx = CurrentTraceContext();
    TraceInstant("test.t_instant", 42);
  }
  const auto instants = EventsNamed("test.t_instant");
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].kind, TraceEventKind::kInstant);
  EXPECT_EQ(instants[0].trace_id, ctx.trace_id);
  EXPECT_EQ(instants[0].span_id, ctx.span_id);
  EXPECT_EQ(instants[0].arg, 42u);
}

TEST_F(TraceTest, ScopedContextInstallsAndRestores) {
  TraceContext remote;
  remote.trace_id = NewTraceId();
  remote.span_id = NewSpanId();
  {
    ScopedTraceContext scope(remote);
    EXPECT_EQ(CurrentTraceContext().trace_id, remote.trace_id);
    // A span opened under the installed context joins the remote trace
    // instead of minting — this is the RPC server dispatch path.
    AERIE_SPAN("lockservice", "t_served");
    EXPECT_EQ(CurrentTraceContext().trace_id, remote.trace_id);
    EXPECT_EQ(CurrentTraceContext().parent_id, remote.span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
  const auto served = EventsNamed("lockservice.t_served");
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served[0].trace_id, remote.trace_id);
  EXPECT_EQ(served[0].parent_id, remote.span_id);
}

TEST_F(TraceTest, WraparoundKeepsLastEventsBounded) {
  const uint64_t total = 3 * kRingEvents;
  for (uint64_t i = 0; i < total; ++i) {
    TraceInstant("test.t_wrap", i);
  }
  const auto events = EventsNamed("test.t_wrap");
  ASSERT_EQ(events.size(), kRingEvents);  // bounded, oldest overwritten
  // The surviving window is the contiguous tail ending at the last event.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, total - kRingEvents + i);
  }
}

TEST_F(TraceTest, ConcurrentWritersWithConcurrentDumper) {
  constexpr int kWriters = 4;
  const uint64_t per_writer = 2 * kRingEvents;
  std::atomic<bool> done{false};
  std::thread dumper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      // Exercise the seqlock read path against live wraparound; values are
      // checked after the writers stop.
      (void)CollectTraceEvents();
      (void)DumpTraceJson();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, per_writer] {
      for (uint64_t i = 0; i < per_writer; ++i) {
        TraceInstant("test.t_cwrap", static_cast<uint64_t>(w) * per_writer + i);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true);
  dumper.join();

  const auto events = EventsNamed("test.t_cwrap");
  EXPECT_LE(events.size(), static_cast<size_t>(kWriters) * kRingEvents);
  // Each writer thread's ring retains exactly its last kRingEvents events.
  std::map<uint32_t, uint64_t> per_tid;
  for (const auto& e : events) {
    per_tid[e.tid]++;
    const uint64_t w = e.arg / per_writer;
    EXPECT_GE(e.arg % per_writer, per_writer - kRingEvents)
        << "writer " << w << " kept an event that should be overwritten";
  }
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kRingEvents) << "tid " << tid;
  }
}

TEST_F(TraceTest, ResetFlightRecorderDropsEverything) {
  {
    AERIE_SPAN("pxfs", "t_reset");
    TraceInstant("test.t_reset_i", 1);
  }
  ASSERT_FALSE(CollectTraceEvents().empty());
  ResetFlightRecorder();
  EXPECT_TRUE(CollectTraceEvents().empty());
}

TEST_F(TraceTest, DumpTraceJsonIsWellFormedTraceEventJson) {
  SetThreadTraceName("trace_test_main");
  {
    AERIE_SPAN("pxfs", "t_json");
    TraceInstant("test.t_json_i", 9);
  }
  const std::string json = DumpTraceJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("pxfs.t_json"), std::string::npos);
  EXPECT_NE(json.find("trace_test_main"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST_F(TraceTest, WriteTraceJsonFileWritesTheDump) {
  {
    AERIE_SPAN("pxfs", "t_file");
  }
  const std::string path = ::testing::TempDir() + "/aerie_trace_test.json";
  ASSERT_TRUE(WriteTraceJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("pxfs.t_file"), std::string::npos);
  EXPECT_EQ(content.front(), '{');
}

TEST_F(TraceTest, SlowOpTriggerFiresOnlyAboveThreshold) {
  Counter& dumps = Registry::Instance().GetCounter("obs.trace.slow_dump");
  const uint64_t before = dumps.value();

  SetSlowTraceThresholdUs(1'000'000);  // 1s: nothing here is that slow
  {
    AERIE_SPAN("pxfs", "t_fast");
  }
  EXPECT_EQ(dumps.value(), before);

  SetSlowTraceThresholdUs(1);  // 1us: the spin below must exceed it
  {
    AERIE_SPAN("pxfs", "t_slow");
    SpinDelayNanos(200'000);
  }
  EXPECT_EQ(dumps.value(), before + 1);
  SetSlowTraceThresholdUs(0);
}

TEST_F(TraceTest, FlightRecorderTextFiltersByTrace) {
  TraceContext ctx;
  {
    AERIE_SPAN("pxfs", "t_trail");
    ctx = CurrentTraceContext();
    TraceInstant("test.t_trail_i", 5);
  }
  {
    AERIE_SPAN("pxfs", "t_other");
  }
  const std::string trail = FlightRecorderText(ctx.trace_id);
  EXPECT_NE(trail.find("pxfs.t_trail"), std::string::npos);
  EXPECT_NE(trail.find("test.t_trail_i"), std::string::npos);
  EXPECT_EQ(trail.find("pxfs.t_other"), std::string::npos);
}

// A failed AERIE_CHECK must dump the recorder before aborting: the matcher
// requires the crashing op's span to appear in the stderr trail.
TEST(TraceDeathTest, CheckFailureDumpsFlightRecorder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetMode(Mode::kSpans);
        {
          AERIE_SPAN("pxfs", "t_crash");
        }
        AERIE_CHECK(1 == 2);
      },
      "pxfs\\.t_crash");
  EXPECT_DEATH(
      {
        SetMode(Mode::kSpans);
        {
          AERIE_SPAN("pxfs", "t_crash2");
        }
        AERIE_CHECK(2 == 3);
      },
      "aerie flight recorder");
}

}  // namespace
}  // namespace obs
}  // namespace aerie
