// Tests for the observability layer: registry, counters, gauges,
// histograms, trace spans, mode gating and exporters.
#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace aerie {
namespace obs {
namespace {

// Every test starts from counters mode with zeroed metrics; the registry is
// process-global, so tests share interned metrics but never their values.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMode(Mode::kCounters);
    ResetAll();
  }
  void TearDown() override {
    SetMode(Mode::kCounters);
    ResetAll();
  }
};

TEST_F(ObsTest, CounterBasics) {
  Counter& c = Registry::Instance().GetCounter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.load(), 42u);  // atomic-compatible alias
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, InterningReturnsSameMetric) {
  Counter& a = Registry::Instance().GetCounter("test.counter.interned");
  Counter& b = Registry::Instance().GetCounter("test.counter.interned");
  EXPECT_EQ(&a, &b);
  SpanStat& s1 = Registry::Instance().GetSpan("test.span.interned");
  SpanStat& s2 = Registry::Instance().GetSpan("test.span.interned");
  EXPECT_EQ(&s1, &s2);
}

TEST_F(ObsTest, GaugeSetAddSub) {
  Gauge& g = Registry::Instance().GetGauge("test.gauge.basic");
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.value(), 12);
}

TEST_F(ObsTest, ConcurrentCounterIncrements) {
  Counter& c = Registry::Instance().GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, ConcurrentHistogramRecords) {
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("test.hist.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * 1000 + (i % 100)));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Snapshot().count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, OffModeRecordsNothing) {
  Counter& c = Registry::Instance().GetCounter("test.counter.off");
  Gauge& g = Registry::Instance().GetGauge("test.gauge.off");
  LatencyHistogram& h = Registry::Instance().GetHistogram("test.hist.off");
  SpanStat& s = Registry::Instance().GetSpan("test.span.off");

  SetMode(Mode::kOff);
  c.Add(7);
  g.Set(7);
  h.Record(7);
  {
    ScopedSpan span(SpansOn() ? &s : nullptr);
    SpinDelayNanos(100);
  }
  { AERIE_SPAN("test", "off_macro"); }
  AERIE_COUNT("test.counter.off_macro");
  SetMode(Mode::kCounters);

  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.Snapshot().count(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(Registry::Instance().GetSpan("test.off_macro").count(), 0u);
  EXPECT_EQ(Registry::Instance()
                .GetCounter("test.counter.off_macro")
                .value(),
            0u);
}

TEST_F(ObsTest, CountersModeDoesNotRecordSpans) {
  SpanStat& s = Registry::Instance().GetSpan("test.span.counters_mode");
  ASSERT_EQ(CurrentMode(), Mode::kCounters);
  { AERIE_SPAN("test", "span.counters_mode"); }
  EXPECT_EQ(s.count(), 0u);
}

TEST_F(ObsTest, SpanRecordsInSpanMode) {
  SetMode(Mode::kSpans);
  SpanStat& s = Registry::Instance().GetSpan("test.span.basic");
  {
    ScopedSpan span(&s);
    SpinDelayNanos(20'000);
  }
  EXPECT_EQ(s.count(), 1u);
  EXPECT_GE(s.total_ns(), 20'000u);
  EXPECT_EQ(s.total_ns(), s.self_ns());  // no children
  EXPECT_EQ(s.SelfSnapshot().count(), 1u);
}

TEST_F(ObsTest, SpanNestingAttributesSelfTime) {
  SetMode(Mode::kSpans);
  SpanStat& parent = Registry::Instance().GetSpan("test.span.parent");
  SpanStat& child = Registry::Instance().GetSpan("test.span.child");
  {
    ScopedSpan outer(&parent);
    SpinDelayNanos(30'000);
    {
      ScopedSpan inner(&child);
      SpinDelayNanos(30'000);
    }
    SpinDelayNanos(30'000);
  }
  EXPECT_EQ(parent.count(), 1u);
  EXPECT_EQ(child.count(), 1u);
  // The child's wall time is subtracted from the parent's self time, and
  // the arithmetic is exact: parent self + child total == parent total.
  EXPECT_EQ(parent.self_ns() + child.total_ns(), parent.total_ns());
  EXPECT_GE(child.total_ns(), 30'000u);
  EXPECT_GE(parent.self_ns(), 60'000u);
  EXPECT_LT(parent.self_ns(), parent.total_ns());
}

TEST_F(ObsTest, SpanChainSurvivesThreeLevels) {
  SetMode(Mode::kSpans);
  SpanStat& a = Registry::Instance().GetSpan("test.span3.a");
  SpanStat& b = Registry::Instance().GetSpan("test.span3.b");
  SpanStat& c = Registry::Instance().GetSpan("test.span3.c");
  {
    ScopedSpan sa(&a);
    SpinDelayNanos(5'000);
    {
      ScopedSpan sb(&b);
      SpinDelayNanos(5'000);
      {
        ScopedSpan sc(&c);
        SpinDelayNanos(5'000);
      }
    }
  }
  EXPECT_EQ(b.self_ns() + c.total_ns(), b.total_ns());
  EXPECT_EQ(a.self_ns() + b.total_ns(), a.total_ns());
}

TEST_F(ObsTest, SpansAreThreadLocal) {
  SetMode(Mode::kSpans);
  SpanStat& parent = Registry::Instance().GetSpan("test.span.tls_parent");
  SpanStat& other = Registry::Instance().GetSpan("test.span.tls_other");
  {
    ScopedSpan outer(&parent);
    // A span on another thread must NOT become our child.
    std::thread t([&other] {
      ScopedSpan inner(&other);
      SpinDelayNanos(50'000);
    });
    t.join();
  }
  EXPECT_EQ(parent.count(), 1u);
  EXPECT_EQ(other.count(), 1u);
  // other ran on its own thread: parent's self time equals its total.
  EXPECT_EQ(parent.self_ns(), parent.total_ns());
}

TEST_F(ObsTest, InstanceMetricsAggregateByName) {
  const uint64_t base =
      [] {
        for (const auto& snap : Registry::Instance().Collect()) {
          if (snap.name == "test.instance.shared") {
            return snap.counter;
          }
        }
        return uint64_t{0};
      }();
  Counter a("test.instance.shared");
  Counter b("test.instance.shared");
  ScopedRegistration reg;
  reg.AddAll(a, b);
  a.Add(3);
  b.Add(4);
  bool found = false;
  for (const auto& snap : Registry::Instance().Collect()) {
    if (snap.name == "test.instance.shared") {
      EXPECT_EQ(snap.counter, base + 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, UnregisteredInstanceDisappears) {
  const size_t before = Registry::Instance().MetricCountForTesting();
  {
    Counter c("test.instance.transient");
    ScopedRegistration reg;
    reg.Add(&c);
    EXPECT_EQ(Registry::Instance().MetricCountForTesting(), before + 1);
  }
  EXPECT_EQ(Registry::Instance().MetricCountForTesting(), before);
}

TEST_F(ObsTest, RegistryIterationStableUnderConcurrentMutation) {
  std::atomic<bool> stop{false};
  // Readers snapshot the registry while writers register/unregister
  // instance metrics and intern new names.
  std::thread reader([&stop] {
    while (!stop.load()) {
      auto snaps = Registry::Instance().Collect();
      // Snapshot must be sorted and free of duplicate names.
      for (size_t i = 1; i < snaps.size(); ++i) {
        ASSERT_LT(snaps[i - 1].name, snaps[i].name);
      }
      (void)DumpText();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([w, &stop] {
      int round = 0;
      while (!stop.load()) {
        Counter c("test.churn.instance" + std::to_string(w));
        ScopedRegistration reg;
        reg.Add(&c);
        c.Add(1);
        Registry::Instance()
            .GetCounter("test.churn.interned" + std::to_string(w) + "." +
                        std::to_string(round % 8))
            .Add(1);
        round++;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  reader.join();
  for (auto& t : writers) {
    t.join();
  }
}

TEST_F(ObsTest, KindClashYieldsFallbackMetric) {
  Registry::Instance().GetCounter("test.clash.name");
  // Asking for the same name as a different kind must not crash or corrupt
  // the counter; it returns a distinct fallback metric.
  Gauge& g = Registry::Instance().GetGauge("test.clash.name");
  g.Set(5);
  EXPECT_EQ(Registry::Instance().GetCounter("test.clash.name").value(), 0u);
}

TEST_F(ObsTest, ParseModeSpellings) {
  EXPECT_EQ(ParseMode("off"), Mode::kOff);
  EXPECT_EQ(ParseMode("0"), Mode::kOff);
  EXPECT_EQ(ParseMode("none"), Mode::kOff);
  EXPECT_EQ(ParseMode("counters"), Mode::kCounters);
  EXPECT_EQ(ParseMode("1"), Mode::kCounters);
  EXPECT_EQ(ParseMode("spans"), Mode::kSpans);
  EXPECT_EQ(ParseMode("2"), Mode::kSpans);
  EXPECT_EQ(ParseMode("all"), Mode::kSpans);
  EXPECT_EQ(ParseMode("garbage"), Mode::kCounters);
}

TEST_F(ObsTest, DumpJsonContainsMetricsAndLayers) {
  SetMode(Mode::kSpans);
  Registry::Instance().GetCounter("test.json.counter").Add(3);
  {
    AERIE_SPAN("testlayer", "op");
    SpinDelayNanos(1'000);
  }
  const std::string json = DumpJson();
  // Downstream parsers key on an explicit schema version, leading the dump.
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"testlayer.op\""), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"testlayer\""), std::string::npos);

  const std::string text = DumpText();
  EXPECT_NE(text.find("test.json.counter"), std::string::npos);

  const std::string table = LayerBreakdownText();
  EXPECT_NE(table.find("testlayer"), std::string::npos);
}

// A layer that waited but has no self time reads the same wait% in the
// text table as in LayerRows (the rows aerie_top and DumpJson print).
TEST_F(ObsTest, LayerWaitPctAgreesForWaitsWithZeroSelfTime) {
  SpanStat& span = Registry::Instance().GetSpan("waitonly.op");
  span.Record(/*total_ns=*/0, /*self_ns=*/0);
  span.AddWaitNs(WaitKind::kLock, 5'000);

  const auto rows = LayerRows(Registry::Instance().Collect());
  const auto it = std::find_if(rows.begin(), rows.end(), [](const auto& r) {
    return r.layer == "waitonly";
  });
  ASSERT_NE(it, rows.end());
  EXPECT_EQ(it->self_ns, 0u);
  EXPECT_EQ(it->lock_wait_ns, 5'000u);
  EXPECT_DOUBLE_EQ(it->WaitPct(), 100.0);

  const std::string table = LayerBreakdownText();
  const size_t line = table.find("\nwaitonly ");
  ASSERT_NE(line, std::string::npos) << table;
  const size_t end = table.find('\n', line + 1);
  const std::string row = table.substr(line + 1, end - line - 1);
  char pct[16];
  std::snprintf(pct, sizeof(pct), "%5.1f%%", it->WaitPct());
  EXPECT_EQ(row.substr(row.size() - std::strlen(pct)), pct) << row;
}

// JSON well-formedness (RFC 8259 grammar, no semantics): true when `s` is
// exactly one JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool Valid() {
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  bool At(const char* set) const {
    return pos_ < s_.size() && s_[pos_] != '\0' &&
           std::strchr(set, s_[pos_]) != nullptr;
  }
  void SkipSpace() {
    while (At(" \t\n\r")) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') {
        return true;
      }
      if (c < 0x20) {
        return false;
      }
      if (c != '\\') {
        continue;
      }
      if (At("\"\\/bfnrt")) {
        ++pos_;
      } else if (Word("u")) {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
            return false;
          }
        }
      } else {
        return false;
      }
    }
    return false;
  }
  bool Value() {
    SkipSpace();
    if (Eat('{')) {
      if (Eat('}')) {
        return true;
      }
      do {
        if (!String() || !Eat(':') || !Value()) {
          return false;
        }
      } while (Eat(','));
      return Eat('}');
    }
    if (Eat('[')) {
      if (Eat(']')) {
        return true;
      }
      do {
        if (!Value()) {
          return false;
        }
      } while (Eat(','));
      return Eat(']');
    }
    if (At("\"")) {
      return String();
    }
    if (Word("true") || Word("false") || Word("null")) {
      return true;
    }
    const size_t start = pos_;
    while (At("+-0123456789.eE")) {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

TEST_F(ObsTest, JsonEscapeEscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain.name_1"), "plain.name_1");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\x01" "e"), R"(a\"b\\c\u000ad\u0001e)");
}

// A metric name is caller text; whatever it holds, the registry dump must
// stay one valid JSON document and carry the name escaped.
TEST_F(ObsTest, DumpJsonStaysValidWithControlCharactersInNames) {
  Registry::Instance().GetCounter("test.esc\"q\\b\nn\x01" "x").Add(2);
  const std::string json = DumpJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find(R"("test.esc\"q\\b\u000an\u0001x":2)"),
            std::string::npos)
      << json;
  EXPECT_FALSE(JsonChecker(R"({"a":"x)" "\n" R"("})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").Valid());
}

TEST_F(ObsTest, RpcMethodStatsUseRegisteredNames) {
  SetRpcMethodName(0xbeef, "test.method");
  RpcMethodStats& stats = RpcMethodStatsFor(0xbeef);
  stats.calls.Add(1);
  stats.bytes_out.Add(100);
  EXPECT_EQ(
      Registry::Instance().GetCounter("rpc.test.method.calls").value(), 1u);
  // Same method id resolves to the same stats block.
  EXPECT_EQ(&RpcMethodStatsFor(0xbeef), &stats);
  // Unnamed methods render in hex.
  RpcMethodStats& anon = RpcMethodStatsFor(0x7a7a);
  anon.calls.Add(2);
  EXPECT_EQ(Registry::Instance().GetCounter("rpc.m7a7a.calls").value(), 2u);
}

TEST_F(ObsTest, ResetAllZeroesEverything) {
  SetMode(Mode::kSpans);
  Counter& c = Registry::Instance().GetCounter("test.reset.counter");
  SpanStat& s = Registry::Instance().GetSpan("test.reset.span");
  c.Add(9);
  {
    ScopedSpan span(&s);
    SpinDelayNanos(100);
  }
  ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.total_ns(), 0u);
  EXPECT_EQ(s.SelfSnapshot().count(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace aerie
