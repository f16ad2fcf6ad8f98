// Tests for the live telemetry plane (src/obs/telemetry.h): seqlock
// publish/snapshot under concurrency, dead-pid segment GC, cross-process
// metric merging, and interval tails from two reads.
//
// The storm test is the TSan target (tools/check_tsan.sh builds the whole
// tree with -fsanitize=thread): a writer thread hammers a counter and a
// histogram while a publisher thread republished the segment and a reader
// thread snapshots it, asserting every accepted snapshot is internally
// consistent and counter values never move backwards.
#include "src/obs/telemetry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/obs.h"

namespace aerie {
namespace obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = CurrentMode();
    SetMode(Mode::kCounters);
    dir_ = ::testing::TempDir() + "telemetry_test_" +
           std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    Registry::Instance().ResetAll();
  }

  void TearDown() override {
    std::filesystem::remove_all(dir_);
    SetMode(prev_mode_);
  }

  // Publishes the registry to this test's directory and reads it back.
  TelemetrySnapshot PublishAndRead(TelemetryPublisher& pub) {
    pub.PublishNow();
    TelemetrySnapshot snap;
    EXPECT_TRUE(ReadTelemetrySegment(pub.path(), &snap));
    return snap;
  }

  std::string dir_;
  Mode prev_mode_ = Mode::kCounters;
};

TEST_F(TelemetryTest, PublishAndReadRoundTrip) {
  Counter& c = Registry::Instance().GetCounter("telemetry.test.roundtrip");
  c.Add(41);
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.test.lat");
  h.Record(1000);
  h.Record(2000);

  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  opt.process_name = "roundtrip_test";
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);
  c.Add(1);
  pub->PublishNow();

  TelemetrySnapshot snap;
  ASSERT_TRUE(ReadTelemetrySegment(pub->path(), &snap));
  EXPECT_EQ(snap.pid, static_cast<uint64_t>(::getpid()));
  EXPECT_EQ(snap.process_name, "roundtrip_test");
  EXPECT_GE(snap.publish_count, 2u);

  bool saw_counter = false;
  bool saw_hist = false;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.name == "telemetry.test.roundtrip") {
      saw_counter = true;
      EXPECT_EQ(m.kind, Metric::Kind::kCounter);
      EXPECT_EQ(m.counter, 42u);
    }
    if (m.name == "telemetry.test.lat") {
      saw_hist = true;
      EXPECT_EQ(m.kind, Metric::Kind::kHistogram);
      // The bucket blob made it across: its counts add up to the count.
      uint64_t bucketed = 0;
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        bucketed += m.hist.bucket_count(i);
      }
      EXPECT_EQ(bucketed, 2u);
      EXPECT_EQ(m.hist.count(), 2u);
      EXPECT_EQ(m.hist.sum(), 3000u);
      EXPECT_EQ(m.hist.min(), 1000u);
      EXPECT_EQ(m.hist.max(), 2000u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST_F(TelemetryTest, SegmentUnlinkedOnDestruction) {
  std::string path;
  {
    TelemetryPublisher::Options opt;
    opt.dir = dir_;
    auto pub = TelemetryPublisher::Create(opt);
    ASSERT_NE(pub, nullptr);
    path = pub->path();
    struct stat sb{};
    EXPECT_EQ(::stat(path.c_str(), &sb), 0);
    EXPECT_EQ(static_cast<uint64_t>(sb.st_size), TelemetrySegmentBytes());
  }
  struct stat sb{};
  EXPECT_NE(::stat(path.c_str(), &sb), 0);
}

TEST_F(TelemetryTest, DeadPidSegmentGarbageCollected) {
  // A fake segment for a pid that cannot exist (beyond pid_max) plus a live
  // one for this process. GC must reap exactly the dead one.
  TelemetryPublisher::Options dead;
  dead.dir = dir_;
  dead.pid = 999999999;  // > kernel.pid_max (max 2^22)
  auto dead_pub = TelemetryPublisher::Create(dead);
  ASSERT_NE(dead_pub, nullptr);
  const std::string dead_path = dead_pub->path();
  // Keep the file on disk but drop the publisher's ownership by re-linking:
  // simplest is to let the publisher live and GC while it exists.

  TelemetryPublisher::Options live;
  live.dir = dir_;
  auto live_pub = TelemetryPublisher::Create(live);
  ASSERT_NE(live_pub, nullptr);

  int gc_count = 0;
  auto snaps = ReadTelemetryDir(dir_, /*gc_dead=*/true, &gc_count);
  EXPECT_EQ(gc_count, 1);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].pid, static_cast<uint64_t>(::getpid()));
  struct stat sb{};
  EXPECT_NE(::stat(dead_path.c_str(), &sb), 0);

  // Without gc_dead, a (re-created) dead segment is read, not reaped.
  dead_pub->PublishNow();  // recreate? segment was unlinked; mapping remains
  snaps = ReadTelemetryDir(dir_, /*gc_dead=*/false, &gc_count);
  EXPECT_EQ(gc_count, 0);
  EXPECT_EQ(snaps.size(), 1u);  // dead segment file is gone; only live left
}

TEST_F(TelemetryTest, MergeAcrossSnapshots) {
  TelemetrySnapshot a;
  TelemetrySnapshot b;
  MetricSnapshot ca;
  ca.name = "x.calls";
  ca.kind = Metric::Kind::kCounter;
  ca.counter = 10;
  MetricSnapshot cb = ca;
  cb.counter = 32;
  a.metrics.push_back(ca);
  b.metrics.push_back(cb);

  MetricSnapshot ha;
  ha.name = "x.lat";
  ha.kind = Metric::Kind::kHistogram;
  ha.hist.Record(100);
  MetricSnapshot hb = ha;
  hb.hist.Record(300);
  a.metrics.push_back(ha);
  b.metrics.push_back(hb);

  auto merged = MergeTelemetry({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "x.calls");
  EXPECT_EQ(merged[0].counter, 42u);
  EXPECT_EQ(merged[1].name, "x.lat");
  EXPECT_EQ(merged[1].hist.count(), 3u);
  EXPECT_EQ(merged[1].hist.min(), 100u);
  EXPECT_EQ(merged[1].hist.max(), 300u);
}

// The TSan storm: counter increments and histogram records race publishes
// and reads. Accepted snapshots must be internally consistent (the counter
// never moves backwards across accepted reads).
TEST_F(TelemetryTest, ConcurrentPublishSnapshotStorm) {
  Counter& c = Registry::Instance().GetCounter("telemetry.storm.counter");
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.storm.lat");

  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.Add(1);
      h.Record(100 + (i++ % 1000));
    }
  });
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pub->PublishNow();
    }
  });

  uint64_t last_counter = 0;
  uint64_t accepted = 0;
  const std::string path = pub->path();
  // On a loaded host the writer may not have run before the first reads;
  // keep reading until an accepted snapshot shows its progress, so the
  // outcome depends on progress, not on scheduling.
  for (int i = 0; i < 500 || last_counter == 0; ++i) {
    TelemetrySnapshot snap;
    if (!ReadTelemetrySegment(path, &snap)) {
      continue;
    }
    ++accepted;
    for (const MetricSnapshot& m : snap.metrics) {
      if (m.name == "telemetry.storm.counter") {
        EXPECT_GE(m.counter, last_counter)
            << "counter moved backwards across accepted snapshots";
        last_counter = m.counter;
      }
      if (m.name == "telemetry.storm.lat" && m.hist.count() != 0) {
        EXPECT_GE(m.hist.max(), m.hist.min());
        EXPECT_GE(m.hist.sum(), m.hist.count() * m.hist.min());
      }
    }
  }
  stop.store(true);
  writer.join();
  publisher.join();
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(last_counter, 0u);
}

// --- Interval tails (IntervalTelemetry) ------------------------------------

const MetricSnapshot* Row(const std::vector<MetricSnapshot>& rows,
                          const std::string& name) {
  for (const MetricSnapshot& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

TEST_F(TelemetryTest, IntervalExcludesSamplesBeforeThePreviousRead) {
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.interval.lat");
  Counter& c = Registry::Instance().GetCounter("telemetry.interval.calls");
  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);

  for (int i = 0; i < 100; ++i) {
    h.Record(1'000'000);  // before the first read: excluded
  }
  c.Add(7);
  const TelemetrySnapshot first = PublishAndRead(*pub);
  for (int i = 0; i < 10; ++i) {
    h.Record(1'000);
  }
  c.Add(5);
  const TelemetrySnapshot second = PublishAndRead(*pub);

  const auto interval = IntervalTelemetry({first}, {second});
  const MetricSnapshot* lat = Row(interval, "telemetry.interval.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), 10u);
  EXPECT_EQ(lat->hist.sum(), 10'000u);
  // p50 and the bounds hold to bucket resolution (~1/16 relative).
  EXPECT_NEAR(static_cast<double>(lat->hist.Percentile(50)), 1000.0, 64.0);
  EXPECT_LE(lat->hist.max(), 1'100u);
  EXPECT_GE(lat->hist.min(), 900u);
  const MetricSnapshot* calls = Row(interval, "telemetry.interval.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->counter, 5u);
}

TEST_F(TelemetryTest, IntervalAfterResetCountsTheCurrentHistogram) {
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.interval.reset");
  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);

  for (int i = 0; i < 50; ++i) {
    h.Record(5'000);
  }
  const TelemetrySnapshot first = PublishAndRead(*pub);
  Registry::Instance().ResetAll();
  for (int i = 0; i < 3; ++i) {
    h.Record(200);
  }
  const TelemetrySnapshot second = PublishAndRead(*pub);

  const auto interval = IntervalTelemetry({first}, {second});
  const MetricSnapshot* lat = Row(interval, "telemetry.interval.reset");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), 3u);
  EXPECT_EQ(lat->hist.sum(), 600u);
  EXPECT_EQ(lat->hist.min(), 200u);
  EXPECT_EQ(lat->hist.max(), 200u);
  EXPECT_EQ(lat->hist.Percentile(50), 200u);
}

TEST_F(TelemetryTest, IntervalCountsANewProcessWhole) {
  MetricSnapshot lat;
  lat.name = "x.lat";
  lat.kind = Metric::Kind::kHistogram;
  lat.hist.Record(100);
  TelemetrySnapshot old_a;
  old_a.pid = 1;
  old_a.metrics.push_back(lat);
  TelemetrySnapshot a = old_a;
  a.metrics[0].hist.Record(100);  // one sample in the interval
  TelemetrySnapshot b;  // only in the second read
  b.pid = 2;
  b.metrics.push_back(lat);
  b.metrics[0].hist.Record(300);
  b.metrics[0].hist.Record(300);

  const auto interval = IntervalTelemetry({old_a}, {a, b});
  ASSERT_EQ(interval.size(), 1u);
  EXPECT_EQ(interval[0].hist.count(), 1u + 3u);
  EXPECT_EQ(interval[0].hist.sum(), 100u + 700u);
  EXPECT_EQ(interval[0].hist.Percentile(100), 300u);
}

// --- Write-amplification arithmetic ----------------------------------------

TEST(WriteAmpTest, ComputeFromCounters) {
  std::vector<std::pair<std::string, uint64_t>> counters = {
      {"pxfs.api.logical_write_bytes", 1000},
      {"flatfs.api.logical_write_bytes", 1000},
      {"scm.layer.txlog.lines_flushed", 10},     // 640 physical bytes
      {"scm.layer.txlog.bytes_streamed", 512},
      {"scm.layer.txlog.fences", 3},
      {"scm.layer.osd.lines_flushed", 50},       // 3200 physical bytes
      {"scm.flush.lines", 60},                   // unrelated: not per-layer
  };
  const WriteAmpReport amp = ComputeWriteAmp(counters);
  EXPECT_EQ(amp.logical_bytes, 2000u);
  EXPECT_EQ(amp.physical_bytes, 60u * kWriteAmpLineBytes);
  EXPECT_DOUBLE_EQ(amp.amplification, 3840.0 / 2000.0);
  ASSERT_EQ(amp.layers.size(), 2u);
  EXPECT_EQ(amp.layers[0].layer, "osd");
  EXPECT_EQ(amp.layers[0].physical_bytes, 3200u);
  EXPECT_EQ(amp.layers[1].layer, "txlog");
  EXPECT_EQ(amp.layers[1].physical_bytes, 640u);
  EXPECT_EQ(amp.layers[1].streamed_bytes, 512u);
  EXPECT_EQ(amp.layers[1].fences, 3u);
  EXPECT_DOUBLE_EQ(amp.layers[1].amplification, 640.0 / 2000.0);
}

TEST(WriteAmpTest, ZeroLogicalBytesYieldsZeroAmplification) {
  const WriteAmpReport amp =
      ComputeWriteAmp({{"scm.layer.osd.lines_flushed", 4}});
  EXPECT_EQ(amp.logical_bytes, 0u);
  EXPECT_EQ(amp.physical_bytes, 4u * kWriteAmpLineBytes);
  EXPECT_EQ(amp.amplification, 0.0);
  ASSERT_EQ(amp.layers.size(), 1u);
  EXPECT_EQ(amp.layers[0].amplification, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace aerie
