// Unit tests for src/common: Status/Result, hashing, RNG, histogram, the
// bounded map.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/bounded_map.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/common/status.h"

namespace aerie {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st(ErrorCode::kNotFound, "no such file");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.ToString(), "not-found: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status(ErrorCode::kBusy, "later"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBusy);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status(ErrorCode::kInvalidArgument, "odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  AERIE_ASSIGN_OR_RETURN(int h, Half(x));
  AERIE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).code(), ErrorCode::kInvalidArgument);
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  // Sequential keys should land in many distinct buckets.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    buckets.insert(HashString("file" + std::to_string(i)) % 128);
  }
  EXPECT_GT(buckets.size(), 100u);
}

TEST(HashTest, Mix64IsBijectiveish) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(BoundedMapTest, NeverExceedsItsBoundAndKeepsTheNewest) {
  BoundedMap<uint64_t, uint64_t> map(8);
  size_t evicted = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    evicted += map.Emplace(k, k * 10);
    EXPECT_LE(map.size(), 8u);
  }
  EXPECT_EQ(evicted, 92u);
  // One entry at a time, and never frozen on the first contents.
  ASSERT_NE(map.Find(uint64_t{99}), nullptr);
  EXPECT_EQ(*map.Find(uint64_t{99}), 990u);
  EXPECT_EQ(map.Find(uint64_t{0}), nullptr);
}

TEST(BoundedMapTest, ReferencedEntriesSurviveASweep) {
  BoundedMap<uint64_t, int> map(4);
  for (uint64_t k = 0; k < 4; ++k) {
    map.Emplace(k, 0);
  }
  // A hot entry stays through any number of cold inserts.
  for (uint64_t k = 100; k < 200; ++k) {
    ASSERT_NE(map.Find(uint64_t{2}), nullptr) << "evicted before key " << k;
    EXPECT_EQ(map.Emplace(k, 0), 1u);
  }
  EXPECT_EQ(map.size(), 4u);
}

TEST(BoundedMapTest, EmplaceKeepsPutReplacesEraseAndClear) {
  BoundedMap<std::string, int, StringViewHash, std::equal_to<>> map(2);
  EXPECT_EQ(map.Emplace("a", 1), 0u);
  EXPECT_EQ(map.Emplace("a", 2), 0u);
  EXPECT_EQ(*map.Find(std::string_view("a")), 1);
  EXPECT_EQ(map.Put("a", 3), 0u);
  EXPECT_EQ(*map.Find(std::string_view("a")), 3);
  // Full: re-emplacing a present key evicts nothing.
  map.Emplace("b", 4);
  EXPECT_EQ(map.Emplace("b", 5), 0u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Erase(std::string_view("a")));
  EXPECT_FALSE(map.Erase(std::string_view("a")));
  EXPECT_EQ(map.Find(std::string_view("a")), nullptr);
  EXPECT_EQ(*map.Find(std::string_view("b")), 4);
  // The freed slot is reused without eviction.
  EXPECT_EQ(map.Emplace("c", 6), 0u);
  EXPECT_EQ(map.Emplace("d", 7), 1u);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(std::string_view("b")), nullptr);
  EXPECT_EQ(map.Emplace("e", 8), 0u);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_NEAR(h.Mean(), 50500.0, 1.0);
  // Log-bucketed: ~1.6% relative resolution, allow slack.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000, 5000);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 95000, 8000);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, MergeMatchesRecordingEverythingIntoOne) {
  // Merging per-thread histograms must equal one histogram that saw all
  // samples: same count, mean, extremes, and every percentile.
  Histogram combined, a, b;
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 1 + rng.Next() % 1000000;
    combined.Record(v);
    ((i % 2 == 0) ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

TEST(HistogramTest, MergeIntoEmptyAndWithEmpty) {
  Histogram empty, filled;
  filled.Record(500);
  filled.Record(700);
  Histogram target;
  target.Merge(filled);  // into empty
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 500u);
  EXPECT_EQ(target.max(), 700u);
  target.Merge(empty);  // with empty: unchanged
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 500u);
  EXPECT_EQ(target.max(), 700u);
}

TEST(HistogramTest, EmptyPercentilesAndJsonAreZero) {
  Histogram h;
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 0u) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  // The JSON summary of an empty histogram must be all-zero (the bench
  // schema requires numeric fields, never sentinel garbage from min_'s
  // ~0ULL initializer).
  EXPECT_EQ(h.ToJson(),
            "{\"count\":0,\"min\":0,\"mean\":0.0,\"p50\":0,"
            "\"p95\":0,\"p99\":0,\"max\":0}");
}

TEST(HistogramTest, SingleSamplePercentilesAreExact) {
  // One sample (one occupied bucket): every percentile is that value, not
  // the bucket midpoint (which sits above the value for wide buckets).
  for (uint64_t v : {0ull, 1ull, 4095ull, 1'000'000'007ull}) {
    Histogram h;
    h.Record(v);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
      EXPECT_EQ(h.Percentile(p), v) << "v=" << v << " p=" << p;
    }
  }
}

TEST(HistogramTest, SingleBucketManySamples) {
  // Identical samples: percentile must stay pinned to the common value.
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(77777);
  }
  EXPECT_EQ(h.Percentile(0), 77777u);
  EXPECT_EQ(h.Percentile(50), 77777u);
  EXPECT_EQ(h.Percentile(99.9), 77777u);
  EXPECT_EQ(h.Percentile(100), 77777u);
}

TEST(HistogramTest, TopBucketValuesClampToMax) {
  // Values in the highest major buckets (up to UINT64_MAX) must neither
  // index out of range nor report a percentile above the recorded maximum
  // (the top bucket's midpoint arithmetic runs close to the u64 edge).
  Histogram h;
  h.Record(~0ULL);
  h.Record(~0ULL - 1);
  h.Record(1ULL << 63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), ~0ULL);
  for (double p : {50.0, 99.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), h.min());
    EXPECT_LE(h.Percentile(p), h.max());
  }
  // Out-of-range p is clamped, not UB.
  EXPECT_EQ(h.Percentile(-5.0), h.min());
  EXPECT_EQ(h.Percentile(250.0), h.max());
}

TEST(HistogramTest, PercentileMonotonicAcrossBucketBoundaries) {
  // Samples straddling power-of-two bucket boundaries (the log-bucket major
  // edges) must still yield a monotone percentile curve clamped to
  // [min, max].
  Histogram h;
  for (uint64_t base : {1023u, 1024u, 1025u, 2047u, 2048u, 2049u, 4095u,
                        4096u, 65535u, 65536u, 65537u}) {
    for (int rep = 0; rep < 7; ++rep) {
      h.Record(base);
    }
  }
  uint64_t prev = 0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "percentile curve regressed at p=" << p;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  EXPECT_EQ(h.Percentile(0), h.min());
  EXPECT_EQ(h.Percentile(100), h.max());
}

TEST(HistogramTest, ToJsonShape) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":100000"), std::string::npos) << json;
  for (const char* key : {"\"mean\":", "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  Histogram empty;
  EXPECT_NE(empty.ToJson().find("\"count\":0"), std::string::npos);
}

}  // namespace
}  // namespace aerie
