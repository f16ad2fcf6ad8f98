// Latency histogram with percentile queries.
//
// Log-bucketed (HdrHistogram-style) so recording is O(1) and allocation-free
// on the hot path; benchmarks record millions of per-op latencies.
#ifndef AERIE_SRC_COMMON_HISTOGRAM_H_
#define AERIE_SRC_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

namespace aerie {

class Histogram {
 public:
  // 64 power-of-two major buckets x 16 linear minor buckets. Public because
  // the telemetry plane serializes raw bucket counts into shared memory,
  // re-merges them across processes, and subtracts two reads bucket by
  // bucket for interval tails (src/obs/telemetry.h).
  static constexpr int kMinorBits = 4;
  static constexpr int kMinor = 1 << kMinorBits;
  static constexpr int kBuckets = 64 * kMinor;

  Histogram() { Clear(); }

  void Clear();

  // Records one sample (any unit; benchmarks use nanoseconds).
  void Record(uint64_t value);

  // Merges another histogram into this one (for per-thread aggregation).
  void Merge(const Histogram& other);

  // Leaves the samples recorded since `earlier`, an older snapshot of the
  // same histogram: bucket counts, count and sum subtract, and min/max
  // narrow to the bounds of the buckets still occupied (so they, like
  // percentiles, hold to bucket resolution). `earlier` must not hold
  // samples this one lacks (no reset in between); callers check count().
  void Subtract(const Histogram& earlier);

  // Raw bucket count, i in [0, kBuckets). Pairs with MergeSerialized for
  // shared-memory round trips.
  uint64_t bucket_count(int i) const {
    return buckets_[static_cast<size_t>(i)];
  }

  // Merges a histogram that went through bucket-level serialization: `n`
  // raw bucket counts (buckets beyond n are treated as zero) plus the exact
  // scalar stats. A count of zero is a no-op, so an empty serialized
  // histogram cannot corrupt min().
  void MergeSerialized(const uint64_t* buckets, int n, uint64_t count,
                       uint64_t sum, uint64_t min, uint64_t max);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Value at percentile p in [0, 100]. Approximate to bucket resolution
  // (~1.6% relative error).
  uint64_t Percentile(double p) const;

  // "mean=12.3us p50=11us p95=20us p99=40us max=80us n=1000" with values
  // interpreted as nanoseconds.
  std::string SummaryString() const;

  // Bucket-free JSON summary:
  // {"count":N,"min":..,"mean":..,"p50":..,"p95":..,"p99":..,"max":..}
  // Values keep the recorded unit (benchmarks record nanoseconds).
  std::string ToJson() const;

 private:
  static int BucketFor(uint64_t value);
  // Smallest value that lands in `bucket`; the bucket spans *width values.
  static uint64_t BucketLow(int bucket, uint64_t* width);

  std::array<uint64_t, kBuckets> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace aerie

#endif  // AERIE_SRC_COMMON_HISTOGRAM_H_
