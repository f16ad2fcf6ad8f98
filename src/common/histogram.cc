#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace aerie {

void Histogram::Clear() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

int Histogram::BucketFor(uint64_t value) {
  if (value < kMinor) {
    return static_cast<int>(value);
  }
  const int log = 63 - std::countl_zero(value);
  const int major = log - kMinorBits + 1;
  const int minor =
      static_cast<int>((value >> (log - kMinorBits)) & (kMinor - 1));
  // The top major bucket (log == 63) lands well inside the array, but clamp
  // anyway so a future re-parameterization of kMinorBits/kBuckets cannot
  // silently index out of bounds.
  return std::min(major * kMinor + minor, kBuckets - 1);
}

uint64_t Histogram::BucketLow(int bucket, uint64_t* width) {
  const int major = bucket / kMinor;
  const int minor = bucket % kMinor;
  if (major == 0) {
    *width = 1;
    return static_cast<uint64_t>(minor);
  }
  const int log = major + kMinorBits - 1;
  *width = 1ULL << (log - kMinorBits);
  return (1ULL << log) + (static_cast<uint64_t>(minor) << (log - kMinorBits));
}

void Histogram::Record(uint64_t value) {
  buckets_[static_cast<size_t>(BucketFor(value))]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Subtract(const Histogram& earlier) {
  int lo = -1;
  int hi = -1;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t& bucket = buckets_[static_cast<size_t>(i)];
    bucket -= std::min(bucket, earlier.buckets_[static_cast<size_t>(i)]);
    if (bucket != 0) {
      hi = i;
      lo = lo < 0 ? i : lo;
    }
  }
  count_ -= std::min(count_, earlier.count_);
  sum_ -= std::min(sum_, earlier.sum_);
  if (count_ == 0) {
    Clear();
    return;
  }
  if (lo < 0) {
    return;  // scalar-only histogram (no buckets were serialized)
  }
  uint64_t width = 0;
  min_ = std::max(min_, BucketLow(lo, &width));
  const uint64_t hi_low = BucketLow(hi, &width);
  max_ = std::min(max_, hi_low + (width - 1));
}

void Histogram::MergeSerialized(const uint64_t* buckets, int n,
                                uint64_t count, uint64_t sum, uint64_t min,
                                uint64_t max) {
  if (count == 0) {
    return;
  }
  const int limit = std::min(n, kBuckets);
  for (int i = 0; i < limit; ++i) {
    buckets_[static_cast<size_t>(i)] += buckets[i];
  }
  count_ += count;
  sum_ += sum;
  min_ = std::min(min_, min);
  max_ = std::max(max_, max);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;  // empty histogram: every percentile is 0, like min()/max()
  }
  p = std::clamp(p, 0.0, 100.0);
  if (p == 0.0) {
    return min();
  }
  if (p == 100.0) {
    return max_;
  }
  const auto target = static_cast<uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > target) {
      // Clamping to [min, max] makes the single-sample / single-bucket case
      // exact (the bucket midpoint can sit above the only recorded value)
      // and keeps the top bucket's wide midpoint from exceeding the true
      // maximum.
      uint64_t width = 0;
      const uint64_t low = BucketLow(i, &width);
      return std::clamp(low + width / 2, min(), max());
    }
  }
  return max_;
}

std::string Histogram::SummaryString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean=%.2fus p50=%.2fus p95=%.2fus p99=%.2fus max=%.2fus "
                "n=%llu",
                Mean() / 1e3, static_cast<double>(Percentile(50)) / 1e3,
                static_cast<double>(Percentile(95)) / 1e3,
                static_cast<double>(Percentile(99)) / 1e3,
                static_cast<double>(max()) / 1e3,
                static_cast<unsigned long long>(count_));
  return buf;
}

std::string Histogram::ToJson() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"min\":%llu,\"mean\":%.1f,\"p50\":%llu,"
                "\"p95\":%llu,\"p99\":%llu,\"max\":%llu}",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(min()), Mean(),
                static_cast<unsigned long long>(Percentile(50)),
                static_cast<unsigned long long>(Percentile(95)),
                static_cast<unsigned long long>(Percentile(99)),
                static_cast<unsigned long long>(max()));
  return buf;
}

}  // namespace aerie
