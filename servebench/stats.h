// Fixed-memory latency histograms and span self-time arithmetic for the
// served-system benchmark. Header-only so servebench_test.cc checks the
// exact code the benchmark runs.
#ifndef METACOMM_SERVEBENCH_STATS_H_
#define METACOMM_SERVEBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace metacomm::servebench {

/// Log-linear latency histogram over nanoseconds (HdrHistogram layout):
/// values below 2^kSubBits are counted exactly, and every larger power
/// of two is split into 2^(kSubBits-1) equal buckets, so a bucket is at
/// most 1/256 of its value wide. Memory is fixed at construction, which
/// keeps the generator's footprint out of the RSS it reports.
/// Percentiles interpolate linearly inside the bucket holding the rank.
class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
  static constexpr uint64_t kHalf = kSubCount / 2;
  /// Values at or above 2^kMaxBits ns (~18 minutes) land in the top
  /// bucket.
  static constexpr int kMaxBits = 40;
  static constexpr size_t kBuckets =
      kSubCount + (kMaxBits - kSubBits) * kHalf;

  Histogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t nanos) {
    ++counts_[BucketOf(nanos)];
    ++count_;
    sum_ += nanos;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  uint64_t SumNanos() const { return sum_; }
  double MeanNanos() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// The value below which a share `p` (0 < p <= 1) of the samples
  /// fall; 0 when empty.
  double PercentileNanos(double p) const {
    if (count_ == 0) return 0.0;
    double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_);
    double before = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      double here = static_cast<double>(counts_[i]);
      if (before + here >= target) {
        double fraction = (target - before) / here;
        return static_cast<double>(BucketLow(i)) +
               fraction * static_cast<double>(BucketWidth(i));
      }
      before += here;
    }
    return static_cast<double>(BucketLow(kBuckets - 1));
  }

  static size_t BucketOf(uint64_t nanos) {
    if (nanos < kSubCount) return static_cast<size_t>(nanos);
    int msb = std::bit_width(nanos) - 1;
    if (msb >= kMaxBits) return kBuckets - 1;
    int shift = msb - (kSubBits - 1);
    uint64_t mantissa = nanos >> shift;  // In [kHalf, kSubCount).
    return static_cast<size_t>(kSubCount + (shift - 1) * kHalf +
                               (mantissa - kHalf));
  }
  static uint64_t BucketLow(size_t bucket) {
    if (bucket < kSubCount) return bucket;
    uint64_t shift = (bucket - kSubCount) / kHalf + 1;
    uint64_t mantissa = (bucket - kSubCount) % kHalf + kHalf;
    return mantissa << shift;
  }
  static uint64_t BucketWidth(size_t bucket) {
    if (bucket < kSubCount) return 1;
    return uint64_t{1} << ((bucket - kSubCount) / kHalf + 1);
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// A closed-open span interval on the steady clock, in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t duration() const { return end > begin ? end - begin : 0; }
};

/// A span's self time: its duration minus the part of it that the
/// children cover. Children may overlap one another or stick out of the
/// parent; only their union clipped to the parent is subtracted.
inline int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t cursor = parent.begin;
  for (const Interval& child : children) {
    int64_t begin = std::max(child.begin, cursor);
    int64_t end = std::min(child.end, parent.end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return parent.duration() - covered;
}

}  // namespace metacomm::servebench

#endif  // METACOMM_SERVEBENCH_STATS_H_
