// Unit tests for servebench's histogram percentiles and span self-time
// arithmetic. Dependency-free so the benchmark package builds wherever
// the repository does:
//
//   cmake --build .bench_build/servebench --target servebench_test
//   .bench_build/servebench/servebench_test
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "servebench/stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double actual, double expected, double relative) {
  return std::fabs(actual - expected) <= relative * std::fabs(expected);
}

using metacomm::servebench::Histogram;
using metacomm::servebench::Interval;
using metacomm::servebench::SelfTime;

void BucketsRoundTrip() {
  // Every value lands in a bucket whose range contains it, buckets are
  // contiguous, and a bucket is at most 1/256 of its value wide.
  uint64_t previous_end = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    uint64_t low = Histogram::BucketLow(b);
    EXPECT(low == previous_end);
    previous_end = low + Histogram::BucketWidth(b);
    EXPECT(Histogram::BucketOf(low) == b);
    EXPECT(Histogram::BucketOf(previous_end - 1) == b);
    if (low >= Histogram::kSubCount) {
      EXPECT(Histogram::BucketWidth(b) * 256 <= low);
    }
  }
  EXPECT(Histogram::BucketOf(~uint64_t{0}) == Histogram::kBuckets - 1);
}

void ExactBelowSubCount() {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT(h.count() == 100);
  // Bucket v covers [v, v+1); the rank interpolates inside it.
  EXPECT(h.PercentileNanos(0.5) >= 50.0 && h.PercentileNanos(0.5) <= 51.0);
  EXPECT(h.PercentileNanos(0.9) >= 90.0 && h.PercentileNanos(0.9) <= 91.0);
  EXPECT(h.PercentileNanos(1.0) <= 101.0);
  EXPECT(Near(h.MeanNanos(), 50.5, 1e-12));
}

void UniformPercentiles() {
  // 1..1000 us in 1 us steps: the p-th percentile is p * 1000 us.
  Histogram h;
  for (uint64_t us = 1; us <= 1000; ++us) h.Record(us * 1000);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT(Near(h.PercentileNanos(p), p * 1e6, 0.005));
  }
  EXPECT(Near(h.MeanNanos(), 500.5e3, 1e-12));
}

void SkewedPercentiles() {
  // 90 fast requests at 80 us and 10 slow ones at 2 ms: p50 and p90 sit
  // in the fast mode, p99 in the slow one.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(80'000);
  for (int i = 0; i < 10; ++i) h.Record(2'000'000);
  EXPECT(Near(h.PercentileNanos(0.5), 80'000, 0.005));
  EXPECT(Near(h.PercentileNanos(0.9), 80'000, 0.005));
  EXPECT(Near(h.PercentileNanos(0.99), 2'000'000, 0.005));
}

void MergeAddsCounts() {
  Histogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(10'000);
  for (int i = 0; i < 50; ++i) b.Record(30'000);
  a.Merge(b);
  EXPECT(a.count() == 100);
  EXPECT(Near(a.MeanNanos(), 20'000, 1e-12));
  EXPECT(Near(a.PercentileNanos(0.25), 10'000, 0.005));
  EXPECT(Near(a.PercentileNanos(0.75), 30'000, 0.005));
}

void EmptyHistogram() {
  Histogram h;
  EXPECT(h.PercentileNanos(0.5) == 0.0);
  EXPECT(h.MeanNanos() == 0.0);
}

void SelfTimeNested() {
  // client.call [0,100) contains server.handle [10,90), which contains
  // ltap.op [20,60): selves 20 + 40 + 40 sum to the call's 100.
  Interval call{0, 100}, handle{10, 90}, ltap{20, 60};
  int64_t net = SelfTime(call, {handle});
  int64_t handler = SelfTime(handle, {ltap});
  int64_t op = SelfTime(ltap, {});
  EXPECT(net == 20);
  EXPECT(handler == 40);
  EXPECT(op == 40);
  EXPECT(net + handler + op == call.duration());
}

void SelfTimeOverlappingChildren() {
  // Overlapping children count once: [10,40) and [30,50) cover 40.
  EXPECT(SelfTime({0, 100}, {{30, 50}, {10, 40}}) == 60);
  // A child inside another adds nothing.
  EXPECT(SelfTime({0, 100}, {{10, 80}, {20, 30}}) == 30);
}

void SelfTimeClipsToParent() {
  // Children sticking out of the parent only cover the overlap.
  EXPECT(SelfTime({10, 20}, {{0, 15}}) == 5);
  EXPECT(SelfTime({10, 20}, {{15, 40}}) == 5);
  EXPECT(SelfTime({10, 20}, {{30, 40}}) == 10);
  EXPECT(SelfTime({10, 20}, {{0, 40}}) == 0);
}

void SelfTimeDduShape() {
  // ddu [0,300) = device.command [0,100) then core.converge [100,300):
  // the ddu span's own self time is zero.
  Interval command{0, 100}, converge{100, 300};
  EXPECT(SelfTime({0, 300}, {command, converge}) == 0);
  // A commit that lands before the command returns leaves an empty
  // converge span.
  EXPECT(Interval({100, 100}).duration() == 0);
  EXPECT(Interval({100, 90}).duration() == 0);
}

}  // namespace

int main() {
  BucketsRoundTrip();
  ExactBelowSubCount();
  UniformPercentiles();
  SkewedPercentiles();
  MergeAddsCounts();
  EmptyHistogram();
  SelfTimeNested();
  SelfTimeOverlappingChildren();
  SelfTimeClipsToParent();
  SelfTimeDduShape();
  if (g_failures != 0) {
    std::fprintf(stderr, "servebench_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("servebench_test: all passed\n");
  return 0;
}
