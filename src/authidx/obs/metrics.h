#ifndef AUTHIDX_OBS_METRICS_H_
#define AUTHIDX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/mutex.h"
#include "authidx/common/thread_annotations.h"

namespace authidx::obs {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
/// Thread-safe; the unit for every duration metric in this registry.
uint64_t MonotonicNowNs();

/// Monotonically increasing event count (e.g. cache hits). Increments
/// land on one of a small fixed set of cache-line-padded shards chosen
/// per thread, so concurrent writers do not contend on one line.
/// Thread-safe; Inc() never allocates.
class Counter {
 public:
  Counter() = default;

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `delta` (relaxed order). Wait-free, allocation-free.
  void Inc(uint64_t delta = 1);

  /// Sum over all shards. Racy-but-consistent under concurrent Inc: the
  /// result is some value between the true count before and after the
  /// call.
  uint64_t Value() const;

 private:
  static constexpr size_t kShards = 8;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  Shard shards_[kShards];
};

/// Last-written instantaneous value (e.g. cache bytes in use).
/// Thread-safe; Set/Add never allocate.
class Gauge {
 public:
  Gauge() = default;

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  /// Overwrites the value (relaxed order).
  void Set(int64_t value);

  /// Adds `delta` (may be negative; relaxed order).
  void Add(int64_t delta);

  /// Current value.
  int64_t Value() const;

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one LatencyHistogram (see Snapshot()).
struct HistogramSnapshot {
  /// Total recorded samples.
  uint64_t count = 0;
  /// Sum of all recorded values, in the histogram's unit (ns).
  uint64_t sum = 0;
  /// Median estimate in ns; 0 when count == 0. Relative error is
  /// bounded by the bucket width (<= 12.5%, see LatencyHistogram).
  uint64_t p50 = 0;
  /// 90th percentile estimate in ns; same error bound as p50.
  uint64_t p90 = 0;
  /// 99th percentile estimate in ns; same error bound as p50.
  uint64_t p99 = 0;
  /// Coarse upper bounds (powers of 4 ns) for Prometheus-style
  /// exposition; the final implicit bucket is +Inf.
  std::vector<uint64_t> bounds;
  /// Cumulative counts: cumulative[i] = samples <= bounds[i].
  std::vector<uint64_t> cumulative;
};

/// Fixed-bucket log-linear latency histogram over uint64 nanoseconds.
/// Buckets are exact below 4 ns, then 4 linear sub-buckets per power of
/// two, so any recorded value lands in a bucket whose width is at most
/// 1/4 of its lower bound: quantile estimates (bucket midpoint) carry a
/// relative error <= 12.5%. All buckets are preallocated at
/// construction; Record() is wait-free, allocation-free, thread-safe.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample in ns. Wait-free, allocation-free.
  void Record(uint64_t value_ns);

  /// Total recorded samples.
  uint64_t Count() const;

  /// Sum of recorded samples in ns.
  uint64_t SumNs() const;

  /// Quantile estimate in ns for q in [0, 1]; 0 when empty. Returns the
  /// midpoint of the bucket holding the rank-ceil(q * count) sample.
  uint64_t QuantileNs(double q) const;

  /// Consistent-enough point-in-time view (buckets are read without a
  /// global lock; concurrent Record()s may or may not be included).
  HistogramSnapshot Snapshot() const;

  /// Index of the bucket holding `value` (exposed for tests).
  static size_t BucketIndex(uint64_t value);

  /// Inclusive lower bound of bucket `index` (exposed for tests).
  static uint64_t BucketLowerBound(size_t index);

  /// Exclusive upper bound of bucket `index` (exposed for tests).
  static uint64_t BucketUpperBound(size_t index);

 private:
  // 4 exact buckets (0..3) + 4 sub-buckets per octave for octaves
  // 2..63: indices 4 .. (62*4+3) = 251.
  static constexpr size_t kBuckets = 252;

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Kind of an exported metric.
enum class MetricType {
  kCounter,
  kGauge,
  kHistogram,
};

/// Point-in-time value of one registered metric.
struct MetricValue {
  /// Registered metric name (e.g. "authidx_wal_appends_total").
  std::string name;
  /// Human-readable description, emitted as the Prometheus HELP line.
  std::string help;
  /// Which of the value fields below is meaningful.
  MetricType type = MetricType::kCounter;
  /// Set when type == kCounter.
  uint64_t counter = 0;
  /// Set when type == kGauge.
  int64_t gauge = 0;
  /// Set when type == kHistogram.
  HistogramSnapshot histogram;
};

/// Point-in-time view of a whole registry, in registration order.
struct MetricsSnapshot {
  /// One value per registered metric, in registration order.
  std::vector<MetricValue> metrics;

  /// The metric named `name`, or nullptr. Linear scan (snapshots are
  /// diagnostic, not hot-path).
  const MetricValue* Find(std::string_view name) const;
};

/// Named registry of Counters, Gauges and LatencyHistograms.
/// Registration takes a mutex and allocates; the returned instrument
/// pointers are stable for the registry's lifetime and their hot-path
/// operations (Inc/Set/Add/Record) never allocate. Registering a name
/// twice returns the existing instrument (the kinds must match, checked
/// with AUTHIDX_INTERNAL_CHECK). Thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a counter. Never returns nullptr.
  Counter* RegisterCounter(std::string_view name, std::string_view help);

  /// Registers (or finds) a gauge. Never returns nullptr.
  Gauge* RegisterGauge(std::string_view name, std::string_view help);

  /// Registers (or finds) a latency histogram. Never returns nullptr.
  LatencyHistogram* RegisterLatencyHistogram(std::string_view name,
                                             std::string_view help);

  /// Snapshot of every registered metric, in registration order.
  MetricsSnapshot Snapshot() const;

 private:
  struct Registered {
    std::string name;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Registered* FindLocked(std::string_view name, MetricType type)
      AUTHIDX_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Registered>> metrics_ AUTHIDX_GUARDED_BY(mu_);
};

}  // namespace authidx::obs

#endif  // AUTHIDX_OBS_METRICS_H_
