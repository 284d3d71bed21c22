#ifndef VITRI_COMMON_METRICS_H_
#define VITRI_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotated_lock.h"

namespace vitri::metrics {

/// Process-wide metrics registry (LevelDB/RocksDB-style tick counters
/// and latency histograms) backing `vitri stats` and the BENCH_*.json
/// artifacts.
///
/// Contract (DESIGN.md §12):
///   * Recording is lock-free: counters, gauges, and histogram buckets
///     are relaxed atomics, safe to hit from every BatchKnn worker
///     concurrently (tsan-clean). A process-global metric is one cache
///     line every thread writes, so per-page paths count in their
///     owner's state (the pool's IoStats) and stats readers ask the
///     owner; the registry holds only metrics with no owner to ask.
///   * Lookup is amortized free: instrumented sites cache the pointer
///     returned by GetCounter()/GetHistogram() in a function-local
///     static, so the registry mutex is only taken on the first event
///     per site and when snapshotting.
///   * Metrics are *observational*: nothing in the system reads them
///     back to make decisions, and they are entirely separate from the
///     IoStats / QueryCosts counters the paper's cost figures report —
///     instrumentation never perturbs QueryCosts.
///   * Snapshots are per-metric consistent (each value is one atomic
///     read), not globally consistent — the usual monitoring contract.

/// Monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  /// Testing only; racing Reset with writers loses increments.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. resident pages).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram of non-negative integer samples (latencies in
/// microseconds, page counts, ...). Buckets follow the classic
/// 1-2-...-9 × powers-of-ten progression, so percentile extraction by
/// linear interpolation within a bucket is accurate to ~11% relative
/// error across twelve decades. Recording is two relaxed atomic adds
/// (bucket + sum); no locks, no allocation.
class Histogram {
 public:
  /// Upper bounds: 1..9, 10..90 by 10, ... up to 9e11, then +inf.
  static constexpr size_t kNumBuckets = 9 * 12 + 1;

  void Record(uint64_t value);

  /// Point-in-time copy of the bucket state (each field one relaxed
  /// load; concurrent recording may straddle buckets/sum).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t buckets[kNumBuckets] = {};

    double Mean() const;
    /// p in [0, 100]; linear interpolation within the owning bucket.
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  /// Convenience wrappers over TakeSnapshot().
  double Percentile(double p) const { return TakeSnapshot().Percentile(p); }
  double Mean() const { return TakeSnapshot().Mean(); }

  /// Testing only; racing Reset with writers loses samples.
  void Reset();

  /// Index of the bucket holding `value` (exposed for tests).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive upper bound of bucket `i` (the last bucket is unbounded
  /// and reports the largest finite bound).
  static uint64_t BucketUpperBound(size_t i);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  /// Running min/max maintained with compare-exchange loops.
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Name → metric map. Metrics are created on first use and live for the
/// process (pointers are stable), so instrumented sites can cache them.
class Registry {
 public:
  /// The process-wide registry.
  static Registry& Instance();

  /// Finds or creates. A name can hold only one metric kind; requesting
  /// it as another kind aborts (programming error).
  Counter* GetCounter(std::string_view name) VITRI_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) VITRI_EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name) VITRI_EXCLUDES(mu_);

  struct Entry {
    std::string name;
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  /// All registered metrics, sorted by name.
  std::vector<Entry> Entries() const VITRI_EXCLUDES(mu_);

  /// Human-readable dump, one metric per line, sorted by name.
  std::string ToText() const;
  /// JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, min, max, p50, p95, p99}}}.
  /// Parseable by json::ParseJson (round-trip tested).
  std::string ToJson() const;

  /// Zeroes every counter/gauge/histogram (testing only; instrumented
  /// sites keep their cached pointers, which stay valid).
  void ResetAllForTest();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Slot {
    Entry::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Guards map_ only — never the metric values, which are atomics
  /// recorded lock-free.
  mutable Mutex mu_;
  std::map<std::string, Slot, std::less<>> map_ VITRI_GUARDED_BY(mu_);
};

/// Cached-lookup helpers for instrumentation sites:
///   VITRI_METRIC_COUNTER("query.knn.count")->Increment();
/// The static local pins the registry lookup to the first execution.
#define VITRI_METRIC_COUNTER(name)                                       \
  ([]() -> ::vitri::metrics::Counter* {                                  \
    static ::vitri::metrics::Counter* const metric =                     \
        ::vitri::metrics::Registry::Instance().GetCounter(name);         \
    return metric;                                                       \
  }())

#define VITRI_METRIC_GAUGE(name)                                         \
  ([]() -> ::vitri::metrics::Gauge* {                                    \
    static ::vitri::metrics::Gauge* const metric =                       \
        ::vitri::metrics::Registry::Instance().GetGauge(name);           \
    return metric;                                                       \
  }())

#define VITRI_METRIC_HISTOGRAM(name)                                     \
  ([]() -> ::vitri::metrics::Histogram* {                                \
    static ::vitri::metrics::Histogram* const metric =                   \
        ::vitri::metrics::Registry::Instance().GetHistogram(name);       \
    return metric;                                                       \
  }())

}  // namespace vitri::metrics

#endif  // VITRI_COMMON_METRICS_H_
