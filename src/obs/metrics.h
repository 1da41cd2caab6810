#pragma once

// Process-wide metrics: named counters, gauges, and fixed-bucket histograms
// with a lock-free fast path (relaxed std::atomic) and thread-safe
// registration. The registry renders a Prometheus-style text exposition and a
// JSON snapshot so reduction / synchronization / query cost (the operational
// claims of paper Sections 4 and 7) can be observed from tools, benchmarks,
// and tests.
//
// Naming scheme: dwred_<subsystem>_<name>, e.g. dwred_reduce_facts_deleted
// (see docs/OBSERVABILITY.md). Histogram buckets are cumulative with
// *inclusive* upper bounds (Prometheus "le" semantics): a sample v lands in
// the first bucket whose bound b satisfies v <= b; samples above every bound
// land in the implicit +Inf bucket.
//
// Compile with -DDWRED_OBS_DISABLED (CMake option DWRED_OBS_DISABLED) to
// stub out every mutation at compile time; registration and rendering keep
// working so callers need no #ifdefs.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dwred::obs {

#ifdef DWRED_OBS_DISABLED
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (kObsEnabled) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous signed level (e.g. live rows, live bytes).
class Gauge {
 public:
  void Set(int64_t v) {
    if constexpr (kObsEnabled) v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (kObsEnabled) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are set at registration and
/// immutable afterwards; recording is wait-free (one relaxed add per sample
/// plus a CAS loop for the double-valued sum).
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit +Inf bucket is
  /// appended.
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  /// Number of finite bucket bounds (excluding +Inf).
  size_t num_bounds() const { return bounds_.size(); }
  std::span<const double> bounds() const { return bounds_; }

  /// Count of samples in bucket `i` alone (i == num_bounds() is +Inf).
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Prometheus-style cumulative count: samples <= bounds()[i] (or all
  /// samples when i == num_bounds()).
  uint64_t CumulativeCount(size_t i) const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1 slots
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets in seconds: 1us .. 10s, roughly exponential.
std::vector<double> DefaultLatencyBuckets();

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared with the trace writer.
std::string JsonEscape(std::string_view s);

/// The process-wide registry. Get*() registers on first use and returns a
/// reference that stays valid for the life of the process (metrics are
/// node-stable), so hot paths can cache it in a function-local static.
///
/// Global() also self-registers two process-level gauges on first use:
/// dwred_build_info (constant 1, version/build labels in the text exposition)
/// and dwred_uptime_seconds (refreshed at render time).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");

  /// Attaches a constant Prometheus label set (already-rendered, e.g.
  /// `version="0.6",toolchain="gcc"`) to `name`. The text exposition emits
  /// `name{labels} value`; the JSON snapshot keeps the plain name as its key.
  void SetConstLabels(const std::string& name, const std::string& labels);
  /// Registers with the given bounds on first use; later calls with the same
  /// name return the existing histogram (their bounds argument is ignored).
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          const std::string& help = "");

  /// Prometheus text exposition: "# HELP"/"# TYPE" comments plus one sample
  /// line per counter/gauge and the _bucket/_sum/_count series per
  /// histogram, sorted by metric name (deterministic output).
  std::string RenderText() const;

  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"bounds":[...],"counts":[...],"sum":s,"count":n}}}.
  std::string RenderJson() const;

  /// Zeroes every metric value. Registered metrics stay alive (references
  /// held by instrumented code remain valid). Intended for tests.
  void ResetAllForTest();

 private:
  MetricsRegistry() = default;

  /// Re-stamps dwred_uptime_seconds. Called at render time with mu_ held, so
  /// it touches gauges_ directly instead of going through GetGauge().
  void RefreshUptimeLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
  std::map<std::string, std::string> labels_;  ///< const label sets (text only)
};

}  // namespace dwred::obs
