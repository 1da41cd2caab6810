#pragma once

// Request-scoped profiling: EXPLAIN-style operation profiles and the
// always-on flight recorder (docs/OBSERVABILITY.md).
//
// An OpProfile is filled by one engine operation (SubcubeManager::Query,
// Synchronize, Reduce pass) as it runs: pinned epoch, cache outcome and
// fingerprint, per-subcube fan-out, segments scanned vs. pruned, rows
// skipped, and per-stage wall times. Callers pass a profile in when they want
// an EXPLAIN (dwredctl `explain`, tests, library users). The operation's
// obs::Op scope (obs/op.h) times the stages and stamps the total, outcome
// and budget.
//
// The FlightRecorder is always on (bounded, lock-cheap): root operations are
// offered to it as they close, and anything at or above the slow threshold
// is admitted into a top-K-by-duration board plus a last-N ring, each entry
// carrying a one-line summary of *why* it was slow (cache miss? pruning
// defeated? wide fan-out?). `dwredctl slowlog` renders both. Sub-threshold
// operations pay one atomic load and a compare — the detail string is only
// built for admitted entries.
//
// Opt-out: set DWRED_PROFILE_DISABLED to a non-empty value to make
// ProfilingEnabled() false; operations then fill no profile and reach no
// slow log (their spans and latency histograms stay).
//
// Env knobs (read at first use; ReloadConfigFromEnv() for tests):
//   DWRED_SLOWLOG_TOPK    board size, default 16
//   DWRED_SLOWLOG_LASTN   ring size, default 64
//   DWRED_SLOWLOG_MIN_US  admission threshold in microseconds, default 1000

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dwred::obs {

/// False when the DWRED_PROFILE_DISABLED environment variable is set to a
/// non-empty value (same convention as DWRED_CACHE_DISABLED). Re-read on
/// every call so tests can flip it.
bool ProfilingEnabled();

/// FNV-1a 64-bit — stable, dependency-free fingerprint for cache keys.
uint64_t Fnv1a64(std::string_view s);

/// How the query cache treated this operation.
enum class CacheOutcome {
  kNotApplicable,  ///< operation has no cacheable result (sync, reduce)
  kDisabled,       ///< cache compiled/env'd off for this run
  kMiss,
  kHit,
  kRefresh,  ///< a maintained answer, appended rows folded in (rows_folded)
};

/// One timed stage of an operation (plan / scan / aggregate / materialize...).
struct StageTime {
  std::string name;
  int64_t wall_us = 0;
};

/// Per-subcube slice of a fanned-out operation.
struct SubcubeProfile {
  std::string name;
  int64_t segments_total = 0;
  int64_t segments_scanned = 0;
  int64_t segments_pruned = 0;
  int64_t rows_scanned = 0;
  int64_t rows_skipped = 0;
  int64_t result_facts = 0;
  int64_t wall_us = 0;
  std::vector<StageTime> stages;  ///< this subquery's scan / aggregate laps
};

/// Structured profile of one engine operation. Fill what applies; Render()
/// omits what was never set.
struct OpProfile {
  std::string op;            ///< "subcube.query", "subcube.sync", "reduce.pass"
  uint64_t trace_id = 0;     ///< links to the span tree when tracing is on
  uint64_t epoch = 0;        ///< pinned warehouse epoch
  CacheOutcome cache = CacheOutcome::kNotApplicable;
  uint64_t fingerprint = 0;  ///< FNV-1a of the canonical cache key (0: none)
  int64_t now_day = 0;
  bool assume_synchronized = false;
  bool parallel = false;
  bool compiled = false;     ///< predicate ran as VM bytecode (src/vm)
  int64_t fan_out = 0;       ///< subcubes (or shards) the op fanned out to

  // Scan-layer attribution. On the pruned path these sum the per-subcube
  // ScanPlans and therefore match the dwred_scan_segments_* /
  // dwred_scan_rows_skipped counter deltas exactly.
  int64_t segments_total = 0;
  int64_t segments_scanned = 0;
  int64_t segments_pruned = 0;
  int64_t rows_scanned = 0;
  int64_t rows_skipped = 0;
  int64_t result_facts = 0;

  /// How the operation ended: "ok", "cancelled", "deadline_exceeded",
  /// "resource_exhausted", or "error" (runtime::OutcomeLabel). Abort paths
  /// fill the profile too, so EXPLAIN and the flight recorder show *why* an
  /// operation produced nothing.
  std::string outcome = "ok";
  int64_t budget_max_rows = 0;      ///< row budget in force (0 = unlimited)
  int64_t budget_rows_charged = 0;  ///< rows charged against it

  std::vector<StageTime> stages;
  std::vector<SubcubeProfile> subcubes;
  /// Op-specific extras (sync: rows migrated/deleted; reduce: cells, etc.).
  std::vector<std::pair<std::string, int64_t>> counters;
  int64_t total_us = 0;

  void AddCounter(std::string name, int64_t value) {
    counters.emplace_back(std::move(name), value);
  }

  /// Multi-line EXPLAIN text (dwredctl `explain`).
  std::string Render() const;
  /// One JSON object, flat except stages/subcubes arrays.
  std::string ToJson() const;
  /// One-line digest for the flight recorder ("cache=miss epoch=7
  /// segments=1/38 ...").
  std::string Summary() const;
};

/// One admitted slow-operation record.
struct FlightEntry {
  uint64_t seq = 0;  ///< admission order, process-wide
  std::string op;
  uint64_t trace_id = 0;
  int64_t wall_us = 0;
  std::string detail;  ///< OpProfile::Summary() at admission time
};

/// Always-on bounded slow-query log: top-K by duration plus a last-N ring of
/// everything at/above the threshold. Thread-safe; the sub-threshold fast
/// path is one atomic load.
class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Admits `profile` if profile.total_us >= the threshold. Cheap otherwise.
  void Record(const OpProfile& profile);

  /// True when an operation of this duration would be admitted (fast path —
  /// callers skip building OpProfile summaries entirely below the threshold).
  bool WouldRecord(int64_t wall_us) const {
    return wall_us >= min_us_.load(std::memory_order_relaxed);
  }

  /// `dwredctl slowlog` text: the board (slowest first) then the ring
  /// (most recent first).
  std::string Render() const;

  std::vector<FlightEntry> TopK() const;
  std::vector<FlightEntry> LastN() const;

  void Clear();
  /// Re-reads DWRED_SLOWLOG_{TOPK,LASTN,MIN_US}. Does not drop entries.
  void ReloadConfigFromEnv();

  int64_t threshold_us() const {
    return min_us_.load(std::memory_order_relaxed);
  }

 private:
  FlightRecorder() { ReloadConfigFromEnv(); }

  mutable std::mutex mu_;
  std::atomic<int64_t> min_us_{1000};
  size_t topk_ = 16;    ///< guarded by mu_
  size_t lastn_ = 64;   ///< guarded by mu_
  uint64_t seq_ = 0;    ///< guarded by mu_
  std::vector<FlightEntry> board_;  ///< sorted slowest-first, <= topk_
  std::deque<FlightEntry> ring_;    ///< oldest-first, <= lastn_
};

}  // namespace dwred::obs
