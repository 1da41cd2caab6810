#pragma once

// Epoch-versioned caching with snapshot-isolated reads and insert-maintained
// answers (docs/CACHING.md).
//
// The warehouse keeps two counters:
//
//   - the **data epoch** (`epoch()`), advanced by every mutating pass —
//     fact appends, Synchronize, specification changes, recovery replay.
//     It is what a query pins and reports;
//   - the **layout epoch**, advanced by every pass *except* a successful
//     insert: Synchronize, ChangeSpecification, RestoreRow (recovery), a
//     failed or partial append, and `Clear()`. Between two layout bumps the
//     only change the tables see is rows appended to the bottom cube K0.
//
// Three kinds of LRU hang off them:
//
//   - the **query-result cache**: finished `SubcubeManager::Query` answers,
//     keyed by the resolved query (predicate rendering, target granularity,
//     the resolved NOW day, the synchronized-assumption flag). A
//     synchronized answer is a **maintained entry** keyed by the layout
//     epoch: it keeps the per-subcube subresults it was combined from and
//     K0's row count, so after an insert the manager folds the appended
//     rows into K0's subresult and reruns the final combine (Section 7.3:
//     the default aggregate functions are distributive) instead of
//     recomputing. A Figure 9 (unsynchronized) answer is keyed by the data
//     epoch as well and is dropped by every insert;
//   - the **ScanSpec cache**: compiled segment-pruning specs;
//   - the **program caches**: compiled vm::PredPrograms and
//     vm::RollupPrograms.
//
// Compiled artifacts depend only on the dimensions, never on the facts, so
// they are keyed by their predicate or target, the NOW day, and the
// per-dimension value counts (the *extents*): an insert or a synchronize
// that interns no value keeps them; one that does compiles afresh.
//
// A layout bump eagerly drops every query entry and a successful insert
// every Figure 9 entry (both counted as invalidations), so unreachable
// answers do not squat in the byte budget.
//
// Snapshot isolation: the cache owns the warehouse's reader/writer lock.
// Queries hold it shared for their whole evaluation — lookup, refresh or
// evaluation, and insert — while mutating passes hold it exclusively, so a
// query observes exactly one data epoch's bytes (the determinism contract
// of docs/PARALLELISM.md extends across concurrent writers: a query result equals the
// serial result at whichever epoch it pinned, cache on or off, refreshed or
// recomputed).
//
// The whole layer is disabled by the DWRED_CACHE_DISABLED environment
// variable (re-read on every operation, so tests can flip it at runtime);
// disabling the cache never changes query bytes, only their cost.
//
// Observability: dwred_cache_query_{hits,misses,refreshes} /
// dwred_cache_scanspec_{hits,misses} / dwred_cache_{evictions,invalidations}
// counters and the dwred_cache_{bytes,entries} gauges.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdm/mo.h"
#include "scan/scan.h"
#include "spec/predicate.h"
#include "vm/program.h"

namespace dwred::cache {

/// True unless the DWRED_CACHE_DISABLED environment variable is set to a
/// non-empty value. Re-read on every call.
bool Enabled();

/// The per-dimension value counts of `dims` ("12,340"): the one input besides
/// predicate, target and NOW that compiled artifacts depend on. Values are
/// only ever appended, so equal extents mean identical dimensions.
std::string Extents(const std::vector<std::shared_ptr<Dimension>>& dims);

/// Canonical fingerprint of a query: the resolved predicate rendering (atom
/// values and operators, canonical through PredExpr::ToString), the target
/// granularity ids, the resolved NOW day, the synchronized-assumption flag,
/// and the epochs it may be served in — the layout epoch for a synchronized
/// (maintained) answer, the layout and data epochs for a Figure 9 answer.
/// The `parallel` flag is deliberately excluded: the determinism contract
/// makes parallel and serial evaluation byte-identical, so they share
/// cache entries.
std::string QueryFingerprint(const MultidimensionalObject& ctx,
                             const PredExpr* pred,
                             const std::vector<CategoryId>* target,
                             int64_t now_day, bool assume_synchronized,
                             uint64_t layout_epoch, uint64_t data_epoch);

/// Fingerprint of a compiled segment-pruning ScanSpec: predicate rendering +
/// resolved NOW day + the context's extents (compilation enumerates the
/// interned values and consults nothing else).
std::string ScanSpecFingerprint(const MultidimensionalObject& ctx,
                                const PredExpr& pred, int64_t now_day);

/// Fingerprint of a compiled vm::PredProgram: the ScanSpec keying plus an
/// `approach` tag, because the weighted/liberal/conservative oracles fill
/// the atom weight tables differently ("spec" for 0/1 spec predicates).
std::string ProgramFingerprint(const MultidimensionalObject& ctx,
                               const PredExpr& pred, int64_t now_day,
                               const char* approach);

/// Fingerprint of a compiled vm::RollupProgram: the target granularity ids +
/// the extents of `dims`. NOW plays no part — rollup tables depend only on
/// the hierarchy.
std::string RollupFingerprint(
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<CategoryId>& target);

/// One cached query answer. A synchronized answer is *maintained*: it also
/// holds the per-subcube subresults S_0..S_n it was combined from, so an
/// insert into K0 is folded into S_0 and the final combine rerun
/// (SubcubeManager::Query). A Figure 9 answer holds no subresults.
struct QueryEntry {
  std::shared_ptr<const MultidimensionalObject> answer;
  std::vector<std::shared_ptr<const MultidimensionalObject>> subresults;
  size_t bottom_rows = 0;  ///< K0's row count at evaluation time
  std::string extents;     ///< Extents() at evaluation time

  bool maintained() const { return !subresults.empty(); }
  /// The answer's and the subresults' ApproxBytes.
  size_t ApproxBytes() const;
};

class WarehouseCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 256;
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit WarehouseCache(size_t max_entries = kDefaultMaxEntries,
                          size_t max_bytes = kDefaultMaxBytes);
  ~WarehouseCache();

  WarehouseCache(const WarehouseCache&) = delete;
  WarehouseCache& operator=(const WarehouseCache&) = delete;

  /// The warehouse reader/writer lock: queries hold it shared for their whole
  /// evaluation (epoch-pinned snapshot), mutating passes exclusively.
  std::shared_mutex& snapshot_mutex() const { return mu_; }

  /// The data epoch: advanced by every mutating pass (see the file
  /// comment). Queries pin and report it.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// The layout epoch: advanced by every mutating pass but a successful
  /// insert, and by Clear(). Maintained answers are keyed by it.
  uint64_t layout_epoch() const {
    return layout_epoch_.load(std::memory_order_acquire);
  }

  /// Bumps both epochs and eagerly drops every query entry (keyed by older
  /// epochs, hence unreachable; counted as invalidations). Compiled
  /// artifacts stay: they are keyed by the dimensions' extents. Returns the
  /// new data epoch. Call with the snapshot lock held exclusively.
  uint64_t BumpEpoch();

  /// Advances the data epoch alone after a successful insert into K0, and
  /// drops every Figure 9 entry (counted as invalidations); maintained
  /// entries stay to be refreshed. Call with the snapshot lock held
  /// exclusively.
  void AdvanceDataEpoch();

  /// Query-result cache. Lookup refreshes LRU order and counts one outcome
  /// for a query whose bottom cube holds `bottom_rows` rows and whose
  /// dimensions have `extents`: a hit (same rows and extents: the answer is
  /// current), a refresh (a maintained entry of fewer rows and the same
  /// extents: the caller folds the appended rows in) or a miss (anything
  /// else; null is returned). InsertQuery replaces an entry of the same key
  /// — within one layout epoch a later insert is always the newer answer —
  /// and evicts from the cold end past either budget. Both are no-ops
  /// (miss) while the cache is disabled.
  ///
  /// Abort invariant (runtime/cancel.h): a query aborted by cancellation,
  /// deadline, or budget returns before InsertQuery, so an aborted query
  /// never inserts a partial result, never moves the hit counter (a hit
  /// returns before any poll can abort), and never changes entries or bytes:
  /// an aborted refresh leaves its stale entry in place for the next
  /// lookup. The entry poll site (cancel.query.begin) precedes LookupQuery,
  /// so an abort on entry moves no counter at all; an abort mid-evaluation
  /// counts exactly the one miss or refresh its lookup honestly performed.
  /// tests/cancel_matrix_test.cc asserts all of this differentially.
  ///
  /// Compiled vm::PredPrograms are the deliberate exception: a program is a
  /// complete artifact of (predicate, NOW, extents, approach) alone — never
  /// of the operation's outcome — so programs compiled before an abort are
  /// retained (Stats.program_bytes reports their share). Retaining them only
  /// warms the retry; it can never change result bytes.
  std::shared_ptr<const QueryEntry> LookupQuery(const std::string& key,
                                                size_t bottom_rows,
                                                const std::string& extents)
      const;
  void InsertQuery(const std::string& key,
                   std::shared_ptr<const QueryEntry> entry);

  /// Compiled-ScanSpec cache, same discipline.
  std::shared_ptr<const scan::ScanSpec> LookupScanSpec(
      const std::string& key) const;
  void InsertScanSpec(const std::string& key, scan::ScanSpec spec);

  /// Compiled vm::PredProgram cache, same discipline, but its hit counter is
  /// dwred_vm_cache_hits (the VM surface) rather than a cache counter.
  /// Insert returns the cached (or, while the cache is disabled, the passed)
  /// program so call sites always use one canonical shared program.
  std::shared_ptr<const vm::PredProgram> LookupProgram(
      const std::string& key) const;
  std::shared_ptr<const vm::PredProgram> InsertProgram(
      const std::string& key, std::shared_ptr<const vm::PredProgram> prog);

  /// Compiled vm::RollupProgram cache (aggregate formation's per-dimension
  /// rollup tables), same discipline and counters as the PredProgram cache.
  std::shared_ptr<const vm::RollupProgram> LookupRollup(
      const std::string& key) const;
  std::shared_ptr<const vm::RollupProgram> InsertRollup(
      const std::string& key, std::shared_ptr<const vm::RollupProgram> prog);

  struct Stats {
    uint64_t epoch = 0;  ///< the data epoch
    size_t query_entries = 0;
    size_t scanspec_entries = 0;
    size_t program_entries = 0;  ///< PredPrograms + RollupPrograms
    size_t bytes = 0;            ///< all LRUs together
    size_t program_bytes = 0;    ///< the program LRUs' share of `bytes`
    size_t max_entries = 0;
    size_t max_bytes = 0;
  };
  Stats GetStats() const;

  /// Drops every entry and bumps the layout epoch, not the data epoch
  /// (dwredctl `cache clear`): a query racing the clear can only insert
  /// under a key no later lookup forms.
  void Clear();

 private:
  template <typename V>
  struct Lru {
    struct Node {
      std::string key;
      std::shared_ptr<const V> value;
      size_t bytes = 0;
    };
    std::list<Node> order;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Node>::iterator> index;
    size_t bytes = 0;
  };

  template <typename V>
  std::shared_ptr<const V> Lookup(Lru<V>& lru, const std::string& key) const;
  /// Same key: `replace` swaps the value in (query entries), otherwise the
  /// value is byte-identical and only recency is refreshed.
  template <typename V>
  void Insert(Lru<V>& lru, const std::string& key,
              std::shared_ptr<const V> value, size_t value_bytes,
              bool replace = false);
  /// Evicts cold entries until both budgets hold. Returns entries dropped.
  template <typename V>
  size_t EvictOver(Lru<V>& lru, size_t max_entries, size_t max_bytes);
  template <typename V>
  size_t DropAll(Lru<V>& lru);

  mutable std::shared_mutex mu_;  ///< snapshot lock (see snapshot_mutex)
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> layout_epoch_{0};

  mutable std::mutex cache_mu_;  ///< guards the LRU structures below
  mutable Lru<QueryEntry> query_;
  mutable Lru<scan::ScanSpec> scanspec_;
  mutable Lru<vm::PredProgram> program_;
  mutable Lru<vm::RollupProgram> rollup_;
  size_t max_entries_;
  size_t max_bytes_;
};

}  // namespace dwred::cache
