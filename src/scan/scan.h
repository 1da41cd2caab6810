#pragma once

// The unified scan layer: every pass that iterates facts — Reduce's cell
// grouping, the subcube placement plan (Synchronize and Figure 9), and the
// per-subcube query scan (paper Section 7) — goes through
// one ScanSpec → ScanPlanner → Execute API instead of hand-rolled row loops.
//
// A ScanSpec is the compiled form of a selection predicate for *segment
// pruning*: per DNF conjunct (spec/predicate_analysis CompileToDnf, which
// pushes NOT onto atom operators), each positively-constraining atom is
// turned into the set of dimension values it may match — computed by asking
// the caller's atom-weight oracle (query/compare's liberal evaluator) for
// every interned value — and same-dimension sets within a conjunct are
// intersected. A segment can then be skipped when, for every conjunct, some
// constrained dimension has no allowed value inside the segment's zone-map
// range [min, max] (storage/fact_table.h). Negated set operators (!=, NOT
// IN) and anything the compiler cannot represent leave the dimension
// unconstrained, so pruning is always a sound over-approximation of
// "some row may have weight > 0" — under all three selection approaches,
// since liberal dominates conservative and weighted.
//
// The planner (PlanTableScan) maps the surviving segments to exec::Shard
// units over *logical* row ids — segments are the natural shard unit for
// exec::ParallelForShards — and records what it skipped in the
// dwred_scan_segments_{scanned,pruned} / dwred_scan_rows_skipped counters.
// PlanMoScan covers the scan sites that iterate an MO (no segment manifest):
// same plan type, shards from exec::PartitionShards.

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/thread_pool.h"
#include "spec/predicate.h"
#include "storage/fact_table.h"

namespace dwred::scan {

/// May-match oracle for one atom on one dimension value: returns a weight
/// > 0 when a row whose coordinate is `v` could satisfy the atom. Bound by
/// the caller to query/compare's EvalQueryAtomOnValue with the liberal
/// approach (scan must not depend on the query layer — the query layer
/// depends on scan).
using AtomOracle =
    std::function<double(const Atom&, const Dimension&, ValueId)>;

/// A planned scan: the shard units to execute (ascending, disjoint, over
/// logical row ids) plus what pruning skipped.
struct ScanPlan {
  std::vector<exec::Shard> units;
  size_t segments_total = 0;   ///< segments examined (0 for MO scans)
  size_t segments_pruned = 0;  ///< segments skipped via zone maps
  uint64_t rows_skipped = 0;   ///< live rows inside pruned segments
};

/// Compiled projection-free selection spec. Value-semantic and immutable
/// after compilation; safe to share read-only across the parallel query
/// fan-out.
class ScanSpec {
 public:
  /// The unconstrained spec: every segment survives.
  static ScanSpec All();

  /// Compiles `pred` (evaluated at `now_day`) against the dimensions of
  /// `ctx`. Compilation is best-effort: a predicate the DNF compiler rejects
  /// (e.g. conjunct explosion) or a dimension too large to enumerate yields
  /// an unconstrained spec, never an error — pruning is an optimization, not
  /// a filter.
  static ScanSpec Compile(const MultidimensionalObject& ctx,
                          const PredExpr& pred, int64_t now_day,
                          const AtomOracle& oracle);

  /// True when segment `s` of `t` may hold a row with selection weight > 0.
  bool MaySatisfySegment(const FactTable& t, size_t s) const;

  bool unconstrained() const { return match_all_; }
  bool match_none() const { return match_none_; }

  /// Approximate heap footprint of the compiled allowed-value sets, for the
  /// cache layer's byte accounting (src/cache).
  size_t ApproxBytes() const;

 private:
  /// Allowed coordinate set of one dimension within one conjunct (sorted).
  struct DimFilter {
    size_t dim = 0;
    std::vector<ValueId> allowed;
  };
  /// One DNF conjunct's filters (AND across filters).
  struct ConjunctFilter {
    std::vector<DimFilter> filters;
  };

  bool match_all_ = true;
  bool match_none_ = false;
  std::vector<ConjunctFilter> conjuncts_;  ///< OR across conjuncts
};

/// Plans a scan of `t`: one shard per surviving segment, zone-map pruning
/// against `spec`. Updates the dwred_scan_* counters. With `first_row`, the
/// plan covers only logical rows [first_row, num_rows) — the rows appended
/// since a maintained query answer was computed (docs/CACHING.md); segments
/// wholly before it are not part of the plan.
ScanPlan PlanTableScan(const FactTable& t, const ScanSpec& spec,
                       size_t first_row = 0);

/// Plans an unpruned scan of an `n`-fact MO (or any flat index space):
/// contiguous ascending shards of at least `grain` rows, sized to the global
/// pool (serial execution gets exactly one shard). No counters — nothing can
/// be pruned without a segment manifest.
ScanPlan PlanMoScan(size_t n, size_t grain);

/// Runs `fn(unit_index, begin, end)` over the plan's units on the global
/// pool. Units are disjoint ascending ranges, so any per-unit accumulation
/// merged in unit order is deterministic for every thread count (the PR-3
/// contract).
template <typename Fn>
void Execute(const ScanPlan& plan, Fn&& fn) {
  exec::ThreadPool::Global().ParallelForShards(plan.units, std::forward<Fn>(fn));
}

}  // namespace dwred::scan
