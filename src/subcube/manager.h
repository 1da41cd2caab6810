#pragma once

// The implementation strategy of paper Section 7: the warehouse is stored as
// a set of physical *subcubes*, one per granularity group of the (disjoint)
// action set plus one bottom-granularity subcube that receives all new data.
// For every fact, exactly one action is responsible for its current
// granularity (Section 4), so each fact lives in exactly one subcube: the one
// whose granularity the <=_V-maximal satisfied action specifies (facts
// satisfying no action live in the bottom cube — the residual action a'_⊥ of
// eq. (44)).
//
// As NOW advances, facts stop satisfying their cube's region and must migrate
// to the responsible child cube (Section 7.2, Figure 7): Synchronize() scans
// every cube bottom-up, moves rows directly to their responsible cube at its
// granularity, and compacts cells that received data from several parents
// ("aggregated one final time").
//
// Queries (Section 7.3, Figures 8 and 9) are evaluated per subcube and the
// subresults combined with one final availability-approach aggregation —
// sound because default aggregate functions are distributive. In the
// un-synchronized state, each subcube's subquery is evaluated on
// α[G_i]σ[P_i](K_i ∪ ancestors): the cube's own rows plus its lower cubes'
// rows, filtered to the facts the cube is *currently* responsible for,
// aggregated to the cube's granularity. σ[P_i] is Synchronize's own
// placement plan, computed once per query; the pre-aggregated input then
// runs through the same pruned σ→α scan as a synchronized cube.

#include <memory>
#include <string>

#include "cache/cache.h"
#include "obs/profile.h"
#include "query/operators.h"
#include "spec/action.h"
#include "storage/fact_table.h"

namespace dwred {

namespace obs {
class Op;
}  // namespace obs

/// One physical subcube.
struct Subcube {
  std::string name;                      ///< "K0", "K1", ...
  std::vector<CategoryId> granularity;   ///< fixed granularity of the cube
  std::vector<ActionId> actions;         ///< disjoint actions grouped here
  FactTable table;
  std::vector<size_t> parents;           ///< immediate parents (data sources)

  Subcube(size_t ndims, size_t nmeas) : table(ndims, nmeas) {}
};

/// The synchronization cadence Section 7.2 calls sufficient for the
/// one-level-out-of-sync assumption: once per "significant time period" —
/// the second-lowest granularity at which NOW appears in the specification
/// (e.g. NOW used at month and quarter -> synchronize once per quarter).
/// With NOW at fewer than two distinct granularities, the single (or, with
/// no NOW at all, day) granularity is returned — synchronizing that often is
/// trivially sufficient.
Result<TimeSpan> RecommendedSyncInterval(const MultidimensionalObject& mo,
                                         const ReductionSpecification& spec);

/// A data warehouse physically organized as subcubes.
class SubcubeManager {
 public:
  /// Builds the subcube layout for a validated specification. The bottom
  /// cube is always subcube 0.
  static Result<SubcubeManager> Create(
      std::string fact_type, std::vector<std::shared_ptr<Dimension>> dims,
      std::vector<MeasureType> measures, ReductionSpecification spec);

  size_t num_subcubes() const { return cubes_.size(); }
  const Subcube& subcube(size_t i) const { return *cubes_[i]; }
  const ReductionSpecification& spec() const { return spec_; }

  /// A facts-free MO over the warehouse's dimensions and measures — the
  /// context against which predicates and granularity lists are parsed.
  const MultidimensionalObject& context() const { return ctx_; }

  /// The warehouse's epoch counters, snapshot lock, and caches (src/cache).
  /// Every mutating pass bumps the epoch under the exclusive lock; queries
  /// run under the shared lock against the epoch they pinned.
  cache::WarehouseCache& warehouse_cache() const { return *cache_; }

  /// Current warehouse epoch (see cache::WarehouseCache).
  uint64_t epoch() const { return cache_->epoch(); }

  /// Bulk-loads new detail facts (bottom granularity) into the bottom cube.
  Status InsertBottomFacts(const MultidimensionalObject& batch);

  /// Sentinel returned by ResponsibleCube when a deletion action (the
  /// Section 8 extension) claims the cell: the fact must be physically
  /// removed rather than migrated.
  static constexpr size_t kDeletedCell = static_cast<size_t>(-1);

  /// The index of the subcube responsible for a fact with the given direct
  /// cell at time `now_day` (0 = bottom cube; kDeletedCell when a deletion
  /// action claims the cell).
  Result<size_t> ResponsibleCube(std::span<const ValueId> cell,
                                 int64_t now_day) const;

  /// One compiled 0/1 program per specification action (src/vm). Slots
  /// whose predicate the compiler rejects are null — those actions interpret
  /// per row. The hot responsibility passes (the placement plan behind
  /// Synchronize and the unsynchronized query, ChangeSpecification) compile
  /// once and reuse across every row.
  using SpecPrograms = std::vector<std::shared_ptr<const vm::PredProgram>>;
  SpecPrograms CompileSpecPrograms(int64_t now_day) const;

  /// Migrates every fact to its responsible subcube at that cube's
  /// granularity and compacts receiving cubes (Section 7.2). Returns the
  /// number of migrated rows. A non-null `profile` receives the pass's
  /// EXPLAIN profile (stage times, rows migrated/deleted/compacted) when
  /// profiling is enabled (see obs/profile.h).
  Result<size_t> Synchronize(int64_t now_day,
                             obs::OpProfile* profile = nullptr);

  /// Deserialization hook (io/recovery.h): appends one saved row to subcube
  /// `cube` verbatim, without responsibility routing or granularity rollup —
  /// the row is trusted to be at the cube's granularity because it was
  /// serialized from it. Validates the cube index, the row arity, and that
  /// every coordinate names an interned value of the shared dimensions
  /// (InvalidArgument otherwise).
  Status RestoreRow(size_t cube, std::span<const ValueId> cell,
                    std::span<const int64_t> measures);

  /// Evaluates σ[pred] then (optionally) α[target] over the subcubes,
  /// combining per-cube subresults with a final availability aggregation.
  /// `pred` may be null (no selection); `target` may be null (no aggregate
  /// formation). With `assume_synchronized` the per-cube rewrite of Figure 9
  /// (take the rows Synchronize would place in the cube — un-migrated rows
  /// from lower cubes included — and pre-aggregate them to the cube's
  /// granularity) is skipped.
  /// With `parallel`, subcubes are evaluated on one thread each — Section
  /// 7.3's "separately and in parallel"; sound because per-cube evaluation
  /// only reads shared state and the final combine is a single-threaded
  /// distributive fold.
  ///
  /// The whole evaluation runs under the warehouse's shared snapshot lock:
  /// the epoch and sealed-segment manifest observed at entry cannot change
  /// until the result is built, so queries run concurrently with writers
  /// without byte-level divergence. When `pinned_epoch` is non-null it
  /// receives the (data) epoch this query evaluated against. Results and
  /// compiled artifacts are served from the caches when enabled
  /// (docs/CACHING.md); a cache hit is byte-identical to re-evaluation. A
  /// synchronized answer cached before inserts into the bottom cube is
  /// refreshed: only the appended rows are evaluated and folded into the
  /// bottom cube's cached subresult, then the final combine reruns — byte-
  /// identical to a cold evaluation.
  /// A non-null `profile` receives the query's EXPLAIN profile — pinned
  /// epoch, cache outcome (hit, miss, or refresh with its rows_folded) +
  /// fingerprint, per-subcube fan-out, segments scanned vs. pruned, rows
  /// skipped, per-stage wall times — when profiling is enabled
  /// (DWRED_PROFILE_DISABLED unset; see obs/profile.h). On the pruned path
  /// the profile's segment/row totals equal the dwred_scan_segments_* /
  /// dwred_scan_rows_skipped counter deltas exactly.
  Result<MultidimensionalObject> Query(const PredExpr* pred,
                                       const std::vector<CategoryId>* target,
                                       int64_t now_day,
                                       bool assume_synchronized,
                                       bool parallel = false,
                                       uint64_t* pinned_epoch = nullptr,
                                       obs::OpProfile* profile = nullptr) const;

  /// Per-cube subresults of a query (exposed to reproduce Figure 8's S0..S4).
  /// Takes the shared snapshot lock like Query (but only Query consults the
  /// result cache — subresult vectors are not cached).
  Result<std::vector<MultidimensionalObject>> QuerySubresults(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel = false) const;

  /// Replaces the specification (Section 7.2's infrequent synchronization):
  /// rebuilds the cube layout and redistributes every fact to its responsible
  /// cube under the new specification.
  Status ChangeSpecification(ReductionSpecification new_spec, int64_t now_day);

  /// Total fact-storage bytes across the subcubes.
  size_t TotalBytes() const;

  /// One line per subcube: name, granularity, actions, rows.
  std::string DescribeLayout() const;

 private:
  SubcubeManager(std::string fact_type,
                 std::vector<std::shared_ptr<Dimension>> dims,
                 std::vector<MeasureType> measures,
                 ReductionSpecification spec);

  Status BuildLayout();

  /// Rolls a cell up to a cube's granularity. Fails if some coordinate
  /// cannot be rolled up (would indicate a NonCrossing violation).
  Result<std::vector<ValueId>> RollCell(std::span<const ValueId> cell,
                                        const std::vector<CategoryId>& gran) const;

  /// ResponsibleCube body; `progs` (when non-null) supplies compiled
  /// per-action predicate programs, byte-identical to interpreting.
  /// `action_w` (when non-null) carries this cell's batch-precomputed weight
  /// per action (vm::PredProgram::EvalBatch over a column chunk); without
  /// it each program is evaluated on the cell. A lane at kOutOfRange — or an
  /// action with no program — is interpreted.
  Result<size_t> ResponsibleCubeWith(std::span<const ValueId> cell,
                                     int64_t now_day,
                                     const SpecPrograms* progs,
                                     const double* action_w = nullptr) const;

  /// Where one cube's rows belong under the specification at a NOW day: the
  /// read-only plan phase of Synchronize (Section 7.2), which the
  /// unsynchronized query reuses for Figure 9's σ[P_i].
  struct Placement {
    std::vector<size_t> target;   ///< per row; the cube's own index = stays
    std::vector<ValueId> rolled;  ///< row-major cells at the target cube's
                                  ///< granularity, set for migrating rows
    size_t segments = 0;          ///< storage segments the plan scanned
  };

  /// Plans every cube's rows (ResponsibleCube + RollCell over the batch
  /// spec-program kernel), shard-parallel and read-only; polls `poll_site`
  /// once per shard. The first failing row's error aborts the plan.
  Result<std::vector<Placement>> PlanPlacement(int64_t now_day,
                                               const char* poll_site) const;

  /// Figure 9's input per cube: the rows the placement assigns to it — its
  /// own first, then every other cube's rolled rows in cube order —
  /// pre-aggregated to its granularity by one storage::CellFold and built
  /// with one FactTable::AppendRows (first occurrence of each cell kept,
  /// exactly the order Synchronize would leave the cube in).
  std::vector<FactTable> ResponsibleInputs(
      const std::vector<Placement>& placement) const;

  /// The rollup tables for one target granularity, compiled once and cached
  /// per (granularity, extents) in the program LRU. Null when a dimension is
  /// too large to enumerate (per-fact walks instead).
  std::shared_ptr<const vm::RollupProgram> CompileRollup(
      const std::vector<CategoryId>& target) const;

  /// What one query's per-cube evaluations share, compiled (or taken from
  /// the caches) once per query.
  struct QueryKernel {
    scan::ScanSpec scan_spec = scan::ScanSpec::All();  ///< segment pruning
    /// Set when scan_spec was compiled here: the caller caches it once the
    /// evaluation succeeded, so an aborted query leaves the cache as found.
    std::string new_skey;
    std::shared_ptr<const vm::PredProgram> prog;  ///< null: interpret
    std::shared_ptr<const vm::RollupProgram> rollup;
  };
  QueryKernel CompileKernel(const PredExpr* pred,
                            const std::vector<CategoryId>* target,
                            int64_t now_day,
                            std::shared_ptr<const vm::RollupProgram> rollup)
      const;

  /// Subcube `i`'s subresult over rows [first_row, num_rows) of `source`
  /// (the stored cube, or its Figure 9 input): pruned scan plan → fused σ→α
  /// (σ alone without a target), as one "subcube.subquery" slice with
  /// "scan" / "aggregate" stages filling `sc` when non-null. Polls
  /// cancel.query.subcube and charges the rows to scan to the row budget.
  Result<MultidimensionalObject> EvalSubcube(
      size_t i, const FactTable& source, size_t first_row,
      const QueryKernel& k, const PredExpr* pred,
      const std::vector<CategoryId>* target, int64_t now_day,
      obs::SubcubeProfile* sc) const;

  /// QuerySubresults body; the caller must hold the shared snapshot lock
  /// (the lock is not recursive, so Query cannot call the public wrapper).
  /// Every cube runs one pipeline — source table → pruned scan plan → fused
  /// σ→α (or σ alone without a target) — whose source is the stored cube
  /// when synchronized and its ResponsibleInputs table otherwise.
  /// `rollup` optionally shares the query's target-granularity rollup tables
  /// with every per-cube aggregation (compiled here when null and needed).
  /// Under a query's `op` the planning lap becomes its "plan" stage and each
  /// subcube evaluation a slice with its own "scan" / "aggregate" stages.
  Result<std::vector<MultidimensionalObject>> QuerySubresultsLocked(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel,
      obs::Op* op = nullptr,
      std::shared_ptr<const vm::RollupProgram> rollup = nullptr) const;

  /// The per-subcube subresults of a synchronized answer, shared with its
  /// maintained cache entry (cache::QueryEntry).
  using Subresults = std::vector<std::shared_ptr<const MultidimensionalObject>>;

  /// The subresults of a maintained `entry` brought up to K0's current rows:
  /// EvalSubcube over the rows appended since the entry was computed, folded
  /// into its S_0 by a storage::CellFold (appended, without a target); S_1..
  /// S_n are shared unchanged. Fills the query's profile as a one-cube
  /// fan-out with a rows_folded counter.
  Result<Subresults> RefreshSubresults(
      const cache::QueryEntry& entry, const PredExpr* pred,
      const std::vector<CategoryId>* target, int64_t now_day, obs::Op* op,
      std::shared_ptr<const vm::RollupProgram> rollup) const;

  std::string fact_type_;
  std::vector<std::shared_ptr<Dimension>> dims_;
  std::vector<MeasureType> measures_;
  ReductionSpecification spec_;
  MultidimensionalObject ctx_;  ///< facts-free evaluation context
  std::vector<std::unique_ptr<Subcube>> cubes_;
  /// Heap-held so the manager stays movable through Result<SubcubeManager>
  /// (the lock and epoch atomic must never relocate under concurrent use).
  std::unique_ptr<cache::WarehouseCache> cache_;
};

}  // namespace dwred
