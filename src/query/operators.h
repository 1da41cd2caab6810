#pragma once

// The algebraic query operators over (possibly reduced) MOs — paper
// Section 6: selection with the conservative/liberal/weighted approaches
// (eq. (36)), projection (eq. (37)), and aggregate formation (Definition 6)
// with the availability approach (default), plus the strict and LUB
// approaches the paper enumerates. The disaggregated approach (imprecise
// answers via disaggregation, ref [13] of the paper) is out of scope and
// documented as such.

#include "query/compare.h"
#include "spec/action.h"
#include "vm/compiled_scan.h"

namespace dwred {

/// Result of a selection: the restricted MO and, under the weighted
/// approach, one certainty weight per returned fact.
struct SelectionResult {
  MultidimensionalObject mo;
  std::vector<double> weights;  ///< empty unless weighted
};

/// σ[p](O): facts characterized by values satisfying p, under the given
/// approach. Fact names, provenance and responsible actions are preserved.
/// A non-null `compiled` (a vm::PredProgram of `pred` under `approach` at
/// `now_day`) replaces the per-fact tree walk with bytecode table lookups;
/// results are byte-identical either way (docs/COMPILATION.md).
Result<SelectionResult> Select(const MultidimensionalObject& mo,
                               const PredExpr& pred, int64_t now_day,
                               SelectionApproach approach =
                                   SelectionApproach::kConservative,
                               const std::shared_ptr<const vm::PredProgram>&
                                   compiled = nullptr);

/// The scan-and-select of the query path: evaluates σ[pred] directly over
/// the plan's rows of a fact table. Byte-identical to Select over the
/// table's ToMO(): facts are emitted in ascending logical row order under
/// their table-scan names ("fact_<logical row>"), so output does not depend
/// on pruning or thread count. A null `pred` weighs every row 1 (the plan's
/// rows, unfiltered). `compiled` as in Select.
/// `materialize_names` (default true) stores the "fact_<row>" display names.
/// Callers that immediately aggregate the selection — which rebuilds facts
/// and discards names — pass false to skip the per-survivor string
/// materialization; result *query* bytes are unchanged because the
/// intermediate MO never escapes.
Result<SelectionResult> SelectFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::shared_ptr<const vm::PredProgram>& compiled = nullptr,
    bool materialize_names = true);

/// π[dims][measures](O): retains the given dimensions and measures; the fact
/// set is unchanged (duplicate value combinations are kept, as in star
/// schemas).
Result<MultidimensionalObject> Project(const MultidimensionalObject& mo,
                                       const std::vector<DimensionId>& dims,
                                       const std::vector<MeasureId>& measures);

/// How aggregate formation treats facts already above the requested level
/// (paper Section 6.3).
enum class AggregationApproach : uint8_t {
  kAvailability,  ///< aggregate each fact to the finest available level >= desired
  kStrict,        ///< drop facts above the desired level
  kLub,           ///< aggregate everything to the LUB of desired + available
  /// Split facts above the desired level uniformly across their materialized
  /// descendant cells at that level. Answers have the requested granularity
  /// but are *imprecise* (the paper's fourth approach): SUM measures are
  /// split with exact integer totals (remainders go to the leading cells);
  /// MIN/MAX are copied, which can only widen their true range. Facts with
  /// no materialized descendants fall back to the availability behaviour.
  kDisaggregated,
};

const char* AggregationApproachName(AggregationApproach a);

/// α[C_1j1, ..., C_njn](O) (Definition 6): groups facts by their values at
/// the requested granularity — facts mapped directly to higher-granularity
/// values group at those values (Group_high) — and folds measures with their
/// default aggregate functions.
/// `rollup` optionally supplies the per-dimension rollup tables compiled for
/// `target` (vm::RollupProgram, cached per epoch+granularity by the subcube
/// manager); ignored under the LUB approach, whose effective categories are
/// data-dependent. When absent the walk is table-compiled locally only if
/// the fact count amortizes the compilation, else evaluated per fact.
Result<MultidimensionalObject> AggregateFormation(
    const MultidimensionalObject& mo, const std::vector<CategoryId>& target,
    AggregationApproach approach = AggregationApproach::kAvailability,
    bool track_provenance = true,
    const std::shared_ptr<const vm::RollupProgram>& rollup = nullptr);

/// The fully fused σ→α of the query path: selection weights are computed
/// over the plan's rows and each surviving row's rolled-up cell is folded
/// straight into its output group, skipping the intermediate selection MO
/// entirely. A null `pred` weighs every row 1 (α alone). Byte-identical to
///   AggregateFormation(SelectFromScan(t, plan, pred, now_day, approach,
///                      ..., compiled, /*materialize_names=*/false).mo,
///                      target, kAvailability, /*track_provenance=*/false,
///                      rollup)
/// because rows are visited in the same ascending logical order, so group
/// discovery order and measure fold order are unchanged
/// (docs/COMPILATION.md). Availability approach only — the only one the
/// subcube query path combines with. `rollup` may be null (per-row walks).
Result<MultidimensionalObject> AggregateFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::vector<CategoryId>& target,
    const std::shared_ptr<const vm::PredProgram>& compiled,
    const std::shared_ptr<const vm::RollupProgram>& rollup);

/// The paper's Group_high (eq. (38)), exposed for tests: all facts
/// characterized by every value of `cell` and mapped *directly* to those cell
/// values whose category exceeds the target granularity.
std::vector<FactId> GroupHigh(const MultidimensionalObject& mo,
                              std::span<const ValueId> cell,
                              std::span<const CategoryId> target);

}  // namespace dwred
