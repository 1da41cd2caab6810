#include "scan/scan.h"

#include <algorithm>

#include "obs/metrics.h"
#include "spec/predicate_analysis.h"

namespace dwred::scan {

namespace {

/// Dimensions with more interned values than this are left unconstrained
/// (building the allowed set is linear in the extent; pruning must stay
/// cheap relative to the scan it saves).
constexpr size_t kMaxEnumerableValues = 1 << 16;

obs::Counter& ScannedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_scan_segments_scanned",
      "segments handed to scan execution after zone-map pruning");
  return c;
}

obs::Counter& PrunedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_scan_segments_pruned",
      "segments skipped entirely by zone-map pruning");
  return c;
}

obs::Counter& RowsSkippedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_scan_rows_skipped",
      "live rows inside segments skipped by zone-map pruning");
  return c;
}

/// True when the atom's operator positively constrains its dimension: the
/// set of matching values is closed under the atom alone. Negated set
/// operators (!=, NOT IN) exclude values instead — a zone-map range nearly
/// always contains *some* non-excluded value, and treating them as
/// unconstrained keeps pruning sound without per-value bookkeeping. Ordered
/// comparisons only constrain the time dimension (the evaluator rejects them
/// on categorical dimensions).
bool ConstrainsDimension(const Atom& a) {
  switch (a.op) {
    case CmpOp::kEq:
    case CmpOp::kIn:
      return true;
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
      return a.is_time;
    case CmpOp::kNe:
    case CmpOp::kNotIn:
      return false;
  }
  return false;
}

/// In-place sorted intersection: keeps the elements of `a` also in `b`.
void IntersectSorted(std::vector<ValueId>& a, const std::vector<ValueId>& b) {
  std::vector<ValueId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  a = std::move(out);
}

}  // namespace

ScanSpec ScanSpec::All() { return ScanSpec{}; }

size_t ScanSpec::ApproxBytes() const {
  // Count what the allocator actually holds — the *capacity* of every vector
  // level, not its size. Compilation's push_back growth routinely leaves
  // capacity above size, and a size-only count let the 64 MiB cache budget
  // admit more than it should.
  size_t bytes = sizeof(ScanSpec);
  bytes += conjuncts_.capacity() * sizeof(ConjunctFilter);
  for (const ConjunctFilter& c : conjuncts_) {
    bytes += c.filters.capacity() * sizeof(DimFilter);
    for (const DimFilter& f : c.filters) {
      bytes += f.allowed.capacity() * sizeof(ValueId);
    }
  }
  return bytes;
}

ScanSpec ScanSpec::Compile(const MultidimensionalObject& ctx,
                           const PredExpr& pred, int64_t now_day,
                           const AtomOracle& oracle) {
  (void)now_day;  // baked into `oracle` by the caller; kept for symmetry
  Result<std::vector<Conjunct>> dnf = CompileToDnf(ctx, pred);
  if (!dnf.ok()) return All();  // pathological predicate: scan everything

  ScanSpec spec;
  spec.match_all_ = false;
  for (const Conjunct& c : dnf.value()) {
    if (c.always_false) continue;
    ConjunctFilter cf;
    bool impossible = false;
    for (const Atom& a : c.atoms) {
      if (!ConstrainsDimension(a)) continue;
      const Dimension& dim = *ctx.dimension(a.dim);
      if (dim.num_values() > kMaxEnumerableValues) continue;
      std::vector<ValueId> allowed;
      for (ValueId v = 0; v < dim.num_values(); ++v) {
        if (oracle(a, dim, v) > 0.0) allowed.push_back(v);
      }
      auto it = std::find_if(cf.filters.begin(), cf.filters.end(),
                             [&](const DimFilter& f) { return f.dim == a.dim; });
      if (it == cf.filters.end()) {
        cf.filters.push_back(DimFilter{a.dim, std::move(allowed)});
        it = cf.filters.end() - 1;
      } else {
        IntersectSorted(it->allowed, allowed);
      }
      if (it->allowed.empty()) {
        impossible = true;  // no value of this dimension can ever match
        break;
      }
    }
    if (impossible) continue;
    // A conjunct with no filter left can match anywhere — the whole spec
    // degenerates to a full scan.
    if (cf.filters.empty()) return All();
    spec.conjuncts_.push_back(std::move(cf));
  }
  if (spec.conjuncts_.empty()) spec.match_none_ = true;
  return spec;
}

bool ScanSpec::MaySatisfySegment(const FactTable& t, size_t s) const {
  if (match_all_) return true;
  if (match_none_) return false;
  for (const ConjunctFilter& c : conjuncts_) {
    bool may = true;
    for (const DimFilter& f : c.filters) {
      ValueId lo = t.SegmentDimMin(s, f.dim);
      ValueId hi = t.SegmentDimMax(s, f.dim);
      auto it = std::lower_bound(f.allowed.begin(), f.allowed.end(), lo);
      if (it == f.allowed.end() || *it > hi) {
        may = false;
        break;
      }
    }
    if (may) return true;
  }
  return false;
}

ScanPlan PlanTableScan(const FactTable& t, const ScanSpec& spec,
                       size_t first_row) {
  ScanPlan plan;
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const size_t begin = static_cast<size_t>(t.SegmentBegin(s));
    const size_t end = begin + t.SegmentLiveRows(s);
    if (first_row > 0 && end <= first_row) continue;
    ++plan.segments_total;
    if (spec.MaySatisfySegment(t, s)) {
      plan.units.push_back(exec::Shard{std::max(begin, first_row), end});
    } else {
      ++plan.segments_pruned;
      plan.rows_skipped += end - std::max(begin, first_row);
    }
  }
  if constexpr (obs::kObsEnabled) {
    ScannedCounter().Increment(plan.segments_total - plan.segments_pruned);
    PrunedCounter().Increment(plan.segments_pruned);
    RowsSkippedCounter().Increment(plan.rows_skipped);
  }
  return plan;
}

ScanPlan PlanMoScan(size_t n, size_t grain) {
  ScanPlan plan;
  int threads = exec::ThreadPool::Global().num_threads();
  plan.units = exec::PartitionShards(
      n, grain, threads == 1 ? 1 : static_cast<size_t>(threads) * 4);
  return plan;
}

}  // namespace dwred::scan
