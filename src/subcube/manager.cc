#include "subcube/manager.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/op.h"
#include "query/compare.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "scan/scan.h"
#include "spec/predicate_analysis.h"
#include "vm/program.h"

namespace dwred {

Result<TimeSpan> RecommendedSyncInterval(const MultidimensionalObject& mo,
                                         const ReductionSpecification& spec) {
  // Collect the granularities at which NOW-relative bounds snap.
  std::vector<bool> used(static_cast<size_t>(TimeUnit::kTop) + 1, false);
  for (const Action& a : spec.actions()) {
    DWRED_ASSIGN_OR_RETURN(auto conjuncts, CompileToDnf(mo, *a.predicate));
    for (const Conjunct& c : conjuncts) {
      for (const auto* bounds : {&c.time.lowers, &c.time.uppers}) {
        for (const SymTimeBound& b : *bounds) {
          if (b.kind == SymTimeBound::Kind::kNow) {
            used[static_cast<size_t>(b.snap_unit)] = true;
          }
        }
      }
    }
  }
  int seen = 0;
  for (size_t u = 0; u < used.size(); ++u) {
    if (!used[u]) continue;
    ++seen;
    if (seen == 2) return TimeSpan{static_cast<TimeUnit>(u), 1};
  }
  // Fewer than two distinct NOW granularities: the single one (or daily).
  for (size_t u = 0; u < used.size(); ++u) {
    if (used[u]) return TimeSpan{static_cast<TimeUnit>(u), 1};
  }
  return TimeSpan{TimeUnit::kDay, 1};
}

SubcubeManager::SubcubeManager(std::string fact_type,
                               std::vector<std::shared_ptr<Dimension>> dims,
                               std::vector<MeasureType> measures,
                               ReductionSpecification spec)
    : fact_type_(std::move(fact_type)),
      dims_(std::move(dims)),
      measures_(std::move(measures)),
      spec_(std::move(spec)),
      ctx_(fact_type_, dims_, measures_),
      cache_(std::make_unique<cache::WarehouseCache>()) {}

namespace {

/// Bumps the warehouse epoch on scope exit once armed — mutating passes arm
/// it at the first point a table byte may have changed, so even an error
/// return after partial mutation invalidates the caches.
class EpochBumpGuard {
 public:
  explicit EpochBumpGuard(cache::WarehouseCache& c) : cache_(c) {}
  ~EpochBumpGuard() {
    if (armed_) cache_.BumpEpoch();
  }
  void Arm() { armed_ = true; }

 private:
  cache::WarehouseCache& cache_;
  bool armed_ = false;
};

}  // namespace

Result<SubcubeManager> SubcubeManager::Create(
    std::string fact_type, std::vector<std::shared_ptr<Dimension>> dims,
    std::vector<MeasureType> measures, ReductionSpecification spec) {
  SubcubeManager m(std::move(fact_type), std::move(dims), std::move(measures),
                   std::move(spec));
  DWRED_RETURN_IF_ERROR(m.BuildLayout());
  return m;
}

Status SubcubeManager::BuildLayout() {
  cubes_.clear();
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();

  // Bottom cube (the residual action a'_⊥ of eq. (44)).
  auto bottom = std::make_unique<Subcube>(ndims, nmeas);
  bottom->name = "K0";
  for (const auto& d : dims_) {
    bottom->granularity.push_back(d->type().bottom());
  }
  cubes_.push_back(std::move(bottom));

  // One cube per distinct action granularity (Section 7.1 groups disjoint
  // actions of identical granularity into one subcube). Deletion actions own
  // no storage: their facts cease to exist.
  for (ActionId a = 0; a < spec_.size(); ++a) {
    if (spec_.action(a).deletes) continue;
    const std::vector<CategoryId>& g = spec_.action(a).granularity;
    size_t found = cubes_.size();
    for (size_t i = 0; i < cubes_.size(); ++i) {
      if (cubes_[i]->granularity == g) {
        found = i;
        break;
      }
    }
    if (found == cubes_.size()) {
      auto cube = std::make_unique<Subcube>(ndims, nmeas);
      cube->name = "K" + std::to_string(cubes_.size());
      cube->granularity = g;
      cubes_.push_back(std::move(cube));
    }
    cubes_[found]->actions.push_back(a);
  }

  // Immediate parents: transitive reduction of the strict granularity order.
  for (size_t i = 0; i < cubes_.size(); ++i) {
    cubes_[i]->parents.clear();
    for (size_t j = 0; j < cubes_.size(); ++j) {
      if (i == j) continue;
      const auto& gi = cubes_[i]->granularity;
      const auto& gj = cubes_[j]->granularity;
      if (!(GranularityLeq(ctx_, gj, gi) && gj != gi)) continue;
      bool direct = true;
      for (size_t k = 0; k < cubes_.size() && direct; ++k) {
        if (k == i || k == j) continue;
        const auto& gk = cubes_[k]->granularity;
        if (GranularityLeq(ctx_, gj, gk) && gj != gk &&
            GranularityLeq(ctx_, gk, gi) && gk != gi) {
          direct = false;
        }
      }
      if (direct) cubes_[i]->parents.push_back(j);
    }
  }
  return Status::OK();
}

Status SubcubeManager::InsertBottomFacts(const MultidimensionalObject& batch) {
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  if (batch.num_dimensions() != dims_.size() ||
      batch.num_measures() != measures_.size()) {
    return Status::InvalidArgument("batch schema mismatch");
  }
  for (FactId f = 0; f < batch.num_facts(); ++f) {
    for (size_t d = 0; d < dims_.size(); ++d) {
      auto dd = static_cast<DimensionId>(d);
      ValueId v = batch.Coord(f, dd);
      CategoryId c = dims_[d]->value_category(v);
      if (c != dims_[d]->type().bottom() && v != dims_[d]->top_value()) {
        return Status::InvalidArgument(
            "new data must enter at the bottom granularity (dimension " +
            dims_[d]->name() + ")");
      }
    }
  }
  // Cooperative abort point: the batch is validated but not yet appended, so
  // cancelling here leaves the warehouse byte-identical to never inserting.
  DWRED_RETURN_IF_ERROR(
      runtime::CountAbort(runtime::PollCancel("cancel.insert.batch")));
  if (batch.num_facts() > 0) bump.Arm();
  DWRED_RETURN_IF_ERROR(cubes_[0]->table.AppendFrom(batch));
  return Status::OK();
}

namespace {

/// The granularity implied by a cell's value categories.
std::vector<CategoryId> CellGranularity(
    const std::vector<std::shared_ptr<Dimension>>& dims,
    std::span<const ValueId> cell) {
  std::vector<CategoryId> g(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    g[d] = dims[d]->value_category(cell[d]);
  }
  return g;
}

}  // namespace

Result<size_t> SubcubeManager::ResponsibleCube(std::span<const ValueId> cell,
                                               int64_t now_day) const {
  return ResponsibleCubeWith(cell, now_day, nullptr);
}

SubcubeManager::SpecPrograms SubcubeManager::CompileSpecPrograms(
    int64_t now_day) const {
  SpecPrograms progs;
  progs.reserve(spec_.size());
  const scan::AtomOracle oracle = vm::SpecAtomOracle(ctx_, now_day);
  for (ActionId a = 0; a < spec_.size(); ++a) {
    const PredExpr& pred = *spec_.action(a).predicate;
    const std::string key = cache::ProgramFingerprint(
        ctx_, pred, now_day, cache_->epoch(), "spec");
    std::shared_ptr<const vm::PredProgram> prog = cache_->LookupProgram(key);
    if (prog == nullptr) {
      if (auto compiled = vm::PredProgram::Compile(ctx_, pred, oracle)) {
        prog = cache_->InsertProgram(
            key,
            std::make_shared<const vm::PredProgram>(std::move(*compiled)));
      }
    }
    progs.push_back(std::move(prog));  // null slot: interpret that action
  }
  return progs;
}

Result<size_t> SubcubeManager::ResponsibleCubeWith(
    std::span<const ValueId> cell, int64_t now_day, const SpecPrograms* progs,
    const double* action_w) const {
  std::vector<CategoryId> cell_gran = CellGranularity(dims_, cell);
  const std::vector<CategoryId>* action_gran = nullptr;
  for (ActionId a = 0; a < spec_.size(); ++a) {
    const Action& act = spec_.action(a);
    bool satisfied;
    const vm::PredProgram* prog =
        progs != nullptr && a < progs->size() ? (*progs)[a].get() : nullptr;
    if (prog != nullptr) {
      // Batch-precomputed lane weight when available, else evaluate here;
      // both are bitwise the same program on the same cell.
      const double w = action_w != nullptr ? action_w[a] : prog->Eval(cell.data());
      if (w == vm::PredProgram::kOutOfRange) {
        vm::CountFallback();  // coordinate interned after compilation
        satisfied = EvalPredOnCell(*act.predicate, ctx_, cell, now_day);
      } else {
        satisfied = w != 0.0;
      }
    } else {
      satisfied = EvalPredOnCell(*act.predicate, ctx_, cell, now_day);
    }
    if (!satisfied) continue;
    if (act.deletes) return kDeletedCell;
    if (action_gran) {
      if (GranularityLeq(ctx_, act.granularity, *action_gran)) continue;
      if (!GranularityLeq(ctx_, *action_gran, act.granularity)) {
        return Status::Internal(
            "responsible-action granularities are not totally ordered "
            "(NonCrossing violation)");
      }
    }
    action_gran = &act.granularity;
  }
  // Per-dimension LUB with the cell's own granularity — ⊤-mapped
  // coordinates ("unknown value") stay at ⊤ while the other dimensions
  // follow the responsible action.
  std::vector<CategoryId> best = cell_gran;
  if (action_gran) {
    for (size_t d = 0; d < best.size(); ++d) {
      best[d] = dims_[d]->type().Lub(cell_gran[d], (*action_gran)[d]);
    }
  }
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (cubes_[i]->granularity == best) return i;
  }
  // A ⊤-mapped coordinate lifts `best` above the responsible action's
  // granularity; such rows live in the responsible action's cube with their
  // coarse coordinate as-is (queries use availability semantics anyway).
  if (action_gran) {
    for (size_t i = 0; i < cubes_.size(); ++i) {
      if (cubes_[i]->granularity == *action_gran) return i;
    }
  }
  // The cell's granularity matches no cube (e.g. after a specification
  // change): place it in the minimal cube at or above it.
  size_t chosen = cubes_.size();
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (!GranularityLeq(ctx_, best, cubes_[i]->granularity)) continue;
    if (chosen == cubes_.size() ||
        GranularityLeq(ctx_, cubes_[i]->granularity,
                       cubes_[chosen]->granularity)) {
      chosen = i;
    }
  }
  if (chosen == cubes_.size()) {
    // Last resort (e.g. a fresh fact ⊤-mapped in some dimension, claimed by
    // no action): it stays in the bottom cube with its coordinates as-is.
    return size_t{0};
  }
  return chosen;
}

Result<std::vector<ValueId>> SubcubeManager::RollCell(
    std::span<const ValueId> cell,
    const std::vector<CategoryId>& gran) const {
  std::vector<ValueId> out(cell.size());
  for (size_t d = 0; d < cell.size(); ++d) {
    out[d] = dims_[d]->Rollup(cell[d], gran[d]);
    if (out[d] == kInvalidValue) {
      // A coordinate already above the cube's granularity (⊤-mapped values,
      // or rows kept after a specification change) stays as-is; queries
      // handle it with the availability semantics.
      CategoryId c = dims_[d]->value_category(cell[d]);
      if (dims_[d]->type().Leq(gran[d], c)) {
        out[d] = cell[d];
        continue;
      }
      return Status::Internal("cell value cannot roll up to cube granularity");
    }
  }
  return out;
}

Status SubcubeManager::RestoreRow(size_t cube, std::span<const ValueId> cell,
                                  std::span<const int64_t> measures) {
  if (cube >= cubes_.size()) {
    return Status::InvalidArgument("RestoreRow: subcube index " +
                                   std::to_string(cube) + " out of range (" +
                                   std::to_string(cubes_.size()) + " cubes)");
  }
  if (cell.size() != dims_.size() || measures.size() != measures_.size()) {
    return Status::InvalidArgument(
        "RestoreRow: row arity mismatch (" + std::to_string(cell.size()) +
        " coords, " + std::to_string(measures.size()) + " measures)");
  }
  for (size_t d = 0; d < cell.size(); ++d) {
    if (cell[d] >= dims_[d]->num_values()) {
      return Status::InvalidArgument(
          "RestoreRow: coordinate " + std::to_string(cell[d]) +
          " names no value of dimension " + dims_[d]->name());
    }
  }
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  cubes_[cube]->table.Append(cell, measures);
  cache_->BumpEpoch();
  return Status::OK();
}

Result<std::vector<SubcubeManager::Placement>> SubcubeManager::PlanPlacement(
    int64_t now_day, const char* poll_site) const {
  // Per-action predicate programs (src/vm), compiled once for the whole
  // plan and shared read-only by every shard.
  const SpecPrograms progs = CompileSpecPrograms(now_day);
  const size_t ndims = dims_.size();
  // A row's destination depends only on its cell, the specification and
  // now_day — never on other rows or on table contents — so the per-row
  // decisions (ResponsibleCube + RollCell) fan out over each cube's storage
  // segments (the natural shard unit, docs/STORAGE.md). Every row must be
  // examined, so the scan plan is unpruned. Each shard writes only its own
  // rows' slots, so the plan is identical at every thread count.
  std::vector<Placement> plans(cubes_.size());
  for (size_t i = 0; i < cubes_.size(); ++i) {
    Placement& plan = plans[i];
    const Subcube& cube = *cubes_[i];
    const size_t rows = cube.table.num_rows();
    plan.target.resize(rows);
    plan.rolled.resize(rows * ndims);
    scan::ScanPlan splan = scan::PlanTableScan(cube.table, scan::ScanSpec::All());
    plan.segments = splan.segments_total;
    std::vector<Status> shard_error(splan.units.size(), Status::OK());
    scan::Execute(splan, [&](size_t si, size_t begin, size_t end) {
      // Cooperative abort point, polled per shard: the plan is read-only,
      // so cancelling any shard abandons the caller with nothing mutated.
      shard_error[si] = runtime::PollCancel(poll_site);
      if (!shard_error[si].ok()) return;
      std::vector<ValueId> row_cell(ndims);
      bool failed = false;
      // Decides one row given its gathered cell and its batch-precomputed
      // per-action weights.
      auto decide = [&](RowId r, const double* action_w) {
        auto target_r =
            ResponsibleCubeWith(row_cell, now_day, &progs, action_w);
        if (!target_r.ok()) {
          shard_error[si] = target_r.status();
          failed = true;
          return;
        }
        size_t target = target_r.value();
        plan.target[r] = target;
        if (target == i || target == kDeletedCell) return;
        auto rolled_r = RollCell(row_cell, cubes_[target]->granularity);
        if (!rolled_r.ok()) {
          shard_error[si] = rolled_r.status();
          failed = true;
          return;
        }
        std::copy(rolled_r.value().begin(), rolled_r.value().end(),
                  plan.rolled.begin() + r * ndims);
      };
      // Vectorized planning: every compiled action predicate runs
      // chunk-at-a-time over the segment columns; the per-row LUB walk then
      // consumes the precomputed lanes.
      const size_t nact = progs.size();
      vm::PredProgram::BatchScratch scratch;
      std::vector<double> lanes(nact * FactTable::kBatchRows);
      std::vector<double> row_w(nact);
      cube.table.ForEachDimBatch(
          begin, end, [&](const FactTable::BatchView& b) {
            if (failed) return;
            const size_t n = b.rows();
            for (ActionId a = 0; a < nact; ++a) {
              if (const vm::PredProgram* prog = progs[a].get()) {
                prog->EvalBatch(b.dim_cols(), n,
                                lanes.data() + a * FactTable::kBatchRows,
                                &scratch);
              }
            }
            const RowId first = b.first_row();
            for (size_t k = 0; k < n; ++k) {
              if (failed) return;
              for (size_t d = 0; d < ndims; ++d) {
                row_cell[d] = b.dim_col(d)[k];
              }
              for (ActionId a = 0; a < nact; ++a) {
                row_w[a] = lanes[a * FactTable::kBatchRows + k];
              }
              decide(first + k, row_w.data());
            }
          });
    });
    // Lowest shard's error is the globally first failing row's error.
    for (const Status& st : shard_error) {
      if (!st.ok()) return st;
    }
  }
  return plans;
}

Result<size_t> SubcubeManager::Synchronize(int64_t now_day,
                                           obs::OpProfile* profile) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& sync_latency = registry.GetHistogram(
      "dwred_subcube_sync_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one subcube synchronization pass (Section 7.2)");
  obs::Op op("subcube.sync", sync_latency, profile);
  obs::OpProfile* prof = op.profile();
  if (prof != nullptr) {
    prof->now_day = now_day;
    prof->parallel = true;  // plan fans out over the pool; apply is serial
    prof->fan_out = static_cast<int64_t>(cubes_.size());
  }

  // Writers are exclusive: no query may observe a half-migrated manifest.
  std::unique_lock<std::shared_mutex> snapshot_lock(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  if (prof != nullptr) prof->epoch = cache_->epoch();

  if (prof != nullptr) prof->compiled = spec_.size() > 0;

  // --- Parallel plan, serial apply (docs/PARALLELISM.md) ------------------
  // The plan is read-only, and every abort return sits in it or in the row
  // charge below — before bump.Arm() — so a failed pass mutates nothing. The
  // mutations (appends, erases, counters) then replay serially in the
  // original (cube, row) order, so the resulting tables — and the WAL intent
  // stream recorded around this pass — are byte-identical at every thread
  // count.
  auto plans_r = PlanPlacement(now_day, "cancel.sync.plan");
  if (!plans_r.ok()) return op.Fail(runtime::CountAbort(plans_r.status()));
  const std::vector<Placement> plans = plans_r.take();
  for (size_t i = 0; i < cubes_.size(); ++i) {
    const size_t rows = plans[i].target.size();
    Status charged =
        runtime::CurrentOpContext().ChargeRows(static_cast<int64_t>(rows));
    if (!charged.ok()) return op.Fail(runtime::CountAbort(std::move(charged)));
    if (prof != nullptr) {
      prof->rows_scanned += static_cast<int64_t>(rows);
      prof->segments_total += static_cast<int64_t>(plans[i].segments);
      prof->segments_scanned += static_cast<int64_t>(plans[i].segments);
    }
  }
  op.Stage("plan");

  // The apply phase mutates tables; from here on the caches must be dropped
  // even if a later step fails.
  bump.Arm();
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();
  std::vector<ValueId> cell(ndims);
  std::vector<int64_t> meas(nmeas);
  size_t migrated = 0;
  size_t deleted = 0;
  size_t compacted = 0;
  std::vector<bool> received(cubes_.size(), false);
  for (size_t i = 0; i < cubes_.size(); ++i) {
    Subcube& cube = *cubes_[i];
    const Placement& plan = plans[i];
    std::vector<bool> erase(cube.table.num_rows(), false);
    // Cursor scan over the planned rows (appends from earlier cubes sit in
    // the tail, already in their responsible cube); only *other* cubes'
    // tables are mutated.
    cube.table.ForEachRow(
        0, plan.target.size(), [&](RowId r, const FactTable::RowRef& row) {
          size_t target = plan.target[r];
          if (target == i) return;
          if (target == kDeletedCell) {
            // A deletion action claims the row: physical deletion, no
            // migration.
            erase[r] = true;
            ++migrated;
            ++deleted;
            return;
          }
          std::copy(plan.rolled.begin() + r * ndims,
                    plan.rolled.begin() + (r + 1) * ndims, cell.begin());
          for (size_t m = 0; m < nmeas; ++m) meas[m] = row.measure(m);
          cubes_[target]->table.Append(cell, meas);
          erase[r] = true;
          received[target] = true;
          ++migrated;
        });
    erase.resize(cube.table.num_rows(), false);
    DWRED_RETURN_IF_ERROR(cube.table.EraseRows(erase));
  }
  op.Stage("apply");
  // Cells that received data from several places are aggregated one final
  // time (Section 7.2).
  std::vector<AggFn> aggs;
  for (const auto& m : measures_) aggs.push_back(m.agg);
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (!received[i]) continue;
    DWRED_ASSIGN_OR_RETURN(size_t folded, cubes_[i]->table.CompactCells(aggs));
    compacted += folded;
  }
  op.Stage("compact");

  static obs::Counter& c_syncs = registry.GetCounter(
      "dwred_subcube_syncs", "completed synchronization passes");
  static obs::Counter& c_migrated = registry.GetCounter(
      "dwred_subcube_sync_rows_migrated",
      "rows moved to their responsible subcube (deletions included)");
  static obs::Counter& c_deleted = registry.GetCounter(
      "dwred_subcube_sync_rows_deleted",
      "rows physically removed by deletion actions during synchronization");
  static obs::Counter& c_compacted = registry.GetCounter(
      "dwred_subcube_sync_cells_compacted",
      "rows folded away by the final per-cube cell compaction");
  c_syncs.Increment();
  c_migrated.Increment(migrated);
  c_deleted.Increment(deleted);
  c_compacted.Increment(compacted);
  op.AddCounter("rows_migrated", static_cast<int64_t>(migrated));
  op.AddCounter("rows_deleted", static_cast<int64_t>(deleted));
  op.AddCounter("cells_compacted", static_cast<int64_t>(compacted));
  DWRED_LOG(Debug) << "subcube sync at day " << now_day << ": " << migrated
                   << " rows migrated, " << deleted << " deleted, "
                   << compacted << " compacted";
  return migrated;
}

Result<std::vector<MultidimensionalObject>> SubcubeManager::QuerySubresults(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel) const {
  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  return QuerySubresultsLocked(pred, target, now_day, assume_synchronized,
                               parallel);
}

std::shared_ptr<const vm::RollupProgram> SubcubeManager::CompileRollup(
    const std::vector<CategoryId>& target) const {
  const std::string rkey = cache::RollupFingerprint(target, cache_->epoch());
  std::shared_ptr<const vm::RollupProgram> roll = cache_->LookupRollup(rkey);
  if (roll == nullptr) {
    if (auto compiled = vm::RollupProgram::Compile(dims_, target)) {
      roll = cache_->InsertRollup(
          rkey,
          std::make_shared<const vm::RollupProgram>(std::move(*compiled)));
    }
  }
  return roll;
}

Result<std::vector<FactTable>> SubcubeManager::ResponsibleInputs(
    const std::vector<Placement>& placement) const {
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();
  // One plain segment each: an input is scanned once, so sealing would
  // encode its columns for nothing (pruning then decides per cube). Like
  // every live FactTable, the inputs count in the dwred_storage_* gauges
  // until the query drops them.
  std::vector<FactTable> inputs;
  for (size_t i = 0; i < cubes_.size(); ++i) {
    inputs.emplace_back(ndims, nmeas, FactTable::kMaxSegmentRows);
  }
  std::vector<ValueId> cell(ndims);
  std::vector<int64_t> meas(nmeas);
  // Every cube's staying rows first, then the migrating rows of each cube in
  // cube order at their target's granularity: per target, exactly the row
  // order Synchronize's apply phase would leave the cube in.
  for (bool staying : {true, false}) {
    for (size_t p = 0; p < cubes_.size(); ++p) {
      const std::vector<size_t>& target = placement[p].target;
      const std::vector<ValueId>& rolled = placement[p].rolled;
      cubes_[p]->table.ForEachBatch(
          0, target.size(), [&](const FactTable::BatchView& b) {
            for (size_t k = 0; k < b.rows(); ++k) {
              const RowId r = b.first_row() + k;
              const size_t t = target[r];
              if (t == kDeletedCell || (t == p) != staying) continue;
              for (size_t d = 0; d < ndims; ++d) {
                cell[d] = staying ? b.dim_col(d)[k] : rolled[r * ndims + d];
              }
              for (size_t m = 0; m < nmeas; ++m) meas[m] = b.meas_col(m)[k];
              inputs[t].Append(cell, meas);
            }
          });
    }
  }
  // α[G_i]: every row already sits at its cube's granularity, so the
  // pre-aggregation folds equal cells into their first occurrence.
  std::vector<AggFn> aggs;
  for (const auto& m : measures_) aggs.push_back(m.agg);
  for (FactTable& input : inputs) {
    DWRED_RETURN_IF_ERROR(input.CompactCells(aggs).status());
  }
  return inputs;
}

Result<std::vector<MultidimensionalObject>>
SubcubeManager::QuerySubresultsLocked(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel, obs::Op* op,
    std::shared_ptr<const vm::RollupProgram> rollup) const {
  obs::OpProfile* profile = op != nullptr ? op->profile() : nullptr;
  // The selection predicate prunes whole storage segments via zone maps
  // before any column is decoded: pruned segments hold only rows whose
  // selection weight is 0 under every approach (the spec compiles against
  // the *liberal* may-match oracle, which dominates conservative and
  // weighted), so the scan would drop them anyway and the query result is
  // byte-identical. Figure 9's source is pre-aggregated to the cube's
  // granularity before it is scanned, so pruning it is sound too.
  //
  // Compilation enumerates every value of each constrained dimension through
  // the liberal oracle — linear in dimension extent — so compiled specs are
  // cached per (predicate, NOW day, epoch); a hit skips the enumeration and
  // is byte-identical because nothing else feeds the compilation. A freshly
  // compiled spec is cached only once the fan-out succeeds, so an aborted
  // query leaves the ScanSpec cache as it found it.
  scan::ScanSpec scan_spec = scan::ScanSpec::All();
  std::string new_skey;
  if (pred != nullptr) {
    const std::string skey =
        cache::ScanSpecFingerprint(ctx_, *pred, now_day, cache_->epoch());
    if (std::shared_ptr<const scan::ScanSpec> hit =
            cache_->LookupScanSpec(skey)) {
      scan_spec = *hit;
    } else {
      scan_spec =
          scan::ScanSpec::Compile(ctx_, *pred, now_day, LiberalScanOracle(now_day));
      new_skey = skey;
    }
  }

  // The predicate compiled to bytecode (src/vm, docs/COMPILATION.md) under
  // the conservative approach, cached per (approach, predicate, NOW day,
  // epoch) like the ScanSpec. Null — per-row tree interpretation,
  // byte-identical — when the compiler rejects the predicate.
  std::shared_ptr<const vm::PredProgram> prog;
  if (pred != nullptr) {
    const std::string vkey = cache::ProgramFingerprint(
        ctx_, *pred, now_day, cache_->epoch(),
        SelectionApproachName(SelectionApproach::kConservative));
    prog = cache_->LookupProgram(vkey);
    if (prog == nullptr) {
      if (auto compiled = vm::PredProgram::Compile(
              ctx_, *pred,
              QueryAtomOracle(now_day, SelectionApproach::kConservative))) {
        prog = cache_->InsertProgram(
            vkey,
            std::make_shared<const vm::PredProgram>(std::move(*compiled)));
      }
    }
  }
  // The target-granularity rollup tables, compiled once per query and shared
  // by every per-cube aggregate formation (Query also reuses them for the
  // final combining aggregation).
  if (target != nullptr && rollup == nullptr) rollup = CompileRollup(*target);
  // Figure 9's sources, once per query: Synchronize's placement plan is
  // σ[P_i] for every cube at once, and each cube's share of it,
  // pre-aggregated to G_i, replaces the stored cube. They are built before
  // the fan-out, in one pass over each stored cube.
  // The plan runs the specification's compiled action programs.
  std::vector<Placement> placement;
  std::vector<FactTable> inputs;
  bool compiled = prog != nullptr;
  if (!assume_synchronized) {
    DWRED_ASSIGN_OR_RETURN(placement,
                           PlanPlacement(now_day, "cancel.query.subcube"));
    DWRED_ASSIGN_OR_RETURN(inputs, ResponsibleInputs(placement));
    compiled = compiled || spec_.size() > 0;
  }
  if (profile != nullptr) profile->compiled = compiled;

  if (op != nullptr) op->Stage("plan");
  if (profile != nullptr) {
    profile->fan_out = static_cast<int64_t>(cubes_.size());
    profile->subcubes.assign(cubes_.size(), obs::SubcubeProfile{});
  }

  // One evaluation per subcube; in parallel mode the evaluations fan out
  // over the process-wide pool (only shared *reads*: dimensions, the stored
  // cubes or Figure 9's inputs, the compiled scan spec and programs).
  auto eval_one = [&](size_t i) -> Result<MultidimensionalObject> {
    // Cooperative abort point, polled once per subcube before its rows are
    // touched; the cube's full row count is charged against the query's row
    // budget up front so an over-budget fan-out stops at subcube granularity.
    // Evaluation is read-only, so aborting here leaves no state behind.
    DWRED_RETURN_IF_ERROR(runtime::PollCancel("cancel.query.subcube"));
    DWRED_RETURN_IF_ERROR(runtime::CurrentOpContext().ChargeRows(
        static_cast<int64_t>(cubes_[i]->table.num_rows())));
    static obs::Histogram& subquery_latency =
        obs::MetricsRegistry::Global().GetHistogram(
            "dwred_subcube_subquery_seconds", obs::DefaultLatencyBuckets(),
            "wall time of one per-subcube subquery evaluation (Section 7.3)");
    const Subcube& cube = *cubes_[i];
    // Each cube writes only its own profile slot — no atomics, deterministic.
    obs::SubcubeProfile* sc =
        profile != nullptr ? &profile->subcubes[i] : nullptr;
    obs::Op sub(obs::TraceBuffer::Global().enabled()
                    ? "subcube.subquery/cube=" + cube.name
                    : std::string("subcube.subquery"),
                subquery_latency, sc);
    sub.AddField("cube", static_cast<int64_t>(i));

    // The source: the stored cube, or Figure 9's pre-aggregated input.
    const FactTable& source = inputs.empty() ? cube.table : inputs[i];
    scan::ScanPlan plan = scan::PlanTableScan(source, scan_spec);
    if (sc != nullptr) {
      sc->name = cube.name;
      sc->segments_total = static_cast<int64_t>(plan.segments_total);
      sc->segments_pruned = static_cast<int64_t>(plan.segments_pruned);
      sc->segments_scanned =
          static_cast<int64_t>(plan.segments_total - plan.segments_pruned);
      sc->rows_skipped = static_cast<int64_t>(plan.rows_skipped);
      if (!inputs.empty()) {
        // The placement plan read every stored row of the cube; its
        // segments join the input's in the slice (both moved the
        // dwred_scan_* counters).
        sc->rows_scanned = static_cast<int64_t>(cube.table.num_rows());
        sc->segments_total += static_cast<int64_t>(placement[i].segments);
        sc->segments_scanned += static_cast<int64_t>(placement[i].segments);
      } else {
        for (const exec::Shard& u : plan.units) {
          sc->rows_scanned += static_cast<int64_t>(u.end - u.begin);
        }
      }
    }
    sub.Stage("scan");
    // σ→α fused (operators.h: AggregateFromScan), or σ alone: weights off
    // the storage segments through the compiled program, surviving rows
    // folded into their output groups (or emitted under their logical-row
    // names). A null predicate weighs every row 1.
    MultidimensionalObject base(fact_type_, dims_, measures_);
    if (target != nullptr) {
      DWRED_ASSIGN_OR_RETURN(
          base, AggregateFromScan(source, plan, pred, now_day,
                                  SelectionApproach::kConservative, fact_type_,
                                  dims_, measures_, *target, prog, rollup));
    } else {
      DWRED_ASSIGN_OR_RETURN(
          SelectionResult sel,
          SelectFromScan(source, plan, pred, now_day,
                         SelectionApproach::kConservative, fact_type_, dims_,
                         measures_, prog));
      base = std::move(sel.mo);
    }
    sub.Stage("aggregate");
    if (sc != nullptr) sc->result_facts = static_cast<int64_t>(base.num_facts());
    return base;
  };

  // Serial fold of the per-cube slots into the attribution totals.
  auto fold_profile = [&] {
    if (profile == nullptr) return;
    for (const obs::SubcubeProfile& sc : profile->subcubes) {
      profile->segments_total += sc.segments_total;
      profile->segments_scanned += sc.segments_scanned;
      profile->segments_pruned += sc.segments_pruned;
      profile->rows_scanned += sc.rows_scanned;
      profile->rows_skipped += sc.rows_skipped;
    }
  };

  std::vector<MultidimensionalObject> subresults;
  if (!parallel || cubes_.size() < 2) {
    for (size_t i = 0; i < cubes_.size(); ++i) {
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject sub, eval_one(i));
      subresults.push_back(std::move(sub));
    }
  } else {
    // One pool shard per subcube. The nested ParallelFor calls inside the
    // scans are safe: the pool's caller participation keeps nested
    // operations deadlock-free. Results land in per-cube slots and are
    // collected in cube order — identical at every thread count.
    std::vector<std::optional<Result<MultidimensionalObject>>> slots(
        cubes_.size());
    exec::ThreadPool::Global().ParallelFor(
        cubes_.size(), /*grain=*/1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) slots[i].emplace(eval_one(i));
        });
    for (size_t i = 0; i < cubes_.size(); ++i) {
      if (!slots[i]->ok()) return slots[i]->status();
      subresults.push_back(std::move(slots[i]->value()));
    }
  }
  if (!new_skey.empty()) cache_->InsertScanSpec(new_skey, scan_spec);
  fold_profile();
  return subresults;
}

Result<MultidimensionalObject> SubcubeManager::Query(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel,
    uint64_t* pinned_epoch, obs::OpProfile* profile) const {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& query_latency = registry.GetHistogram(
      "dwred_subcube_query_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one whole subcube query (subqueries + final combine)");
  static obs::Counter& c_queries = registry.GetCounter(
      "dwred_subcube_queries", "subcube queries evaluated");
  c_queries.Increment();
  obs::Op op("subcube.query", query_latency, profile);
  obs::OpProfile* prof = op.profile();
  if (prof != nullptr) {
    prof->now_day = now_day;
    prof->assume_synchronized = assume_synchronized;
    prof->parallel = parallel;
  }

  // Admission gate (runtime/governor.h): bounded wait for a slot, then shed
  // with kResourceExhausted. Acquired before the snapshot lock so a queued
  // query holds no reader lock while it waits; the ticket spans the whole
  // evaluation. Every abort return below precedes cache_->InsertQuery, so an
  // aborted query never pollutes the cache (docs/ROBUSTNESS.md); each counts
  // the aborted query once.
  runtime::AdmissionTicket ticket;
  if (Status admitted = runtime::ResourceGovernor::Global().Admit(&ticket);
      !admitted.ok()) {
    return op.Fail(runtime::CountAbort(std::move(admitted)));
  }

  // Epoch-pinned snapshot: the shared lock spans lookup, evaluation and
  // insert, so the epoch read here is the epoch of every byte this query
  // observes (writers are exclusive).
  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  const uint64_t epoch = cache_->epoch();
  if (pinned_epoch != nullptr) *pinned_epoch = epoch;
  // Snapshot-isolation self-check: the storage content versions must not
  // move while the shared lock is held.
  uint64_t version_sum = 0;
  for (const auto& c : cubes_) version_sum += c->table.content_version();

  // Cooperative abort point: before the cache lookup, so a cancelled query
  // moves no cache counters and the differential test sees identical stats.
  if (Status s = runtime::PollCancel("cancel.query.begin"); !s.ok()) {
    return op.Fail(runtime::CountAbort(std::move(s)));
  }

  const std::string key = cache::QueryFingerprint(
      ctx_, pred, target, now_day, assume_synchronized, epoch);
  if (prof != nullptr) {
    prof->epoch = epoch;
    prof->cache =
        cache::Enabled() ? obs::CacheOutcome::kMiss : obs::CacheOutcome::kDisabled;
    // Hash the key only for an EXPLAIN caller, the one reader of the
    // fingerprint: keeps the warm path within its overhead budget
    // (bench_query_cache.cc).
    if (profile != nullptr) prof->fingerprint = obs::Fnv1a64(key);
  }
  if (std::shared_ptr<const MultidimensionalObject> hit =
          cache_->LookupQuery(key)) {
    op.AddField("cache_hit", int64_t{1});
    op.Stage("lookup");
    MultidimensionalObject result = *hit;
    op.Stage("materialize");
    if (prof != nullptr) {
      prof->cache = obs::CacheOutcome::kHit;
      prof->result_facts = static_cast<int64_t>(result.num_facts());
    }
    return result;
  }
  op.Stage("lookup");

  std::shared_ptr<const vm::RollupProgram> roll;
  if (target != nullptr) roll = CompileRollup(*target);
  auto subs_r = QuerySubresultsLocked(pred, target, now_day,
                                      assume_synchronized, parallel, &op,
                                      roll);
  if (!subs_r.ok()) return op.Fail(runtime::CountAbort(subs_r.status()));
  std::vector<MultidimensionalObject> subs = subs_r.take();
  // Wall clock of the whole fan-out; each subcube's own scan / aggregate
  // laps sit in its slice of the profile.
  op.Stage("subqueries_wall");
  // Union of disjoint subresults ...
  MultidimensionalObject unioned(fact_type_, dims_, measures_);
  std::vector<ValueId> cell(dims_.size());
  std::vector<int64_t> meas(measures_.size());
  for (const auto& s : subs) {
    for (FactId f = 0; f < s.num_facts(); ++f) {
      for (size_t d = 0; d < dims_.size(); ++d) {
        cell[d] = s.Coord(f, static_cast<DimensionId>(d));
      }
      for (size_t m = 0; m < measures_.size(); ++m) {
        meas[m] = s.Measure(f, static_cast<MeasureId>(m));
      }
      auto res = unioned.AddFact(cell, meas);
      if (!res.ok()) return res.status();
    }
  }
  // ... then one final combining aggregation (distributivity makes the
  // two-step aggregation exact, Section 7.3).
  if (target) {
    DWRED_ASSIGN_OR_RETURN(
        unioned, AggregateFormation(unioned, *target,
                                    AggregationApproach::kAvailability,
                                    /*track_provenance=*/false, roll));
  }
  uint64_t version_check = 0;
  for (const auto& c : cubes_) version_check += c->table.content_version();
  DWRED_CHECK(version_check == version_sum);
  cache_->InsertQuery(key,
                      std::make_shared<MultidimensionalObject>(unioned));
  // The union + final combining aggregation materializes the result.
  op.Stage("materialize");
  if (prof != nullptr) {
    prof->result_facts = static_cast<int64_t>(unioned.num_facts());
  }
  return unioned;
}

Status SubcubeManager::ChangeSpecification(ReductionSpecification new_spec,
                                           int64_t now_day) {
  // Last cooperative check before the irrevocable layout swap: a
  // specification change cannot unwind cleanly once rows start moving, so an
  // already-cancelled or expired context is rejected up front and never after.
  DWRED_RETURN_IF_ERROR(runtime::CountAbort(runtime::CurrentOpContext().Check()));
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  bump.Arm();  // the layout swap below always invalidates cached results
  // Stash every row, swap the specification, rebuild the layout, then
  // redistribute (Section 7.2's infrequent synchronization: "data is moved
  // from all old subcubes, not only from parent cubes").
  struct Row {
    std::vector<ValueId> cell;
    std::vector<int64_t> meas;
  };
  std::vector<Row> rows;
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();
  for (const auto& c : cubes_) {
    c->table.ForEachRow(
        0, c->table.num_rows(), [&](RowId, const FactTable::RowRef& ref) {
          Row row;
          row.cell.resize(ndims);
          for (size_t d = 0; d < ndims; ++d) row.cell[d] = ref.coord(d);
          row.meas.resize(nmeas);
          for (size_t m = 0; m < nmeas; ++m) row.meas[m] = ref.measure(m);
          rows.push_back(std::move(row));
        });
  }

  spec_ = std::move(new_spec);
  DWRED_RETURN_IF_ERROR(BuildLayout());

  std::vector<AggFn> aggs;
  for (const auto& m : measures_) aggs.push_back(m.agg);
  // Compiled after the layout swap so the programs reflect the new actions.
  const SpecPrograms progs = CompileSpecPrograms(now_day);
  for (const Row& row : rows) {
    auto target_res = ResponsibleCubeWith(row.cell, now_day, &progs);
    if (!target_res.ok()) return target_res.status();
    size_t target = target_res.value();
    if (target == kDeletedCell) continue;  // claimed by a deletion action
    auto rolled = RollCell(row.cell, cubes_[target]->granularity);
    if (!rolled.ok()) return rolled.status();
    cubes_[target]->table.Append(rolled.value(), row.meas);
  }
  for (auto& c : cubes_) {
    DWRED_RETURN_IF_ERROR(c->table.CompactCells(aggs).status());
  }
  return Status::OK();
}

size_t SubcubeManager::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& c : cubes_) bytes += c->table.Bytes();
  return bytes;
}

std::string SubcubeManager::DescribeLayout() const {
  std::string out;
  for (size_t i = 0; i < cubes_.size(); ++i) {
    const Subcube& c = *cubes_[i];
    out += c.name + " (";
    for (size_t d = 0; d < dims_.size(); ++d) {
      if (d) out += ", ";
      out += dims_[d]->type().category_name(c.granularity[d]);
    }
    out += ") actions={";
    for (size_t a = 0; a < c.actions.size(); ++a) {
      if (a) out += ",";
      const std::string& n = spec_.action(c.actions[a]).name;
      out += n.empty() ? std::to_string(c.actions[a]) : n;
    }
    out += "} parents={";
    for (size_t p = 0; p < c.parents.size(); ++p) {
      if (p) out += ",";
      out += cubes_[c.parents[p]]->name;
    }
    out += "} rows=" + std::to_string(c.table.num_rows()) + "\n";
  }
  return out;
}

}  // namespace dwred
