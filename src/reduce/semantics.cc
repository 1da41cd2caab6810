#include "reduce/semantics.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/op.h"
#include "runtime/cancel.h"
#include "scan/scan.h"
#include "storage/fact_table.h"
#include "vm/program.h"

namespace dwred {

namespace {

using ActionPrograms = std::vector<std::shared_ptr<const vm::PredProgram>>;

/// Per-action satisfaction test: with a compiled 0/1 program, `w` is the
/// fact's batch-precomputed weight under it (vm::PredProgram::EvalBatch over
/// a column chunk); without one, or on a kOutOfRange lane, the tree
/// interpreter decides — byte-identical either way (docs/COMPILATION.md).
bool ActionSatisfied(const Action& a, const vm::PredProgram* prog, double w,
                     const MultidimensionalObject& mo, FactId f,
                     int64_t now_day) {
  if (prog != nullptr) {
    if (w != vm::PredProgram::kOutOfRange) return w != 0.0;
    vm::CountFallback();  // coordinate interned after compilation
  }
  return EvalPredOnFact(*a.predicate, mo, f, now_day);
}

/// MaxSpecGran over optional compiled action programs: `action_w` holds the
/// fact's weight under each of `progs` (both null: interpret every action).
Result<std::vector<CategoryId>> MaxSpecGranImpl(
    const MultidimensionalObject& mo, const ReductionSpecification& spec,
    FactId f, int64_t now_day, ActionId* responsible, bool* deleted,
    const ActionPrograms* progs, const double* action_w) {
  if (deleted) *deleted = false;
  std::vector<CategoryId> fact_gran = mo.Gran(f);

  // Maximum over the satisfied actions (totally ordered for NonCrossing
  // specifications).
  const std::vector<CategoryId>* action_gran = nullptr;
  ActionId best_action = kNoAction;
  for (size_t i = 0; i < spec.size(); ++i) {
    const Action& a = spec.action(static_cast<ActionId>(i));
    const vm::PredProgram* prog =
        progs != nullptr ? (*progs)[i].get() : nullptr;
    const double w = prog != nullptr ? action_w[i] : 0.0;
    if (!ActionSatisfied(a, prog, w, mo, f, now_day)) continue;
    if (a.deletes) {
      // Deletion dominates every aggregation level.
      if (deleted) *deleted = true;
      if (responsible) *responsible = static_cast<ActionId>(i);
      return fact_gran;
    }
    if (action_gran) {
      if (GranularityLeq(mo, a.granularity, *action_gran)) continue;
      if (!GranularityLeq(mo, *action_gran, a.granularity)) {
        return Status::Internal(
            "satisfied granularities are not totally ordered for " +
            mo.FactName(f) + " — specification violates NonCrossing");
      }
    }
    action_gran = &a.granularity;
    best_action = static_cast<ActionId>(i);
  }
  if (responsible) *responsible = best_action;
  if (!action_gran) return fact_gran;

  // Combine with the fact's own granularity per dimension (Spec_gran always
  // contains Gran(f)). Tuple comparison suffices for bottom-level facts; the
  // per-dimension LUB generalizes it to facts mapped to ⊤ in some dimension
  // ("unknown value"): that dimension stays at ⊤ while the others aggregate.
  std::vector<CategoryId> best(fact_gran.size());
  bool higher_than_fact = false;
  for (size_t d = 0; d < fact_gran.size(); ++d) {
    const DimensionType& type = mo.dimension(static_cast<DimensionId>(d))->type();
    best[d] = type.Lub(fact_gran[d], (*action_gran)[d]);
    if (best[d] != fact_gran[d]) higher_than_fact = true;
  }
  if (!higher_than_fact && responsible) {
    // The action does not lift the fact anywhere: the fact's own granularity
    // wins (the action may still be the one historically responsible).
    *responsible = best_action;
  }
  return best;
}

/// One compiled program per action (null slots for predicates the compiler
/// rejects).
ActionPrograms CompileActionPrograms(const MultidimensionalObject& mo,
                                     const ReductionSpecification& spec,
                                     int64_t now_day) {
  ActionPrograms progs;
  progs.reserve(spec.size());
  const scan::AtomOracle oracle = vm::SpecAtomOracle(mo, now_day);
  for (size_t i = 0; i < spec.size(); ++i) {
    const Action& a = spec.action(static_cast<ActionId>(i));
    auto compiled = vm::PredProgram::Compile(mo, *a.predicate, oracle);
    progs.push_back(compiled
                        ? std::make_shared<const vm::PredProgram>(
                              std::move(*compiled))
                        : nullptr);
  }
  return progs;
}

}  // namespace

Result<std::vector<CategoryId>> MaxSpecGran(const MultidimensionalObject& mo,
                                            const ReductionSpecification& spec,
                                            FactId f, int64_t now_day,
                                            ActionId* responsible,
                                            bool* deleted) {
  return MaxSpecGranImpl(mo, spec, f, now_day, responsible, deleted, nullptr,
                         nullptr);
}

Result<std::vector<ValueId>> CellOf(const MultidimensionalObject& mo,
                                    const ReductionSpecification& spec,
                                    FactId f, int64_t now_day) {
  DWRED_ASSIGN_OR_RETURN(std::vector<CategoryId> gran,
                         MaxSpecGran(mo, spec, f, now_day));
  std::vector<ValueId> cell(mo.num_dimensions());
  for (size_t d = 0; d < mo.num_dimensions(); ++d) {
    auto dd = static_cast<DimensionId>(d);
    ValueId v = mo.dimension(dd)->Rollup(mo.Coord(f, dd), gran[d]);
    if (v == kInvalidValue) {
      return Status::Internal("no rollup of " +
                              mo.dimension(dd)->value_name(mo.Coord(f, dd)) +
                              " to the target granularity");
    }
    cell[d] = v;
  }
  return cell;
}

Result<CategoryId> AggLevel(const MultidimensionalObject& mo,
                            const ReductionSpecification& spec,
                            DimensionId dim, std::span<const ValueId> cell,
                            int64_t now_day) {
  const DimensionType& type = mo.dimension(dim)->type();
  CategoryId best = type.bottom();
  for (const Action& a : spec.actions()) {
    if (!EvalPredOnCell(*a.predicate, mo, cell, now_day)) continue;
    CategoryId c = a.granularity[dim];
    if (type.Leq(c, best)) continue;
    if (!type.Leq(best, c)) {
      return Status::Internal(
          "AggLevel: incomparable categories specified for one cell — "
          "specification violates NonCrossing");
    }
    best = c;
  }
  return best;
}

Result<MultidimensionalObject> Reduce(const MultidimensionalObject& mo,
                                      const ReductionSpecification& spec,
                                      int64_t now_day,
                                      const ReduceOptions& options,
                                      ReduceStats* stats) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& pass_latency = registry.GetHistogram(
      "dwred_reduce_pass_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one reduction pass (Definition 2)");
  obs::Op op("reduce.pass", pass_latency);
  if (obs::OpProfile* prof = op.profile()) prof->now_day = now_day;

  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  const size_t ndims = mo.num_dimensions();
  const size_t nmeas = mo.num_measures();

  struct Group {
    FactId out_id;
    std::vector<FactId> sources;   // original constituent ids
    ActionId responsible;
    bool aggregated;               // any input changed granularity
  };
  std::unordered_map<std::vector<ValueId>, Group, CellKeyHash> groups;

  // --- Parallel scan (docs/PARALLELISM.md) --------------------------------
  // Definition 2 assigns every fact to its cell independently, so the scan
  // shards over contiguous fact ranges. Each shard builds an
  // insertion-ordered local cell map with partial aggregates; the shards are
  // then merged in ascending range order, which reproduces the serial
  // first-occurrence order (output fact ids) and the serial measure fold
  // sequence (the default aggregate functions are associative), so the
  // output is byte-identical at every thread count.
  struct ShardGroup {
    std::vector<ValueId> cell;
    std::vector<int64_t> meas;      // folded over the shard's members
    std::vector<FactId> sources;    // raw; dedup/sort happens at naming time
    ActionId last_action_resp = kNoAction;  // last in-shard action responsible
    ActionId first_fallback = kNoAction;    // serial init value (first member)
    bool aggregated_if_first = false;       // changed(first) || members > 1
  };
  struct ShardAccum {
    std::vector<ShardGroup> ordered;  // first-occurrence order within shard
    std::unordered_map<std::vector<ValueId>, size_t, CellKeyHash> index;
    size_t facts_aggregated = 0;
    size_t facts_deleted = 0;
    Status error = Status::OK();  // first error; shard stops there
  };

  // The per-action predicate programs and the measure fold, compiled once
  // for the whole pass (src/vm) and shared read-only by every shard.
  const ActionPrograms action_progs = CompileActionPrograms(mo, spec, now_day);
  const vm::FoldProgram fold = vm::FoldProgram::Compile(mo.measure_types());

  scan::ScanPlan plan = scan::PlanMoScan(mo.num_facts(), /*grain=*/1024);
  std::vector<ShardAccum> accums(plan.units.size());
  op.Stage("compile");

  scan::Execute(plan, [&](size_t si, size_t begin, size_t end) {
    ShardAccum& acc = accums[si];
    // Cooperative abort point (runtime/cancel.h): polled once per shard, and
    // the shard's rows are charged against the operation's budget before any
    // of them are scanned. Reduce builds `out` fresh and the caller assigns
    // it only on success, so stopping here leaves no partial state anywhere.
    acc.error = runtime::PollCancel("cancel.reduce.shard");
    if (!acc.error.ok()) return;
    acc.error = runtime::CurrentOpContext().ChargeRows(
        static_cast<int64_t>(end - begin));
    if (!acc.error.ok()) return;
    std::vector<ValueId> cell(ndims);
    // Assigns one fact to its cell group; returns false when the shard must
    // stop (acc.error set). `action_w` carries the fact's batch-precomputed
    // per-action program weights.
    auto process = [&](FactId f, const double* action_w) -> bool {
      ActionId responsible = kNoAction;
      bool deleted = false;
      auto gran_r = MaxSpecGranImpl(mo, spec, f, now_day, &responsible,
                                    &deleted, &action_progs, action_w);
      if (!gran_r.ok()) {
        acc.error = gran_r.status();
        return false;
      }
      if (deleted) {
        // Deletion action (Section 8 extension): the fact is physically
        // removed — no cell, no group.
        ++acc.facts_deleted;
        return true;
      }
      const std::vector<CategoryId>& gran = gran_r.value();
      bool changed = false;
      for (size_t d = 0; d < ndims; ++d) {
        auto dd = static_cast<DimensionId>(d);
        ValueId direct = mo.Coord(f, dd);
        ValueId v = mo.dimension(dd)->Rollup(direct, gran[d]);
        if (v == kInvalidValue) {
          acc.error = Status::Internal(
              "no rollup to target granularity for " + mo.FactName(f));
          return false;
        }
        if (v != direct) changed = true;
        cell[d] = v;
      }
      if (changed) ++acc.facts_aggregated;

      auto it = acc.index.find(cell);
      if (it == acc.index.end()) {
        ShardGroup g;
        g.cell = cell;
        g.meas.resize(nmeas);
        for (size_t m = 0; m < nmeas; ++m) {
          g.meas[m] = mo.Measure(f, static_cast<MeasureId>(m));
        }
        g.first_fallback =
            responsible != kNoAction ? responsible : mo.ResponsibleAction(f);
        g.last_action_resp = responsible;
        g.aggregated_if_first = changed;
        if (options.track_provenance) {
          if (const std::vector<FactId>* prov = mo.Provenance(f)) {
            g.sources = *prov;
          } else {
            g.sources = {f};
          }
        }
        acc.index.emplace(cell, acc.ordered.size());
        acc.ordered.push_back(std::move(g));
      } else {
        ShardGroup& g = acc.ordered[it->second];
        // Fold measures with the default aggregate functions (Definition 2),
        // through the precompiled fold (same CombineMeasure calls).
        fold.Fold(g.meas.data(), mo.FactMeasures(f).data());
        g.aggregated_if_first = true;  // two members make the group aggregated
        if (responsible != kNoAction) g.last_action_resp = responsible;
        if (options.track_provenance) {
          if (const std::vector<FactId>* prov = mo.Provenance(f)) {
            g.sources.insert(g.sources.end(), prov->begin(), prov->end());
          } else {
            g.sources.push_back(f);
          }
        }
      }
      return true;
    };
    // Vectorized assignment: transpose row-major MO chunks into column
    // scratch, evaluate every compiled action predicate chunk-at-a-time,
    // then hand each fact its precomputed lane weights (the
    // vm::PredProgram::EvalBatch contract: bitwise the per-row weights).
    constexpr size_t kChunk = FactTable::kBatchRows;
    const size_t nact = action_progs.size();
    vm::PredProgram::BatchScratch scratch;
    std::vector<ValueId> cols(ndims * kChunk);
    std::vector<const ValueId*> colp(ndims);
    for (size_t d = 0; d < ndims; ++d) colp[d] = cols.data() + d * kChunk;
    std::vector<double> lanes(nact * kChunk);
    std::vector<double> row_w(nact);
    for (FactId f0 = begin; f0 < end; f0 += kChunk) {
      const size_t n = std::min<size_t>(kChunk, end - f0);
      for (size_t i = 0; i < n; ++i) {
        const ValueId* row = mo.FactCoords(f0 + i).data();
        for (size_t d = 0; d < ndims; ++d) cols[d * kChunk + i] = row[d];
      }
      for (size_t a = 0; a < nact; ++a) {
        if (const vm::PredProgram* p = action_progs[a].get()) {
          p->EvalBatch(colp.data(), n, lanes.data() + a * kChunk, &scratch);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t a = 0; a < nact; ++a) row_w[a] = lanes[a * kChunk + i];
        if (!process(f0 + i, row_w.data())) return;
      }
    }
  });

  op.Stage("scan");

  // Deterministic merge, ascending shard order, reproducing the interleaved
  // serial error order exactly: each shard's groups are merged (surfacing any
  // out.AddFact error at that cell's globally first occurrence) *before* the
  // shard's own scan error is checked. A shard stops accumulating at its
  // first failing fact, so every group it carries precedes that fact, and
  // shards after the first failing one are never merged — the error reported
  // is the globally first failing fact's error at every thread count
  // (docs/PARALLELISM.md, "Error reporting").
  size_t facts_aggregated = 0;
  size_t facts_deleted = 0;
  for (ShardAccum& acc : accums) {
    for (ShardGroup& sg : acc.ordered) {
      auto it = groups.find(sg.cell);
      if (it == groups.end()) {
        // Globally first occurrence: materialize the output fact.
        DWRED_ASSIGN_OR_RETURN(FactId nf, out.AddFact(sg.cell, sg.meas));
        Group g;
        g.out_id = nf;
        g.responsible = sg.last_action_resp != kNoAction ? sg.last_action_resp
                                                         : sg.first_fallback;
        g.aggregated = sg.aggregated_if_first;
        g.sources = std::move(sg.sources);
        groups.emplace(std::move(sg.cell), std::move(g));
      } else {
        Group& g = it->second;
        for (size_t m = 0; m < nmeas; ++m) {
          auto mm = static_cast<MeasureId>(m);
          out.SetMeasure(g.out_id, mm,
                         CombineMeasure(mo.measure_type(mm).agg,
                                        out.Measure(g.out_id, mm), sg.meas[m]));
        }
        g.aggregated = true;
        if (sg.last_action_resp != kNoAction) {
          g.responsible = sg.last_action_resp;
        }
        g.sources.insert(g.sources.end(), sg.sources.begin(),
                         sg.sources.end());
      }
    }
    if (!acc.error.ok()) return op.Fail(runtime::CountAbort(acc.error));
    facts_aggregated += acc.facts_aggregated;
    facts_deleted += acc.facts_deleted;
  }

  if (options.track_provenance) {
    for (auto& [key, g] : groups) {
      if (!g.aggregated && g.sources.size() == 1) {
        // Unchanged fact: keep its name; record provenance so later passes
        // and aggregations still know the original constituents.
        FactId original = g.sources[0];
        out.SetFactName(g.out_id, "fact_" + std::to_string(original));
        out.SetProvenance(g.out_id, g.sources, g.responsible);
        continue;
      }
      std::sort(g.sources.begin(), g.sources.end());
      g.sources.erase(std::unique(g.sources.begin(), g.sources.end()),
                      g.sources.end());
      // Paper-style merged names: fact_0 + fact_3 -> "fact_03".
      std::string name = "fact_";
      for (FactId s : g.sources) name += std::to_string(s);
      out.SetFactName(g.out_id, std::move(name));
      out.SetProvenance(g.out_id, g.sources, g.responsible);
    }
  }

  op.Stage("combine");

  if (stats) {
    stats->input_facts = mo.num_facts();
    stats->output_facts = out.num_facts();
    stats->facts_aggregated = facts_aggregated;
    stats->facts_deleted = facts_deleted;
  }

  // ReduceStats, folded into process-wide totals.
  static obs::Counter& c_passes = registry.GetCounter(
      "dwred_reduce_passes", "completed reduction passes");
  static obs::Counter& c_in = registry.GetCounter(
      "dwred_reduce_facts_in", "input facts scanned by reduction passes");
  static obs::Counter& c_out = registry.GetCounter(
      "dwred_reduce_facts_out", "facts materialized by reduction passes");
  static obs::Counter& c_agg = registry.GetCounter(
      "dwred_reduce_facts_aggregated",
      "input facts whose granularity changed during reduction");
  static obs::Counter& c_del = registry.GetCounter(
      "dwred_reduce_facts_deleted",
      "input facts removed by deletion actions during reduction");
  c_passes.Increment();
  c_in.Increment(mo.num_facts());
  c_out.Increment(out.num_facts());
  c_agg.Increment(facts_aggregated);
  c_del.Increment(facts_deleted);
  op.AddField("facts_in", static_cast<int64_t>(mo.num_facts()));
  op.AddField("facts_out", static_cast<int64_t>(out.num_facts()));
  op.AddCounter("facts_aggregated", static_cast<int64_t>(facts_aggregated));
  op.AddCounter("facts_deleted", static_cast<int64_t>(facts_deleted));
  if (obs::OpProfile* prof = op.profile()) {
    prof->rows_scanned = static_cast<int64_t>(mo.num_facts());
    prof->result_facts = static_cast<int64_t>(out.num_facts());
  }
  return out;
}

}  // namespace dwred
