#include "query/operators.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/scan.h"
#include "storage/fact_table.h"

namespace dwred {

namespace {

/// True when no row of [first, first + n) carries positive weight — the
/// late-materialization test that lets phase 2 skip decoding whole chunks.
bool NoSurvivors(const std::vector<double>& weights, RowId first, size_t n) {
  const double* w = weights.data() + first;
  for (size_t i = 0; i < n; ++i) {
    if (w[i] > 0.0) return false;
  }
  return true;
}

/// Bit offset of each dimension in a 64-bit packed cell key, or nullopt when
/// the dimensions' interned-value ranges do not fit 64 bits together. Packing
/// is injective (every cell coordinate is an interned ValueId of its
/// dimension, so it fits its field), which is what lets the columnar fused
/// fold group by one integer instead of a heap vector.
std::optional<std::vector<int>> PackedCellShifts(
    const std::vector<std::shared_ptr<Dimension>>& dims) {
  std::vector<int> shifts(dims.size());
  int used = 0;
  for (size_t d = 0; d < dims.size(); ++d) {
    shifts[d] = used;
    used += std::bit_width(dims[d]->num_values() | 1);
    if (used > 64) return std::nullopt;
  }
  return shifts;
}

/// Open-addressing map from packed cell key to output FactId — the hot probe
/// of the columnar σ→α fold. Linear probing over a power-of-two table; the
/// caller assigns Slot() its group's fact id on first occurrence, so group
/// creation order (and therefore output bytes) is identical to the
/// vector-keyed map it replaces.
class PackedGroupIndex {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  PackedGroupIndex() : keys_(1024), ids_(1024, kEmpty), mask_(1023) {}

  /// The id slot for `key` (kEmpty when unseen). References are invalidated
  /// by the next Slot() call.
  uint32_t& Slot(uint64_t key) {
    if ((count_ + 1) * 4 >= keys_.size() * 3) Grow();
    size_t i = Hash(key) & mask_;
    while (ids_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    if (ids_[i] == kEmpty) {
      keys_[i] = key;
      ++count_;
    }
    return ids_[i];
  }

 private:
  static size_t Hash(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_ids = std::move(ids_);
    keys_.assign(old_keys.size() * 2, 0);
    ids_.assign(old_ids.size() * 2, kEmpty);
    mask_ = keys_.size() - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_ids[i] == kEmpty) continue;
      size_t j = Hash(old_keys[i]) & mask_;
      while (ids_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      ids_[j] = old_ids[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> ids_;
  size_t mask_;
  size_t count_ = 0;
};

}  // namespace

const char* AggregationApproachName(AggregationApproach a) {
  switch (a) {
    case AggregationApproach::kAvailability: return "availability";
    case AggregationApproach::kStrict: return "strict";
    case AggregationApproach::kLub: return "LUB";
    case AggregationApproach::kDisaggregated: return "disaggregated";
  }
  return "?";
}

Result<SelectionResult> Select(const MultidimensionalObject& mo,
                               const PredExpr& pred, int64_t now_day,
                               SelectionApproach approach,
                               const std::shared_ptr<const vm::PredProgram>&
                                   compiled) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& select_latency = registry.GetHistogram(
      "dwred_query_select_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one selection operator evaluation (Section 6)");
  static obs::Counter& c_selects =
      registry.GetCounter("dwred_query_selects", "selection operators run");
  obs::TraceSpan span("query.select", &select_latency);
  c_selects.Increment();
  span.AddField("facts_in", static_cast<int64_t>(mo.num_facts()));
  SelectionResult out{MultidimensionalObject(mo.fact_type(), mo.dimensions(),
                                             mo.measure_types()),
                      {}};

  // Predicate evaluation is independent per fact, so it shards over fact
  // ranges; the output MO is then built serially in fact order from the
  // precomputed weights, which keeps the result byte-identical at every
  // thread count (docs/PARALLELISM.md).
  std::vector<double> weights(mo.num_facts());
  if (compiled != nullptr) {
    vm::CompiledScan cs(compiled, [&](const ValueId* c) {
      return EvalQueryPredOnCoords(pred, mo.dimensions(), c, now_day, approach);
    });
    cs.WeighMo(mo, &weights);
  } else {
    scan::Execute(scan::PlanMoScan(mo.num_facts(), /*grain=*/512),
                  [&](size_t, size_t begin, size_t end) {
                    for (FactId f = begin; f < end; ++f) {
                      weights[f] =
                          EvalQueryPredOnFact(pred, mo, f, now_day, approach);
                    }
                  });
  }

  size_t survivors = 0;
  for (double w : weights) survivors += w > 0.0 ? 1 : 0;
  out.mo.ReserveFacts(survivors);
  if (approach == SelectionApproach::kWeighted) out.weights.reserve(survivors);
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    double w = weights[f];
    if (w <= 0.0) continue;
    // Source coordinates were validated when `mo` was built and the schemas
    // are identical, so the survivors append unchecked.
    FactId nf = out.mo.AppendFactUnchecked(mo.FactCoords(f), mo.FactMeasures(f));
    out.mo.SetFactName(nf, mo.FactName(f));
    if (const std::vector<FactId>* prov = mo.Provenance(f)) {
      out.mo.SetProvenance(nf, *prov, mo.ResponsibleAction(f));
    }
    if (approach == SelectionApproach::kWeighted) out.weights.push_back(w);
  }
  return out;
}

Result<SelectionResult> SelectFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::shared_ptr<const vm::PredProgram>& compiled,
    bool materialize_names) {
  DWRED_CHECK(dims.size() == t.num_dims());
  DWRED_CHECK(measures.size() == t.num_measures());
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& select_latency = registry.GetHistogram(
      "dwred_query_select_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one selection operator evaluation (Section 6)");
  static obs::Counter& c_selects =
      registry.GetCounter("dwred_query_selects", "selection operators run");
  obs::TraceSpan span("query.select", &select_latency);
  c_selects.Increment();
  size_t facts_in = 0;
  for (const exec::Shard& u : plan.units) facts_in += u.end - u.begin;
  span.AddField("facts_in", static_cast<int64_t>(facts_in));

  // Same two-phase shape as Select: shard-parallel weights indexed by
  // logical row id, then a serial ascending materialization of the
  // survivors. Rows in pruned segments keep weight 0 — ScanSpec pruning is
  // sound for every approach — so output bytes match the unpruned pipeline.
  std::vector<double> weights;
  vm::CompiledScan cs(compiled, [&](const ValueId* c) {
    return pred != nullptr
               ? EvalQueryPredOnCoords(*pred, dims, c, now_day, approach)
               : 1.0;
  });
  cs.WeighTable(t, plan, &weights);

  SelectionResult out{MultidimensionalObject(fact_type, dims, measures), {}};
  const size_t ndims = dims.size();
  const size_t nmeas = measures.size();
  size_t survivors = 0;
  for (double w : weights) survivors += w > 0.0 ? 1 : 0;
  out.mo.ReserveFacts(survivors);
  if (approach == SelectionApproach::kWeighted) out.weights.reserve(survivors);
  std::vector<ValueId> coords(ndims);
  std::vector<int64_t> meas(nmeas);
  // Late materialization: chunks with no surviving weight are skipped before
  // their columns are ever decoded.
  for (const exec::Shard& u : plan.units) {
    t.ForEachBatch(
        u.begin, u.end,
        [&](const FactTable::BatchView& b) {
          const RowId first = b.first_row();
          for (size_t i = 0; i < b.rows(); ++i) {
            const double w = weights[first + i];
            if (w <= 0.0) continue;
            for (size_t d = 0; d < ndims; ++d) coords[d] = b.dim_col(d)[i];
            for (size_t m = 0; m < nmeas; ++m) meas[m] = b.meas_col(m)[i];
            // Table rows were validated on insert against these same
            // dimensions, so the survivors append unchecked.
            FactId nf = out.mo.AppendFactUnchecked(coords, meas);
            // The names Select over the table's ToMO() would carry.
            if (materialize_names) {
              out.mo.SetFactName(nf, "fact_" + std::to_string(first + i));
            }
            if (approach == SelectionApproach::kWeighted) {
              out.weights.push_back(w);
            }
          }
        },
        [&](RowId first, size_t n) { return NoSurvivors(weights, first, n); });
  }
  return out;
}

Result<MultidimensionalObject> Project(const MultidimensionalObject& mo,
                                       const std::vector<DimensionId>& dims,
                                       const std::vector<MeasureId>& measures) {
  if (dims.empty()) {
    return Status::InvalidArgument("projection must keep >= 1 dimension");
  }
  std::vector<std::shared_ptr<Dimension>> kept_dims;
  for (DimensionId d : dims) {
    if (d >= mo.num_dimensions()) {
      return Status::InvalidArgument("unknown dimension in projection");
    }
    kept_dims.push_back(mo.dimension(d));
  }
  std::vector<MeasureType> kept_meas;
  for (MeasureId m : measures) {
    if (m >= mo.num_measures()) {
      return Status::InvalidArgument("unknown measure in projection");
    }
    kept_meas.push_back(mo.measure_type(m));
  }

  MultidimensionalObject out(mo.fact_type(), std::move(kept_dims),
                             std::move(kept_meas));
  std::vector<ValueId> coords(dims.size());
  std::vector<int64_t> meas(measures.size());
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    for (size_t d = 0; d < dims.size(); ++d) coords[d] = mo.Coord(f, dims[d]);
    for (size_t m = 0; m < measures.size(); ++m) {
      meas[m] = mo.Measure(f, measures[m]);
    }
    DWRED_ASSIGN_OR_RETURN(FactId nf, out.AddFact(coords, meas));
    out.SetFactName(nf, mo.FactName(f));
    if (const std::vector<FactId>* prov = mo.Provenance(f)) {
      out.SetProvenance(nf, *prov, mo.ResponsibleAction(f));
    }
  }
  return out;
}

std::vector<FactId> GroupHigh(const MultidimensionalObject& mo,
                              std::span<const ValueId> cell,
                              std::span<const CategoryId> target) {
  std::vector<FactId> out;
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    bool member = true;
    for (size_t d = 0; d < mo.num_dimensions() && member; ++d) {
      auto dd = static_cast<DimensionId>(d);
      const Dimension& dim = *mo.dimension(dd);
      CategoryId cell_cat = dim.value_category(cell[d]);
      // Per eq. (38): for cell values strictly above the requested category
      // (Type(v_i) >_T C_ij) the fact must map *directly* to the value;
      // otherwise ordinary characterization (f ~> v) suffices.
      bool strictly_higher =
          dim.type().Leq(target[d], cell_cat) && cell_cat != target[d];
      if (strictly_higher) {
        member = mo.Coord(f, dd) == cell[d];
      } else {
        member = mo.Characterizes(f, dd, cell[d]);
      }
    }
    if (member) out.push_back(f);
  }
  return out;
}

Result<MultidimensionalObject> AggregateFormation(
    const MultidimensionalObject& mo, const std::vector<CategoryId>& target,
    AggregationApproach approach, bool track_provenance,
    const std::shared_ptr<const vm::RollupProgram>& rollup_in) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& agg_latency = registry.GetHistogram(
      "dwred_query_aggregate_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one aggregate-formation evaluation (Section 6)");
  static obs::Counter& c_aggs = registry.GetCounter(
      "dwred_query_aggregations", "aggregate-formation operators run");
  obs::TraceSpan span("query.aggregate", &agg_latency);
  c_aggs.Increment();
  span.AddField("facts_in", static_cast<int64_t>(mo.num_facts()));
  if (target.size() != mo.num_dimensions()) {
    return Status::InvalidArgument(
        "aggregate formation needs one category per dimension");
  }
  const size_t ndims = mo.num_dimensions();
  const size_t nmeas = mo.num_measures();

  // LUB approach: per dimension, the least category >= desired that every
  // fact's value can roll up to.
  std::vector<CategoryId> lub = target;
  if (approach == AggregationApproach::kLub) {
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      for (size_t d = 0; d < ndims; ++d) {
        auto dd = static_cast<DimensionId>(d);
        CategoryId cf =
            mo.dimension(dd)->value_category(mo.Coord(f, dd));
        if (!mo.dimension(dd)->type().Leq(cf, lub[d])) {
          lub[d] = mo.dimension(dd)->type().Lub(cf, lub[d]);
        }
      }
    }
  }

  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  struct Group {
    FactId out_id;
    std::vector<FactId> sources;
    bool merged = false;
  };
  std::unordered_map<std::vector<ValueId>, Group, CellKeyHash> groups;

  // Folds one contribution (a cell plus measure values) into its group.
  auto absorb = [&](const std::vector<ValueId>& cell,
                    std::span<const int64_t> meas, FactId f) -> Status {
    auto it = groups.find(cell);
    if (it == groups.end()) {
      DWRED_ASSIGN_OR_RETURN(FactId nf, out.AddFact(cell, meas));
      Group g;
      g.out_id = nf;
      if (track_provenance) {
        if (const std::vector<FactId>* prov = mo.Provenance(f)) {
          g.sources = *prov;
        } else {
          g.sources = {f};
        }
      }
      groups.emplace(cell, std::move(g));
    } else {
      Group& g = it->second;
      for (size_t m = 0; m < nmeas; ++m) {
        auto mm = static_cast<MeasureId>(m);
        out.SetMeasure(g.out_id, mm,
                       CombineMeasure(mo.measure_type(mm).agg,
                                      out.Measure(g.out_id, mm), meas[m]));
      }
      g.merged = true;
      if (track_provenance) {
        if (const std::vector<FactId>* prov = mo.Provenance(f)) {
          g.sources.insert(g.sources.end(), prov->begin(), prov->end());
        } else {
          g.sources.push_back(f);
        }
      }
    }
    return Status::OK();
  };

  // For the non-disaggregated approaches each fact's target cell depends only
  // on the fact itself, so the rollup computation shards over fact ranges;
  // grouping then runs serially in fact order over the precomputed cells
  // (byte-identical at every thread count, docs/PARALLELISM.md). The
  // disaggregated approach stays fully serial: its cross-product split makes
  // per-fact work size data-dependent and it is rare in practice.
  std::vector<ValueId> flat_cells;
  std::vector<uint8_t> drops;
  if (approach != AggregationApproach::kDisaggregated && mo.num_facts() > 0) {
    flat_cells.resize(mo.num_facts() * ndims);
    drops.assign(mo.num_facts(), 0);
    std::atomic<bool> lub_error{false};
    // The per-fact Leq + Rollup walks compiled to per-dimension lookup
    // tables (src/vm): the tables are filled by the same walks, so rolled
    // cells are identical — only the per-row cost changes. Oversized
    // dimensions fall back to walking every fact. A caller-supplied program
    // (compiled once per query and cached per epoch+granularity) is valid
    // whenever the effective categories are `target`; the LUB approach's may
    // differ, so it compiles its own. Local compilation enumerates every
    // dimension value, so it only pays off when the per-fact walks it
    // replaces outnumber the table entries.
    const std::vector<CategoryId>& want_cats =
        approach == AggregationApproach::kLub ? lub : target;
    std::optional<vm::RollupProgram> local;
    const vm::RollupProgram* rollup = nullptr;
    if (rollup_in != nullptr && approach != AggregationApproach::kLub) {
      rollup = rollup_in.get();
    } else {
      size_t extent_sum = 0;
      for (const auto& d : mo.dimensions()) extent_sum += d->num_values();
      if (mo.num_facts() * ndims >= extent_sum) {
        local = vm::RollupProgram::Compile(mo.dimensions(), want_cats);
        if (local.has_value()) rollup = &*local;
      }
    }
    scan::Execute(
        scan::PlanMoScan(mo.num_facts(), /*grain=*/512),
        [&](size_t, size_t begin, size_t end) {
          for (FactId f = begin; f < end; ++f) {
            ValueId* c = &flat_cells[f * ndims];
            const ValueId* in = mo.FactCoords(f).data();
            if (rollup != nullptr && rollup->Map(in, c)) {
              for (size_t d = 0; d < ndims; ++d) {
                if (c[d] != vm::RollupProgram::kNotBelow) continue;
                if (approach == AggregationApproach::kAvailability) {
                  c[d] = in[d];  // finest available level >= desired
                } else if (approach == AggregationApproach::kStrict) {
                  drops[f] = 1;
                  break;
                } else {  // kLub: lub was joined above every fact's category
                  lub_error.store(true, std::memory_order_relaxed);
                  return;
                }
              }
              continue;
            }
            if (rollup != nullptr) vm::CountFallback();
            for (size_t d = 0; d < ndims; ++d) {
              auto dd = static_cast<DimensionId>(d);
              const Dimension& dim = *mo.dimension(dd);
              ValueId v = in[d];
              CategoryId cf = dim.value_category(v);
              CategoryId want = want_cats[d];
              if (dim.type().Leq(cf, want)) {
                c[d] = dim.Rollup(v, want);
                DWRED_CHECK(c[d] != kInvalidValue);
              } else if (approach == AggregationApproach::kAvailability) {
                c[d] = v;  // finest available level >= desired
              } else if (approach == AggregationApproach::kStrict) {
                drops[f] = 1;
                break;
              } else {  // kLub: lub was joined above every fact's category
                lub_error.store(true, std::memory_order_relaxed);
                return;
              }
            }
          }
        });
    if (lub_error.load()) {
      return Status::Internal("LUB category not above fact granularity");
    }
  }

  std::vector<ValueId> cell(ndims);
  std::vector<int64_t> meas(nmeas);
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    if (!flat_cells.empty()) {
      // Non-disaggregated: consume the precomputed cell.
      if (drops[f]) continue;
      cell.assign(flat_cells.begin() + f * ndims,
                  flat_cells.begin() + (f + 1) * ndims);
      for (size_t m = 0; m < nmeas; ++m) {
        meas[m] = mo.Measure(f, static_cast<MeasureId>(m));
      }
      DWRED_RETURN_IF_ERROR(absorb(cell, meas, f));
      continue;
    }
    bool drop = false;
    // Dimensions whose value sits above the requested level and, under the
    // disaggregated approach, has materialized descendants to split across.
    std::vector<size_t> split_dims;
    std::vector<const std::vector<ValueId>*> split_sets;
    for (size_t d = 0; d < ndims && !drop; ++d) {
      auto dd = static_cast<DimensionId>(d);
      const Dimension& dim = *mo.dimension(dd);
      ValueId v = mo.Coord(f, dd);
      CategoryId cf = dim.value_category(v);
      CategoryId want = approach == AggregationApproach::kLub ? lub[d]
                                                              : target[d];
      if (dim.type().Leq(cf, want)) {
        cell[d] = dim.Rollup(v, want);
        DWRED_CHECK(cell[d] != kInvalidValue);
      } else {
        switch (approach) {
          case AggregationApproach::kAvailability:
            // Finest available level >= desired: the fact's own value.
            cell[d] = v;
            break;
          case AggregationApproach::kStrict:
            drop = true;
            break;
          case AggregationApproach::kLub:
            return Status::Internal("LUB category not above fact granularity");
          case AggregationApproach::kDisaggregated: {
            const std::vector<ValueId>& desc = dim.DrillDown(v, want);
            if (desc.empty()) {
              cell[d] = v;  // no materialized descendants: availability
            } else {
              split_dims.push_back(d);
              split_sets.push_back(&desc);
              cell[d] = desc[0];  // placeholder, rewritten below
            }
            break;
          }
        }
      }
    }
    if (drop) continue;

    for (size_t m = 0; m < nmeas; ++m) {
      meas[m] = mo.Measure(f, static_cast<MeasureId>(m));
    }
    if (split_dims.empty()) {
      DWRED_RETURN_IF_ERROR(absorb(cell, meas, f));
      continue;
    }

    // Disaggregation: iterate the cross product of the descendant sets,
    // splitting SUM measures uniformly (remainders to the leading cells so
    // totals stay exact) and copying MIN/MAX.
    int64_t n = 1;
    for (const auto* s : split_sets) n *= static_cast<int64_t>(s->size());
    std::vector<size_t> idx(split_dims.size(), 0);
    std::vector<int64_t> piece(nmeas);
    for (int64_t k = 0; k < n; ++k) {
      for (size_t j = 0; j < split_dims.size(); ++j) {
        cell[split_dims[j]] = (*split_sets[j])[idx[j]];
      }
      for (size_t m = 0; m < nmeas; ++m) {
        if (mo.measure_type(static_cast<MeasureId>(m)).agg == AggFn::kSum) {
          piece[m] = meas[m] / n + (k < meas[m] % n ? 1 : 0);
          if (meas[m] < 0) piece[m] = meas[m] / n - (k < -meas[m] % n ? 1 : 0);
        } else {
          piece[m] = meas[m];
        }
      }
      DWRED_RETURN_IF_ERROR(absorb(cell, piece, f));
      for (size_t j = split_dims.size(); j-- > 0;) {
        if (++idx[j] < split_sets[j]->size()) break;
        idx[j] = 0;
      }
    }
  }

  if (track_provenance) {
    for (auto& [key, g] : groups) {
      std::sort(g.sources.begin(), g.sources.end());
      g.sources.erase(std::unique(g.sources.begin(), g.sources.end()),
                      g.sources.end());
      std::string name = "fact_";
      for (FactId s : g.sources) name += std::to_string(s);
      out.SetFactName(g.out_id, std::move(name));
      out.SetProvenance(g.out_id, g.sources, kNoAction);
    }
  }
  return out;
}

Result<MultidimensionalObject> AggregateFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::vector<CategoryId>& target,
    const std::shared_ptr<const vm::PredProgram>& compiled,
    const std::shared_ptr<const vm::RollupProgram>& rollup) {
  DWRED_CHECK(dims.size() == t.num_dims());
  DWRED_CHECK(measures.size() == t.num_measures());
  if (target.size() != dims.size()) {
    return Status::InvalidArgument(
        "aggregate formation needs one category per dimension");
  }
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& fused_latency = registry.GetHistogram(
      "dwred_query_select_aggregate_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one fused selection + aggregate-formation evaluation");
  static obs::Counter& c_selects =
      registry.GetCounter("dwred_query_selects", "selection operators run");
  static obs::Counter& c_aggs = registry.GetCounter(
      "dwred_query_aggregations", "aggregate-formation operators run");
  obs::TraceSpan span("query.select_aggregate", &fused_latency);
  // One σ and one α did run, just without the intermediate MO between them.
  c_selects.Increment();
  c_aggs.Increment();
  size_t facts_in = 0;
  for (const exec::Shard& u : plan.units) facts_in += u.end - u.begin;
  span.AddField("facts_in", static_cast<int64_t>(facts_in));

  // Selection weights, as in SelectFromScan. The packed fold below weighs
  // each chunk in place (chunk weights never leave the batch); the two-phase
  // fold fills the table-sized weight vector first.
  vm::CompiledScan cs(compiled, [&](const ValueId* c) {
    return pred != nullptr
               ? EvalQueryPredOnCoords(*pred, dims, c, now_day, approach)
               : 1.0;
  });

  // The serial ascending pass SelectFromScan + AggregateFormation would have
  // made twice, collapsed into one: each surviving row's cell is rolled up
  // (tables, else the walk) and folded into its group directly.
  const size_t ndims = dims.size();
  const size_t nmeas = measures.size();
  MultidimensionalObject out(fact_type, dims, measures);
  const vm::RollupProgram* rp = rollup.get();
  std::vector<ValueId> in(ndims);
  std::vector<ValueId> cell(ndims);
  std::vector<int64_t> meas(nmeas);
  // Rolls the already-gathered `in` row up into `cell` (tables, else the
  // walk).
  auto roll_cell = [&]() {
    if (rp != nullptr && rp->Map(in.data(), cell.data())) {
      for (size_t d = 0; d < ndims; ++d) {
        if (cell[d] == vm::RollupProgram::kNotBelow) {
          cell[d] = in[d];  // availability: finest available level
        }
      }
    } else {
      if (rp != nullptr) vm::CountFallback();  // interned after compilation
      for (size_t d = 0; d < ndims; ++d) {
        const Dimension& dim = *dims[d];
        CategoryId cf = dim.value_category(in[d]);
        if (dim.type().Leq(cf, target[d])) {
          cell[d] = dim.Rollup(in[d], target[d]);
          DWRED_CHECK(cell[d] != kInvalidValue);
        } else {
          cell[d] = in[d];  // availability: finest available level
        }
      }
    }
  };
  std::optional<std::vector<int>> shifts = PackedCellShifts(dims);
  if (shifts && rp != nullptr) {
    // Vectorized single-pass fold: the chunk is weighed in place
    // (EvalBatch over the batch's columns — the weights never round-trip
    // through the table-sized vector, and each column is decoded exactly
    // once per query), then each dimension's rollup table — pre-combined
    // with the availability fixup and pre-shifted into its packed
    // cell-key bit field — turns key computation into one gather + OR per
    // (row, dimension), and the group probe hashes one integer instead of
    // a heap vector. Row order and per-row weights are unchanged, so
    // output bytes are identical to the two-phase fold below.
    std::vector<std::vector<uint64_t>> packed_tab(ndims);
    std::vector<std::vector<ValueId>> rolled_tab(ndims);
    for (size_t d = 0; d < ndims; ++d) {
      const size_t sz = rp->TableSize(d);
      packed_tab[d].resize(sz);
      rolled_tab[d].resize(sz);
      for (ValueId v = 0; v < sz; ++v) {
        const ValueId tv = rp->TableAt(d, v);
        // availability: finest available level
        const ValueId r = tv == vm::RollupProgram::kNotBelow ? v : tv;
        rolled_tab[d][v] = r;
        packed_tab[d][v] = static_cast<uint64_t>(r) << (*shifts)[d];
      }
    }
    PackedGroupIndex packed;
    std::vector<uint64_t> keys(FactTable::kBatchRows);
    std::vector<uint8_t> slow(FactTable::kBatchRows);
    std::vector<double> wbuf(FactTable::kBatchRows);
    vm::PredProgram::BatchScratch scratch;
    for (const exec::Shard& u : plan.units) {
      t.ForEachBatch(u.begin, u.end, [&](const FactTable::BatchView& b) {
        const size_t n = b.rows();
        cs.WeighBatch(b, wbuf.data(), &scratch);
        std::fill_n(keys.begin(), n, uint64_t{0});
        std::fill_n(slow.begin(), n, uint8_t{0});
        for (size_t d = 0; d < ndims; ++d) {
          const ValueId* c = b.dim_col(d);
          const uint64_t* pt = packed_tab[d].data();
          const size_t sz = packed_tab[d].size();
          for (size_t i = 0; i < n; ++i) {
            if (c[i] < sz) {
              keys[i] |= pt[c[i]];
            } else {
              slow[i] = 1;  // interned after compilation: walk the row
            }
          }
        }
        for (size_t i = 0; i < n; ++i) {
          if (wbuf[i] <= 0.0) continue;
          uint64_t key = keys[i];
          if (slow[i]) {
            for (size_t d = 0; d < ndims; ++d) in[d] = b.dim_col(d)[i];
            roll_cell();
            key = 0;
            for (size_t d = 0; d < ndims; ++d) {
              key |= static_cast<uint64_t>(cell[d]) << (*shifts)[d];
            }
          }
          uint32_t& slot = packed.Slot(key);
          if (slot == PackedGroupIndex::kEmpty) {
            if (!slow[i]) {
              for (size_t d = 0; d < ndims; ++d) {
                cell[d] = rolled_tab[d][b.dim_col(d)[i]];
              }
            }
            for (size_t m = 0; m < nmeas; ++m) meas[m] = b.meas_col(m)[i];
            slot = static_cast<uint32_t>(out.AppendFactUnchecked(cell, meas));
          } else {
            std::span<int64_t> acc = out.MutableFactMeasures(slot);
            for (size_t m = 0; m < nmeas; ++m) {
              acc[m] =
                  CombineMeasure(measures[m].agg, acc[m], b.meas_col(m)[i]);
            }
          }
        }
      });
    }
    return out;
  }

  // Two-phase fold (no rollup tables, or cells too wide to pack): weights
  // first, then survivor-only chunks — late materialization, as in
  // SelectFromScan — fold into a vector-keyed group map.
  std::vector<double> weights;
  cs.WeighTable(t, plan, &weights);
  std::unordered_map<std::vector<ValueId>, FactId, CellKeyHash> groups;
  for (const exec::Shard& u : plan.units) {
    t.ForEachBatch(
        u.begin, u.end,
        [&](const FactTable::BatchView& b) {
          const RowId first = b.first_row();
          for (size_t i = 0; i < b.rows(); ++i) {
            if (weights[first + i] <= 0.0) continue;
            for (size_t d = 0; d < ndims; ++d) in[d] = b.dim_col(d)[i];
            for (size_t m = 0; m < nmeas; ++m) meas[m] = b.meas_col(m)[i];
            roll_cell();
            auto it = groups.find(cell);
            if (it == groups.end()) {
              // Rolled-up coordinates are interned values of these same
              // dimensions, so the group cells append unchecked.
              groups.emplace(cell, out.AppendFactUnchecked(cell, meas));
            } else {
              std::span<int64_t> acc = out.MutableFactMeasures(it->second);
              for (size_t m = 0; m < nmeas; ++m) {
                acc[m] = CombineMeasure(measures[m].agg, acc[m], meas[m]);
              }
            }
          }
        },
        [&](RowId first, size_t n) { return NoSurvivors(weights, first, n); });
  }
  return out;
}

}  // namespace dwred
