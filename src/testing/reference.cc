#include "testing/reference.h"

#include <algorithm>
#include <optional>
#include <string>

#include "query/operators.h"
#include "reduce/semantics.h"

namespace dwred::testing {

namespace {

/// Folds one fact into `into` under `mo`'s measure types.
void FoldInto(const MultidimensionalObject& mo, std::vector<ValueId> cell,
              std::span<const int64_t> meas, CanonicalFacts* into) {
  auto [it, inserted] =
      into->try_emplace(std::move(cell), meas.begin(), meas.end());
  if (inserted) return;
  for (size_t m = 0; m < meas.size(); ++m) {
    const AggFn agg = mo.measure_type(static_cast<MeasureId>(m)).agg;
    it->second[m] = CombineMeasure(agg, it->second[m], meas[m]);
  }
}

}  // namespace

void Canonicalize(const MultidimensionalObject& mo, CanonicalFacts* into) {
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    std::span<const ValueId> c = mo.FactCoords(f);
    FoldInto(mo, std::vector<ValueId>(c.begin(), c.end()), mo.FactMeasures(f),
             into);
  }
}

CanonicalFacts Canonical(const MultidimensionalObject& mo) {
  CanonicalFacts out;
  Canonicalize(mo, &out);
  return out;
}

Result<MultidimensionalObject> ReferenceReduce(
    const MultidimensionalObject& mo, const ReductionSpecification& spec,
    int64_t now_day) {
  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  struct Group {
    FactId out_id;
    std::vector<FactId> sources;  // original constituents
    ActionId responsible;
    bool aggregated;  // some member changed granularity, or >= 2 members
  };
  std::map<std::vector<ValueId>, Group> groups;
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    ActionId responsible = kNoAction;
    bool deleted = false;
    DWRED_RETURN_IF_ERROR(
        MaxSpecGran(mo, spec, f, now_day, &responsible, &deleted).status());
    if (deleted) continue;  // Section 8: physically removed
    DWRED_ASSIGN_OR_RETURN(std::vector<ValueId> cell,
                           CellOf(mo, spec, f, now_day));
    std::vector<FactId> sources{f};
    if (const std::vector<FactId>* prov = mo.Provenance(f)) sources = *prov;
    auto it = groups.find(cell);
    if (it == groups.end()) {
      const std::span<const ValueId> direct = mo.FactCoords(f);
      const bool changed =
          !std::equal(cell.begin(), cell.end(), direct.begin());
      DWRED_ASSIGN_OR_RETURN(FactId id,
                             out.AddFact(cell, mo.FactMeasures(f)));
      groups.emplace(std::move(cell),
                     Group{id, std::move(sources),
                           responsible != kNoAction ? responsible
                                                    : mo.ResponsibleAction(f),
                           changed});
      continue;
    }
    Group& g = it->second;
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      auto mm = static_cast<MeasureId>(m);
      out.SetMeasure(g.out_id, mm,
                     CombineMeasure(mo.measure_type(mm).agg,
                                    out.Measure(g.out_id, mm),
                                    mo.Measure(f, mm)));
    }
    g.sources.insert(g.sources.end(), sources.begin(), sources.end());
    g.aggregated = true;
    if (responsible != kNoAction) g.responsible = responsible;
  }
  for (auto& [cell, g] : groups) {
    if (!g.aggregated && g.sources.size() == 1) {
      out.SetFactName(g.out_id, "fact_" + std::to_string(g.sources[0]));
    } else {
      std::sort(g.sources.begin(), g.sources.end());
      g.sources.erase(std::unique(g.sources.begin(), g.sources.end()),
                      g.sources.end());
      std::string name = "fact_";
      for (FactId s : g.sources) name += std::to_string(s);
      out.SetFactName(g.out_id, std::move(name));
    }
    out.SetProvenance(g.out_id, g.sources, g.responsible);
  }
  return out;
}

Result<CanonicalFacts> ReferenceQuery(const MultidimensionalObject& mo,
                                      const PredExpr* pred,
                                      const std::vector<CategoryId>* target,
                                      int64_t now_day) {
  std::optional<SelectionResult> sel;
  if (pred != nullptr) {
    DWRED_ASSIGN_OR_RETURN(
        SelectionResult s,
        Select(mo, *pred, now_day, SelectionApproach::kConservative));
    sel = std::move(s);
  }
  const MultidimensionalObject& base = sel ? sel->mo : mo;
  CanonicalFacts out;
  for (FactId f = 0; f < base.num_facts(); ++f) {
    std::vector<ValueId> cell(base.num_dimensions());
    for (size_t d = 0; d < cell.size(); ++d) {
      auto dd = static_cast<DimensionId>(d);
      const Dimension& dim = *base.dimension(dd);
      const ValueId v = base.Coord(f, dd);
      cell[d] = v;
      // Availability: roll up to the requested category when the value sits
      // at or below it, else keep the finest available value.
      if (target != nullptr &&
          dim.type().Leq(dim.value_category(v), (*target)[d])) {
        cell[d] = dim.Rollup(v, (*target)[d]);
      }
    }
    FoldInto(base, std::move(cell), base.FactMeasures(f), &out);
  }
  return out;
}

}  // namespace dwred::testing
