// Differential fuzz harness for the bytecode VM (src/vm) and the batch scan
// path: the compiled programs must be *bitwise* indistinguishable from the
// tree interpreters they replace, and the engine must agree with the
// paper-literal reference model. Four layers of evidence, all seeded and
// deterministic:
//
//   1. per-row weights — for hundreds of (schema, spec, predicate, approach)
//      cases drawn through the real generator (src/testing/spec_gen) and the
//      real parser, every fact's compiled weight equals the interpreter's
//      double bit for bit (EXPECT_EQ on doubles is exact equality), under
//      the 0/1 spec semantics and all three query selection approaches;
//   2. engine vs reference — Reduce, Synchronize and subcube queries
//      (synchronized and stale rewrites) at 1 and 8 pool threads equal the
//      interpreter-only reference (src/testing/reference.h): Definition 2
//      fact by fact through CellOf/MaxSpecGran, σ through Select with no
//      program, α by hierarchy walks;
//   3. stale programs — programs compiled before a dimension value was
//      interned hit their kOutOfRange / unmapped-row fallbacks, and every
//      operator still returns the interpreter's bytes;
//   4. liveness — the VM path demonstrably ran (dwred_vm_compiles moved), so
//      the equalities above compare two genuinely different code paths.

#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "query/compare.h"
#include "query/operators.h"
#include "reduce/semantics.h"
#include "scan/scan.h"
#include "spec/parser.h"
#include "subcube/manager.h"
#include "testing/reference.h"
#include "testing/spec_gen.h"
#include "vm/program.h"
#include "workload/clickstream.h"
#include "workload/retail.h"

namespace dwred {
namespace {

using dwred::testing::CanonicalFacts;

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
}

/// Full-fidelity serialization of an MO (coordinates, measures, names,
/// provenance) — any divergence shows up as a string mismatch.
std::string Fingerprint(const MultidimensionalObject& mo) {
  std::ostringstream out;
  out << mo.num_facts() << "\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out << f << "|" << mo.FactName(f) << "|";
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      out << mo.Coord(f, static_cast<DimensionId>(d)) << ",";
    }
    out << "|";
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      out << mo.Measure(f, static_cast<MeasureId>(m)) << ",";
    }
    out << "|" << mo.ResponsibleAction(f) << "|";
    if (const std::vector<FactId>* prov = mo.Provenance(f)) {
      for (FactId s : *prov) out << s << ",";
    }
    out << "\n";
  }
  return out.str();
}

/// Every row of every subcube, in canonical form.
CanonicalFacts CubeCanonical(const SubcubeManager& m) {
  CanonicalFacts out;
  for (size_t i = 0; i < m.num_subcubes(); ++i) {
    dwred::testing::Canonicalize(
        m.subcube(i).table.ToMO(m.context().fact_type(),
                                m.context().dimensions(),
                                m.context().measure_types()),
        &out);
  }
  return out;
}

/// The generated action predicates plus boolean compositions of them — the
/// compositions drive the connective bytecode (kPush/kAnd/kOr/kNot and both
/// short-circuit jumps) far harder than flat action predicates alone.
std::vector<std::shared_ptr<PredExpr>> PredicateCorpus(
    const ReductionSpecification& spec) {
  std::vector<std::shared_ptr<PredExpr>> preds;
  for (const Action& a : spec.actions()) preds.push_back(a.predicate);
  const size_t n = preds.size();
  if (n >= 2) {
    preds.push_back(PredExpr::And({preds[0], PredExpr::Not(preds[1])}));
    preds.push_back(PredExpr::Or({preds[0], preds[1]}));
    preds.push_back(
        PredExpr::Not(PredExpr::Or({preds[1], PredExpr::Not(preds[0])})));
  }
  if (n >= 3) {
    preds.push_back(
        PredExpr::Or({preds[0], PredExpr::And({preds[1], preds[2]})}));
    preds.push_back(PredExpr::And(
        {PredExpr::Or({preds[0], preds[1]}), PredExpr::Not(preds[2])}));
  }
  preds.push_back(PredExpr::And({PredExpr::True(), preds[0]}));
  preds.push_back(PredExpr::Or({PredExpr::False(), preds[n - 1]}));
  return preds;
}

/// One (schema, spec, predicate, approach) case: compile `pred` under every
/// semantics and require bitwise weight equality with the interpreter on
/// every fact. Adds the number of cases (compiled programs) to `*cases`.
void CheckPredicate(const MultidimensionalObject& mo, const PredExpr& pred,
                    int64_t now, int* cases) {
  // 0/1 spec semantics vs EvalPredOnFact.
  if (auto prog =
          vm::PredProgram::Compile(mo, pred, vm::SpecAtomOracle(mo, now))) {
    ++*cases;
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      const double w = prog->Eval(mo.FactCoords(f));
      ASSERT_NE(w, vm::PredProgram::kOutOfRange) << "stale table";
      ASSERT_EQ(w != 0.0, EvalPredOnFact(pred, mo, f, now))
          << "spec semantics diverged on fact " << f << " for "
          << pred.ToString(mo) << " at now=" << now;
    }
  }
  // Query semantics vs EvalQueryPredOnFact under all three approaches.
  for (SelectionApproach ap :
       {SelectionApproach::kConservative, SelectionApproach::kLiberal,
        SelectionApproach::kWeighted}) {
    auto prog = vm::PredProgram::Compile(mo, pred, QueryAtomOracle(now, ap));
    if (!prog) continue;
    ++*cases;
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      const double got = prog->Eval(mo.FactCoords(f));
      ASSERT_NE(got, vm::PredProgram::kOutOfRange) << "stale table";
      const double want = EvalQueryPredOnFact(pred, mo, f, now, ap);
      ASSERT_EQ(got, want)  // exact: EXPECT_EQ on doubles is bitwise here
          << SelectionApproachName(ap) << " weight diverged on fact " << f
          << " for " << pred.ToString(mo) << " at now=" << now;
    }
  }
}

ReductionSpecification MustSpec(Result<ReductionSpecification> r) {
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r.value());
}

// Layer 1: ≥500 seeded per-row weight cases across two schemas (clickstream
// and retail), sound-chain and random specs, flat and composed predicates,
// spec + {conservative, liberal, weighted} semantics.
TEST(VmDifferential, PerRowWeightsMatchInterpreterAcrossSeeds) {
  int64_t compiles_before = CounterValue("dwred_vm_compiles");
  int cases = 0;
  for (uint64_t seed = 1; seed <= 24 && !::testing::Test::HasFatalFailure();
       ++seed) {
    // Alternate schemas so the corpus spans 2-dim and 3-dim universes.
    std::unique_ptr<MultidimensionalObject> mo_hold;
    int64_t start = 0;
    if (seed % 2 == 0) {
      ClickstreamConfig cfg;
      cfg.seed = 100 + seed;
      cfg.num_domains = 4 + static_cast<size_t>(seed % 5);
      cfg.urls_per_domain = 3;
      cfg.num_clicks = 220;
      cfg.span_days = 2 * 365;
      ClickstreamWorkload w = MakeClickstream(cfg);
      mo_hold = std::move(w.mo);
      start = DaysFromCivil(cfg.start);
    } else {
      RetailConfig cfg;
      cfg.seed = 200 + seed;
      cfg.num_categories = 3;
      cfg.brands_per_category = 2 + static_cast<size_t>(seed % 3);
      cfg.skus_per_brand = 3;
      cfg.num_sales = 220;
      cfg.span_days = 2 * 365;
      RetailWorkload w = MakeRetail(cfg);
      mo_hold = std::move(w.mo);
      start = DaysFromCivil(cfg.start);
    }
    const MultidimensionalObject& mo = *mo_hold;

    dwred::testing::SpecGenOptions opts;
    opts.num_actions = 3;
    opts.sound_chain = seed % 3 != 0;  // random mode every third seed
    opts.deletion_prob = 0.25;
    ReductionSpecification spec =
        MustSpec(dwred::testing::GenerateSpec(mo, seed, opts));
    ASSERT_GT(spec.size(), 0u);

    const int64_t now = start + 200 + static_cast<int64_t>((seed * 97) % 500);
    for (const std::shared_ptr<PredExpr>& p : PredicateCorpus(spec)) {
      CheckPredicate(mo, *p, now, &cases);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(cases, 500) << "differential corpus shrank below the gate";
  EXPECT_GT(CounterValue("dwred_vm_compiles"), compiles_before)
      << "no program ever compiled — the harness is not testing the VM";
}


// Layer 2a: Reduce at 1 and 8 threads equals the reference Definition 2
// reduction byte for byte (facts, order, names, provenance).
TEST(VmDifferential, ReduceBytesEqualReferenceAcrossThreads) {
  ClickstreamConfig cfg;
  cfg.seed = 61;
  cfg.num_domains = 10;
  cfg.urls_per_domain = 4;
  cfg.num_clicks = 3000;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  int64_t start = DaysFromCivil(cfg.start);

  for (uint64_t seed : {3u, 9u}) {
    dwred::testing::SpecGenOptions opts;
    opts.num_actions = 3;
    opts.sound_chain = true;
    ReductionSpecification spec =
        MustSpec(dwred::testing::GenerateSpec(*w.mo, seed, opts));
    for (int64_t now : {start + 500, start + 1100}) {
      auto want = dwred::testing::ReferenceReduce(*w.mo, spec, now);
      ASSERT_TRUE(want.ok()) << want.status().message();
      ASSERT_LT(want.value().num_facts(), w.mo->num_facts())
          << "seed=" << seed << " reduced nothing";
      const std::string want_fp = Fingerprint(want.value());
      const std::string want_bytes = SaveWarehouse(want.value(), spec);
      for (int threads : {1, 8}) {
        exec::ThreadPool::ResetGlobal(threads);
        auto reduced = Reduce(*w.mo, spec, now);
        ASSERT_TRUE(reduced.ok()) << reduced.status().message();
        EXPECT_EQ(Fingerprint(reduced.value()), want_fp)
            << "threads=" << threads << " seed=" << seed << " now=" << now;
        EXPECT_EQ(SaveWarehouse(reduced.value(), spec), want_bytes)
            << "threads=" << threads << " seed=" << seed << " now=" << now;
      }
    }
  }
  exec::ThreadPool::ResetGlobal(2);
}

// Layer 2b: Synchronize (including the deletion path) and subcube queries —
// synchronized and stale rewrites — at 1 and 8 threads equal the reference:
// the warehouse holds the reference reduction of everything inserted, and
// each query answers σ/α over it (the stale rewrite as if synchronized at
// the query's NOW).
TEST(VmDifferential, SubcubeResultsEqualReferenceAcrossThreads) {
  ClickstreamConfig cfg;
  cfg.seed = 67;
  cfg.num_domains = 10;
  cfg.urls_per_domain = 4;
  cfg.num_clicks = 2500;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  int64_t start = DaysFromCivil(cfg.start);

  dwred::testing::SpecGenOptions opts;
  opts.num_actions = 3;
  opts.sound_chain = true;
  opts.deletion_prob = 1.0;  // drive ResponsibleCube's deletion branch
  ReductionSpecification spec =
      MustSpec(dwred::testing::GenerateSpec(*w.mo, 7, opts));

  auto pred = ParsePredicate(*w.mo, "Time.month >= NOW - 30 months");
  ASSERT_TRUE(pred.ok()) << pred.status().message();
  auto target = ParseGranularityList(*w.mo, "Time.month, URL.domain");
  ASSERT_TRUE(target.ok()) << target.status().message();
  // σ→α (the fused scan), σ alone (the scan-and-select) and α alone (the
  // unpredicated scan, where rows deleted by the specification are in
  // range of the query).
  struct Shape {
    const PredExpr* pred;
    const std::vector<CategoryId>* target;
  };
  const Shape shapes[] = {{pred.value().get(), &target.value()},
                          {pred.value().get(), nullptr},
                          {nullptr, &target.value()}};

  // The reference timeline: the warehouse state after each synchronization
  // and, per shape, the answers expected before it.
  struct Step {
    int64_t now;
    std::vector<CanonicalFacts> stale_query;   // assume_synchronized = false
    std::vector<CanonicalFacts> synced_query;  // assume_synchronized = true
    CanonicalFacts after_sync;
  };
  std::vector<Step> steps;
  MultidimensionalObject state = *w.mo;
  // The last step is far enough out for the deletion action to fire, and
  // for facts to leapfrog a tier between synchronizations.
  for (int64_t now : {start + 400, start + 900, start + 2000}) {
    Step st{now, {}, {}, {}};
    auto reduced = dwred::testing::ReferenceReduce(state, spec, now);
    ASSERT_TRUE(reduced.ok()) << reduced.status().message();
    for (const Shape& q : shapes) {
      auto stale = dwred::testing::ReferenceQuery(reduced.value(), q.pred,
                                                  q.target, now);
      ASSERT_TRUE(stale.ok()) << stale.status().message();
      st.stale_query.push_back(std::move(stale.value()));
      // Taken as synchronized, the warehouse is queried as it stands.
      auto synced =
          dwred::testing::ReferenceQuery(state, q.pred, q.target, now);
      ASSERT_TRUE(synced.ok()) << synced.status().message();
      st.synced_query.push_back(std::move(synced.value()));
    }
    state = std::move(reduced.value());
    st.after_sync = dwred::testing::Canonical(state);
    steps.push_back(std::move(st));
  }
  ASSERT_NE(steps[0].after_sync, steps[1].after_sync);
  // Deletion is the only way measure mass leaves the warehouse.
  auto clicks = [](const CanonicalFacts& facts) {
    int64_t n = 0;
    for (const auto& [cell, meas] : facts) n += meas[0];
    return n;
  };
  ASSERT_LT(clicks(steps.back().after_sync), clicks(steps[1].after_sync))
      << "the deletion action never fired";

  for (int threads : {1, 8}) {
    exec::ThreadPool::ResetGlobal(threads);
    auto mgr = SubcubeManager::Create(
        "Click", {w.time_dim, w.url_dim},
        std::vector<MeasureType>(w.mo->measure_types()), spec);
    ASSERT_TRUE(mgr.ok()) << mgr.status().message();
    SubcubeManager& m = mgr.value();
    ASSERT_TRUE(m.InsertBottomFacts(*w.mo).ok());
    // Query the unsynchronized warehouse first (stale rewrite + per-row
    // responsibility filter), then synchronize, at each step.
    for (const Step& st : steps) {
      for (size_t k = 0; k < std::size(shapes); ++k) {
        for (bool assume_synced : {false, true}) {
          auto q = m.Query(shapes[k].pred, shapes[k].target, st.now,
                           assume_synced, /*parallel=*/threads > 1);
          ASSERT_TRUE(q.ok()) << q.status().message();
          EXPECT_EQ(dwred::testing::Canonical(q.value()),
                    assume_synced ? st.synced_query[k] : st.stale_query[k])
              << "threads=" << threads << " query@" << st.now << " shape "
              << k << " assume_synced=" << assume_synced;
        }
      }
      auto migrated = m.Synchronize(st.now);
      ASSERT_TRUE(migrated.ok()) << migrated.status().message();
      EXPECT_EQ(CubeCanonical(m), st.after_sync)
          << "threads=" << threads << " sync@" << st.now;
    }
  }
  exec::ThreadPool::ResetGlobal(2);
}

// Layer 3: programs compiled before a dimension value was interned. The new
// value's id lies past every compiled table, so each operator takes its
// per-row fallback for that row — and must still return the interpreter's
// bytes.
TEST(VmDifferential, StaleProgramsFallBackToInterpreterBytes) {
  ClickstreamConfig cfg;
  cfg.seed = 71;
  cfg.num_domains = 4;
  cfg.urls_per_domain = 3;
  cfg.num_clicks = 100;  // sparse over six years: fewer facts than values
  cfg.span_days = 6 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  MultidimensionalObject& mo = *w.mo;
  const int64_t now = DaysFromCivil(cfg.start) + 6 * 365 + 30;

  auto pred = ParsePredicate(mo, "Time.month >= NOW - 30 months");
  ASSERT_TRUE(pred.ok()) << pred.status().message();
  auto target = ParseGranularityList(mo, "Time.month, URL.domain");
  ASSERT_TRUE(target.ok()) << target.status().message();
  const SelectionApproach ap = SelectionApproach::kConservative;
  auto compiled = vm::PredProgram::Compile(mo, *pred.value(),
                                           QueryAtomOracle(now, ap));
  ASSERT_TRUE(compiled.has_value());
  auto prog = std::make_shared<const vm::PredProgram>(std::move(*compiled));
  auto rolled = vm::RollupProgram::Compile(mo.dimensions(), target.value());
  ASSERT_TRUE(rolled.has_value());
  auto rollup = std::make_shared<const vm::RollupProgram>(std::move(*rolled));

  // Intern a day past the data (with its new week, month, quarter and year)
  // and record a fact on it: the compiled tables cover none of them.
  auto day = w.time_dim->EnsureTimeValue(DayGranule(now));
  ASSERT_TRUE(day.ok()) << day.status().message();
  std::vector<ValueId> coords(mo.FactCoords(0).begin(),
                              mo.FactCoords(0).end());
  coords[0] = day.value();
  std::vector<int64_t> meas(mo.FactMeasures(0).begin(),
                            mo.FactMeasures(0).end());
  ASSERT_TRUE(mo.AddBottomFact(coords, meas).ok());
  ASSERT_EQ(prog->Eval(coords.data()), vm::PredProgram::kOutOfRange);
  FactTable table(mo.num_dimensions(), mo.num_measures(), /*segment_rows=*/64);
  ASSERT_TRUE(table.AppendFrom(mo).ok());
  const scan::ScanPlan plan = scan::PlanTableScan(table, scan::ScanSpec::All());

  // Runs `fn` and requires it to have taken the fallback at least once.
  auto expect_fallback = [](const char* what, auto&& fn) {
    const int64_t before = CounterValue("dwred_vm_fallbacks");
    fn();
    EXPECT_GT(CounterValue("dwred_vm_fallbacks"), before)
        << what << " never fell back";
  };

  // σ over an MO.
  auto want_sel = Select(mo, *pred.value(), now, ap);
  ASSERT_TRUE(want_sel.ok());
  ASSERT_EQ(want_sel.value().mo.FactName(want_sel.value().mo.num_facts() - 1),
            "fact_" + std::to_string(mo.num_facts() - 1))
      << "the stale fact must survive the selection";
  expect_fallback("Select", [&] {
    auto got = Select(mo, *pred.value(), now, ap, prog);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(got.value().mo), Fingerprint(want_sel.value().mo));
  });

  // σ straight off the storage segments.
  auto scan_sel = [&](std::shared_ptr<const vm::PredProgram> p) {
    return SelectFromScan(table, plan, *pred.value(), now, ap, mo.fact_type(),
                          mo.dimensions(), mo.measure_types(), std::move(p));
  };
  auto want_scan = scan_sel(nullptr);
  ASSERT_TRUE(want_scan.ok());
  expect_fallback("SelectFromScan", [&] {
    auto got = scan_sel(prog);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(got.value().mo), Fingerprint(want_scan.value().mo));
  });

  // α over an MO: too few facts to compile rollup tables locally, so the
  // interpreter walks every fact's hierarchies.
  const int64_t compiles_before = CounterValue("dwred_vm_compiles");
  auto want_agg = AggregateFormation(mo, target.value());
  ASSERT_TRUE(want_agg.ok());
  ASSERT_EQ(CounterValue("dwred_vm_compiles"), compiles_before)
      << "the reference aggregation compiled a program";
  expect_fallback("AggregateFormation", [&] {
    auto got = AggregateFormation(mo, target.value(),
                                  AggregationApproach::kAvailability,
                                  /*track_provenance=*/true, rollup);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(got.value()), Fingerprint(want_agg.value()));
  });

  // Fused σ→α off the storage segments (the packed fold's unmapped rows).
  auto want_fused = AggregateFormation(want_scan.value().mo, target.value(),
                                       AggregationApproach::kAvailability,
                                       /*track_provenance=*/false);
  ASSERT_TRUE(want_fused.ok());
  expect_fallback("AggregateFromScan", [&] {
    auto got = AggregateFromScan(table, plan, *pred.value(), now, ap,
                                 mo.fact_type(), mo.dimensions(),
                                 mo.measure_types(), target.value(), prog,
                                 rollup);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(got.value()), Fingerprint(want_fused.value()));
  });
}

}  // namespace
}  // namespace dwred
