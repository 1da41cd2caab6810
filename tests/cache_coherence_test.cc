// Cache-coherence differential tests (docs/CACHING.md): the query cache
// must never change query bytes — only their cost. The interleaving test
// drives query → insert → query → synchronize → query across epochs, thread
// counts {1, 4}, and cache on/off, asserting byte-for-byte identical
// transcripts; the NOW-advance case pins that a NOW-relative predicate
// re-evaluated at a later day never sees a stale window. The maintained-
// answer differential checks every answer refreshed after inserts against a
// cache-off cold recompute over generated specifications on two schemas.
// The concurrent test (also in the TSan suite, tools/run_tier1.sh) races
// epoch-pinned readers against mutating writers: any two reads that pinned
// the same epoch must agree byte for byte.

#include <cstdlib>

#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "chrono/granule.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "paper_actions.h"
#include "spec/parser.h"
#include "subcube/manager.h"
#include "testing/spec_gen.h"
#include "workload/clickstream.h"
#include "workload/retail.h"

namespace dwred {
namespace {

/// Full-fidelity serialization of an MO (the differential harness's
/// currency): any divergence shows up as a string mismatch.
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
    out << "\n";
  }
  return out.str();
}

class CacheCoherenceTest : public ::testing::Test {
 protected:
  // Each test manages DWRED_CACHE_DISABLED itself; start from a clean slate
  // so the suite behaves the same under the CI cache-off job, which exports
  // the variable process-wide.
  void SetUp() override { ::unsetenv("DWRED_CACHE_DISABLED"); }

  void TearDown() override {
    ::unsetenv("DWRED_CACHE_DISABLED");
    exec::ThreadPool::ResetGlobal(2);
  }

  /// A fresh paper-example warehouse with the {a1, a2} specification and the
  /// Table 2 facts loaded into the bottom cube.
  std::unique_ptr<SubcubeManager> MakeWarehouse(IspExample* ex_out) {
    *ex_out = MakeIspExample();
    IspExample& ex = *ex_out;
    ReductionSpecification spec;
    spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
    spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
    auto m = SubcubeManager::Create(
        "Click", ex.mo->dimensions(),
        {ex.mo->measure_type(0), ex.mo->measure_type(1), ex.mo->measure_type(2),
         ex.mo->measure_type(3)},
        spec);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    auto mgr = std::make_unique<SubcubeManager>(m.take());
    EXPECT_TRUE(mgr->InsertBottomFacts(*ex.mo).ok());
    return mgr;
  }
};

// The interleaved mutate/query transcript is byte-identical across thread
// counts and cache on/off — every query answered from the cache equals the
// one recomputed from the tables, at every epoch of the warehouse's life.
TEST_F(CacheCoherenceTest, InterleavedEpochsMatchCacheOffByteForByte) {
  auto run = [&](int threads, bool disabled) -> std::string {
    if (disabled) {
      ::setenv("DWRED_CACHE_DISABLED", "1", 1);
    } else {
      ::unsetenv("DWRED_CACHE_DISABLED");
    }
    exec::ThreadPool::ResetGlobal(threads);
    IspExample ex;
    std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
    auto pred = ParsePredicate(
                    *ex.mo, "URL.domain_grp = .com AND Time.month <= NOW - 6 months")
                    .take();
    auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
    const bool parallel = threads > 1;

    std::ostringstream transcript;
    auto query = [&](int64_t now, bool synced, const char* tag) {
      // Twice per step: the second evaluation must serve the same bytes
      // whether it hits the cache (enabled) or recomputes (disabled).
      for (int rep = 0; rep < 2; ++rep) {
        uint64_t epoch = 0;
        auto r = mgr->Query(&*pred, &gran, now, synced, parallel, &epoch);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return;
        transcript << tag << " rep " << rep << " epoch " << epoch << "\n"
                   << Fingerprint(r.value());
      }
    };

    const int64_t day1 = DaysFromCivil({2000, 6, 5});
    const int64_t day2 = DaysFromCivil({2000, 11, 5});
    query(day1, /*synced=*/false, "q1");
    // Mutation: a new bottom fact bumps the epoch and drops cached results.
    MultidimensionalObject batch("Click", ex.mo->dimensions(),
                                 std::vector<MeasureType>(
                                     ex.mo->measure_types()));
    std::vector<ValueId> cell = {ex.mo->Coord(6, ex.time_dim), ex.url_cnn};
    std::vector<int64_t> meas = {2, 40, 8, 2048};
    EXPECT_TRUE(batch.AddFact(cell, meas).ok());
    EXPECT_TRUE(mgr->InsertBottomFacts(batch).ok());
    query(day1, /*synced=*/false, "q2");
    EXPECT_TRUE(mgr->Synchronize(day1).ok());
    query(day1, /*synced=*/true, "q3");
    // NOW advances without any mutation: same predicate, later day — a
    // cached q3 window must not be served for q4.
    query(day2, /*synced=*/false, "q4");
    EXPECT_TRUE(mgr->Synchronize(day2).ok());
    query(day2, /*synced=*/true, "q5");
    return transcript.str();
  };

  std::string baseline;  // threads=1, cache enabled
  for (int threads : {1, 4}) {
    for (bool disabled : {false, true}) {
      std::string got = run(threads, disabled);
      if (baseline.empty()) {
        baseline = std::move(got);
        ASSERT_FALSE(baseline.empty());
        continue;
      }
      EXPECT_EQ(got, baseline)
          << "threads=" << threads << " cache_disabled=" << disabled
          << " diverged";
    }
  }
}

// The second identical query in an unchanged epoch is served from the cache
// (hit counter advances, bytes identical); with DWRED_CACHE_DISABLED set the
// counters stand still and the bytes still match.
TEST_F(CacheCoherenceTest, RepeatHitsAdvanceCountersOnlyWhenEnabled) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& hits = reg.GetCounter("dwred_cache_query_hits");

  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});

  auto first = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(first.ok());
  uint64_t hits_before = hits.Value();
  auto second = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hits.Value(), hits_before + 1);
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(second.value()));

  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  hits_before = hits.Value();
  auto third = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(hits.Value(), hits_before);
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(third.value()));

  // A mutation bumps the epoch: the old key is unreachable, so the next
  // enabled lookup misses and recomputes against the new tables.
  ::unsetenv("DWRED_CACHE_DISABLED");
  const uint64_t epoch_before = mgr->epoch();
  MultidimensionalObject batch("Click", ex.mo->dimensions(),
                               std::vector<MeasureType>(ex.mo->measure_types()));
  std::vector<ValueId> cell = {ex.mo->Coord(0, ex.time_dim), ex.url_cnn};
  std::vector<int64_t> meas = {1, 1, 1, 1};
  ASSERT_TRUE(batch.AddFact(cell, meas).ok());
  ASSERT_TRUE(mgr->InsertBottomFacts(batch).ok());
  EXPECT_GT(mgr->epoch(), epoch_before);
  auto fourth = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(fourth.ok());
  EXPECT_NE(Fingerprint(first.value()), Fingerprint(fourth.value()));
}

/// One generated warehouse of the maintained-answer differential.
struct Schema {
  std::string name;
  std::unique_ptr<MultidimensionalObject> mo;  ///< the initial bottom facts
  const char* target;                          ///< granularity list
  int64_t start = 0;                           ///< first fact day
  int span_days = 0;
};

Schema MakeSchema(bool retail) {
  Schema s;
  if (retail) {
    RetailConfig cfg;
    cfg.seed = 11;
    cfg.num_categories = 3;
    cfg.brands_per_category = 3;
    cfg.skus_per_brand = 3;
    cfg.num_regions = 2;
    cfg.cities_per_region = 2;
    cfg.stores_per_city = 2;
    cfg.span_days = 2 * 365;
    cfg.num_sales = 1200;
    RetailWorkload w = MakeRetail(cfg);
    s.name = "retail";
    s.mo = std::move(w.mo);
    s.target = "Time.quarter, Product.brand, Store.region";
    s.start = DaysFromCivil(cfg.start);
    s.span_days = cfg.span_days;
  } else {
    ClickstreamConfig cfg;
    cfg.seed = 13;
    cfg.num_domains = 8;
    cfg.urls_per_domain = 3;
    cfg.span_days = 2 * 365;
    cfg.num_clicks = 1200;
    ClickstreamWorkload w = MakeClickstream(cfg);
    s.name = "clickstream";
    s.mo = std::move(w.mo);
    s.target = "Time.month, URL.domain";
    s.start = DaysFromCivil(cfg.start);
    s.span_days = cfg.span_days;
  }
  return s;
}

/// `n` bottom facts copied from random facts of `base` (so they intern
/// nothing), every fifth mapped to ⊤ in one dimension. With `new_day`, the
/// time coordinate is that day instead, interned now.
MultidimensionalObject MakeBatch(const MultidimensionalObject& base,
                                 SplitMix64* rng, size_t n,
                                 std::optional<int64_t> new_day) {
  MultidimensionalObject batch(base.fact_type(), base.dimensions(),
                               base.measure_types());
  const size_t ndims = base.num_dimensions();
  for (size_t k = 0; k < n; ++k) {
    const FactId src = static_cast<FactId>(rng->Below(base.num_facts()));
    std::vector<ValueId> cell(base.FactCoords(src).begin(),
                              base.FactCoords(src).end());
    std::vector<int64_t> meas(base.FactMeasures(src).begin(),
                              base.FactMeasures(src).end());
    for (int64_t& m : meas) m += static_cast<int64_t>(rng->Below(5));
    for (size_t d = 0; d < ndims; ++d) {
      Dimension& dim = *base.dimension(static_cast<DimensionId>(d));
      if (new_day && dim.is_time()) {
        cell[d] = dim.EnsureTimeValue(DayGranule(*new_day)).value();
      }
    }
    if (k % 5 == 4) {
      const size_t d = rng->Below(ndims);
      cell[d] = base.dimension(static_cast<DimensionId>(d))->top_value();
    }
    EXPECT_TRUE(batch.AddFact(cell, meas).ok());
  }
  return batch;
}

// Every answer a maintained entry serves after inserts — α and σ-only,
// predicated and not, across several inserts between reads, ⊤-mapped
// facts, inserts that intern new day and month values, and synchronizations
// and specification changes between inserts — is byte-identical to a
// cache-off cold recompute, at 1 and 4 threads, over generated
// specifications on the clickstream and retail schemas. Reads after an
// insert that interned nothing must take the refresh path.
TEST_F(CacheCoherenceTest, MaintainedAnswersEqualColdRecomputeAfterEveryInsert) {
  obs::Counter& refreshes = obs::MetricsRegistry::Global().GetCounter(
      "dwred_cache_query_refreshes");
  for (bool retail : {false, true}) {
    for (int threads : {1, 4}) {
      exec::ThreadPool::ResetGlobal(threads);
      const bool parallel = threads > 1;
      Schema schema = MakeSchema(retail);
      const MultidimensionalObject& mo = *schema.mo;
      testing::SpecGenOptions opts;
      opts.num_actions = 3;
      opts.sound_chain = true;
      opts.deletion_prob = 0.0;
      auto spec = testing::GenerateSpec(mo, retail ? 5 : 3, opts);
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      auto m = SubcubeManager::Create(
          mo.fact_type(), mo.dimensions(),
          std::vector<MeasureType>(mo.measure_types()), spec.take());
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      auto mgr = std::make_unique<SubcubeManager>(m.take());
      ASSERT_TRUE(mgr->InsertBottomFacts(mo).ok());
      const int64_t now = schema.start + schema.span_days - 20;
      ASSERT_TRUE(mgr->Synchronize(now).ok());
      ASSERT_GT(mgr->num_subcubes(), 1u) << schema.name;

      auto window =
          ParsePredicate(mo, "NOW - 12 months <= Time.month").take();
      // A day bound just past the facts: a ⊤-mapped time coordinate
      // satisfies it until a later day is interned (Definition 5 drills ⊤
      // down to the materialized days).
      const int64_t last_day = schema.start + schema.span_days - 1;
      const CivilDate bound = CivilFromDays(last_day + 10);
      auto day_atom =
          ParsePredicate(mo, "Time.day <= " + std::to_string(bound.year) +
                                 "/" + std::to_string(bound.month) + "/" +
                                 std::to_string(bound.day))
              .take();
      auto target = ParseGranularityList(mo, schema.target).take();
      struct Shape {
        const PredExpr* pred;
        const std::vector<CategoryId>* target;
        bool synced;
      };
      const Shape shapes[] = {{window.get(), &target, true},
                              {day_atom.get(), &target, true},
                              {nullptr, &target, true},
                              {window.get(), nullptr, true},
                              {window.get(), &target, false}};

      // Reads every shape with the cache on, then recomputes it cold.
      // `expect_refresh`: the synchronized shapes must be refreshed.
      auto read_all = [&](const std::string& step, bool expect_refresh) {
        for (size_t q = 0; q < std::size(shapes); ++q) {
          const Shape& sh = shapes[q];
          const std::string what = schema.name + " threads=" +
                                   std::to_string(threads) + " " + step +
                                   " shape " + std::to_string(q);
          const uint64_t refreshes_before = refreshes.Value();
          obs::OpProfile prof;
          auto warm = mgr->Query(sh.pred, sh.target, now, sh.synced, parallel,
                                 nullptr, &prof);
          ASSERT_TRUE(warm.ok()) << what << ": " << warm.status().ToString();
          ::setenv("DWRED_CACHE_DISABLED", "1", 1);
          auto cold = mgr->Query(sh.pred, sh.target, now, sh.synced, parallel);
          ::unsetenv("DWRED_CACHE_DISABLED");
          ASSERT_TRUE(cold.ok()) << what << ": " << cold.status().ToString();
          EXPECT_EQ(Fingerprint(warm.value()), Fingerprint(cold.value()))
              << what << ": maintained answer diverged from the cold one";
          if (sh.pred == nullptr) {
            EXPECT_GT(warm.value().num_facts(), 0u) << what;
          }
          if (expect_refresh && sh.synced) {
            EXPECT_EQ(refreshes.Value(), refreshes_before + 1) << what;
            if (obs::ProfilingEnabled()) {
              EXPECT_EQ(prof.cache, obs::CacheOutcome::kRefresh) << what;
            }
          }
        }
      };

      SplitMix64 rng(retail ? 71 : 73);
      read_all("initial", false);
      for (int round = 0; round < 8; ++round) {
        const std::string step = "round " + std::to_string(round);
        switch (round) {
          case 2: {
            // New days past the span, one of them in a new month: the
            // extents change, so the next reads evaluate afresh.
            for (int64_t day : {last_day + 1, last_day + 40}) {
              MultidimensionalObject b = MakeBatch(mo, &rng, 15, day);
              ASSERT_TRUE(mgr->InsertBottomFacts(b).ok()) << step;
            }
            read_all(step + " interning", false);
            break;
          }
          case 4:
            ASSERT_TRUE(mgr->InsertBottomFacts(
                               MakeBatch(mo, &rng, 20, std::nullopt))
                            .ok());
            ASSERT_TRUE(mgr->Synchronize(now + 30).ok()) << step;
            read_all(step + " synchronized", false);
            break;
          case 6: {
            auto next = testing::GenerateSpec(mo, retail ? 8 : 9, opts);
            ASSERT_TRUE(next.ok()) << next.status().ToString();
            ASSERT_TRUE(mgr->ChangeSpecification(next.take(), now).ok());
            read_all(step + " spec change", false);
            break;
          }
          default:
            break;
        }
        // One to three inserts that intern nothing, then every read
        // refreshes its maintained answer.
        for (int k = 0; k <= round % 3; ++k) {
          ASSERT_TRUE(mgr->InsertBottomFacts(
                             MakeBatch(mo, &rng, 10 + 7 * k, std::nullopt))
                          .ok())
              << step;
        }
        read_all(step, true);
      }
    }
  }
}

// Readers race writers under the snapshot lock: every read pins an epoch,
// and any two reads that pinned the same epoch — across all reader threads,
// cache hits and misses alike — must be byte-identical. Runs under TSan in
// the sanitizer suite.
TEST_F(CacheCoherenceTest, ConcurrentReadersAgreePerPinnedEpoch) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});

  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 40;
  std::mutex mu;
  std::map<uint64_t, std::string> by_epoch;  // epoch -> first fingerprint seen
  std::atomic<bool> mismatch{false};
  std::atomic<bool> failed{false};

  auto reader = [&]() {
    for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
      uint64_t epoch = 0;
      auto r = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false,
                          /*parallel=*/false, &epoch);
      if (!r.ok()) {
        failed.store(true);
        return;
      }
      std::string fp = Fingerprint(r.value());
      std::lock_guard<std::mutex> lock(mu);
      auto it = by_epoch.find(epoch);
      if (it == by_epoch.end()) {
        by_epoch.emplace(epoch, std::move(fp));
      } else if (it->second != fp) {
        mismatch.store(true);
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader);

  // Writer: interleave appends and synchronizations, each bumping the epoch
  // under the exclusive lock.
  for (int w = 0; w < 10; ++w) {
    MultidimensionalObject batch("Click", ex.mo->dimensions(),
                                 std::vector<MeasureType>(
                                     ex.mo->measure_types()));
    std::vector<ValueId> cell = {ex.mo->Coord(w % 7, ex.time_dim), ex.url_cnn};
    std::vector<int64_t> meas = {1, w, 1, 1};
    ASSERT_TRUE(batch.AddFact(cell, meas).ok());
    ASSERT_TRUE(mgr->InsertBottomFacts(batch).ok());
    if (w % 3 == 2) {
      ASSERT_TRUE(mgr->Synchronize(DaysFromCivil({2000, 6, 5})).ok());
    }
  }

  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_FALSE(mismatch.load()) << "same pinned epoch, different bytes";
  // The readers observed at least the initial epoch; mutations may or may
  // not have interleaved with reads on a given run, but every observed epoch
  // was internally consistent.
  EXPECT_GE(by_epoch.size(), 1u);
}

}  // namespace
}  // namespace dwred
