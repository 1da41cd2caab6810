// The cancellation matrix (docs/ROBUSTNESS.md), mirroring the crash matrix:
// for every cancellation poll site the engine registers, inject a cancel at
// that site mid-operation (DWRED_FAULT <site>:<nth>:cancel semantics via
// FaultInjector::Arm) and require the degradation to be *clean* —
//
//   * the operation returns kCancelled (never crashes, never wedges),
//   * the warehouse epoch is unbumped and the query/ScanSpec cache stats are
//     byte-identical to never having started,
//   * a checkpoint taken after the abort is byte-identical to the base
//     snapshot (no partial mutation reached the tables or the journal's
//     committed prefix),
//   * re-running the same operation unarmed completes and lands on the same
//     snapshot bytes as a run that was never cancelled.
//
// The matrix runs at 1 and 8 pool threads: a cancel that fires on a worker
// shard must unwind exactly like one on the submitting thread. Deadline and
// row-budget variants drive the same poll sites through kDeadlineExceeded /
// kResourceExhausted.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "io/csv.h"
#include "io/recovery.h"
#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "paper_actions.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "spec/parser.h"
#include "testing/fault.h"

namespace dwred {
namespace {

int64_t Now2000() { return DaysFromCivil({2000, 6, 5}); }

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.dwsnap";
}

/// Key-sorted rendering of an MO's facts, for order-insensitive comparison.
std::map<std::string, std::vector<int64_t>> FactMap(
    const MultidimensionalObject& mo) {
  std::map<std::string, std::vector<int64_t>> out;
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    std::string key;
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      if (d) key += "|";
      key += mo.dimension(static_cast<DimensionId>(d))
                 ->value_name(mo.Coord(f, static_cast<DimensionId>(d)));
    }
    std::vector<int64_t> meas;
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      meas.push_back(mo.Measure(f, static_cast<MeasureId>(m)));
    }
    out[key] = meas;
  }
  return out;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
}

/// Cache + epoch fingerprint of a warehouse, plus the global cache counters:
/// an aborted operation must leave every component untouched.
struct StateProbe {
  uint64_t epoch = 0;
  size_t query_entries = 0;
  size_t scanspec_entries = 0;
  size_t cache_bytes = 0;
  int64_t query_hits = 0;
  int64_t query_misses = 0;

  static StateProbe Of(const DurableWarehouse& dw) {
    StateProbe p;
    if (dw.subcubes() != nullptr) {
      auto stats = dw.subcubes()->warehouse_cache().GetStats();
      p.epoch = stats.epoch;
      p.query_entries = stats.query_entries;
      p.scanspec_entries = stats.scanspec_entries;
      // Compiled vm::PredPrograms are deliberately retained across aborts —
      // a program is a complete artifact of (predicate, NOW, epoch), never
      // of the op's outcome (see cache.h) — so the abort invariant covers
      // everything *but* the program LRU's share.
      p.cache_bytes = stats.bytes - stats.program_bytes;
    }
    p.query_hits = CounterValue("dwred_cache_query_hits");
    p.query_misses = CounterValue("dwred_cache_query_misses");
    return p;
  }

  /// `allowed_misses`: a query aborted *mid-evaluation* (after its cache
  /// lookup) honestly counts that one miss; an abort on entry — or any
  /// non-query op — moves no cache counter at all (see cache.h).
  void ExpectUnchangedFrom(const StateProbe& before, const std::string& what,
                           int64_t allowed_misses = 0) const {
    EXPECT_EQ(epoch, before.epoch) << what << ": epoch bumped by aborted op";
    EXPECT_EQ(query_entries, before.query_entries) << what;
    EXPECT_EQ(scanspec_entries, before.scanspec_entries) << what;
    EXPECT_EQ(cache_bytes, before.cache_bytes) << what;
    EXPECT_EQ(query_hits, before.query_hits)
        << what << ": aborted query moved the hit counter";
    EXPECT_EQ(query_misses, before.query_misses + allowed_misses)
        << what << ": aborted query miss-count drifted";
  }
};

using MatrixOp = std::function<Status(DurableWarehouse&)>;

/// One matrix workload: how to build the base state and, per poll site, the
/// operation that crosses it.
struct MatrixWorkload {
  const char* name;
  std::function<Result<std::unique_ptr<DurableWarehouse>>(const std::string&)>
      build_base;
  std::vector<std::pair<std::string, MatrixOp>> site_ops;
};

Result<std::unique_ptr<DurableWarehouse>> BuildSubcubeBase(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  IspExample ex = MakeIspExample();
  ReductionSpecification spec;
  DWRED_ASSIGN_OR_RETURN(Action a1, ParseAction(*ex.mo, paper::kA1, "a1"));
  DWRED_ASSIGN_OR_RETURN(Action a2, ParseAction(*ex.mo, paper::kA2, "a2"));
  spec.Add(std::move(a1));
  spec.Add(std::move(a2));
  DWRED_ASSIGN_OR_RETURN(std::unique_ptr<DurableWarehouse> dw,
                         DurableWarehouse::Create(dir, std::move(ex.mo),
                                                  std::move(spec)));
  IspExample batch = MakeIspExample();
  DWRED_RETURN_IF_ERROR(dw->InsertFacts(*batch.mo));
  DWRED_RETURN_IF_ERROR(dw->EnableSubcubes());
  DWRED_RETURN_IF_ERROR(dw->Checkpoint());
  return dw;
}

Result<std::unique_ptr<DurableWarehouse>> BuildPlainBase(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  IspExample ex = MakeIspExample();
  DWRED_ASSIGN_OR_RETURN(std::unique_ptr<DurableWarehouse> dw,
                         DurableWarehouse::Create(dir, std::move(ex.mo),
                                                  ReductionSpecification{}));
  IspExample batch = MakeIspExample();
  DWRED_RETURN_IF_ERROR(dw->InsertFacts(*batch.mo));
  DWRED_RETURN_IF_ERROR(
      dw->ApplyActions({{"a1", paper::kA1}, {"a2", paper::kA2}}));
  DWRED_RETURN_IF_ERROR(dw->Checkpoint());
  return dw;
}

Status RunQuery(DurableWarehouse& dw, bool parallel) {
  auto r = dw.subcubes()->Query(nullptr, nullptr, Now2000(),
                                /*assume_synchronized=*/false, parallel);
  return r.ok() ? Status::OK() : r.status();
}

/// Runs `query`, which must abort with `want`, and checks the one record an
/// aborted query leaves: exactly one dwred_subcube_query_seconds sample and —
/// with the slow-log threshold at 0, so every root operation is over it —
/// exactly one flight-recorder entry, carrying the abort's OutcomeLabel.
void ExpectOneAbortRecord(const std::function<Status()>& query,
                          StatusCode want) {
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "dwred_subcube_query_seconds", obs::DefaultLatencyBuckets());
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  ::setenv("DWRED_SLOWLOG_MIN_US", "0", 1);
  fr.ReloadConfigFromEnv();
  fr.Clear();
  const uint64_t samples = latency.Count();
  const Status st = query();
  std::vector<obs::FlightEntry> entries = fr.LastN();
  ::unsetenv("DWRED_SLOWLOG_MIN_US");
  fr.ReloadConfigFromEnv();
  fr.Clear();

  EXPECT_EQ(st.code(), want) << st.ToString();
  if (obs::kObsEnabled) {
    EXPECT_EQ(latency.Count(), samples + 1);
  }
  if (!obs::ProfilingEnabled()) return;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op, "subcube.query");
  EXPECT_NE(entries[0].detail.find(std::string("outcome=") +
                                   runtime::OutcomeLabel(want)),
            std::string::npos)
      << entries[0].detail;
}

MatrixWorkload SubcubeMatrix(bool parallel) {
  MatrixWorkload w;
  w.name = "subcube";
  w.build_base = BuildSubcubeBase;
  w.site_ops = {
      {"cancel.insert.batch",
       [](DurableWarehouse& dw) {
         IspExample batch = MakeIspExample();
         return dw.InsertFacts(*batch.mo);
       }},
      {"cancel.sync.plan",
       [](DurableWarehouse& dw) { return dw.SynchronizePass(Now2000()); }},
      {"cancel.query.begin",
       [parallel](DurableWarehouse& dw) { return RunQuery(dw, parallel); }},
      {"cancel.query.subcube",
       [parallel](DurableWarehouse& dw) { return RunQuery(dw, parallel); }},
  };
  return w;
}

MatrixWorkload PlainMatrix() {
  MatrixWorkload w;
  w.name = "plain";
  w.build_base = BuildPlainBase;
  w.site_ops = {
      {"cancel.reduce.shard",
       [](DurableWarehouse& dw) { return dw.ReducePass(Now2000()); }},
  };
  return w;
}

class CancelMatrixTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    exec::ThreadPool::ResetGlobal(GetParam());
    base_ = (std::filesystem::temp_directory_path() /
             ("dwred_cancel_matrix_" + std::to_string(::getpid()) + "_t" +
              std::to_string(GetParam())))
                .string();
  }
  void TearDown() override {
    testing::FaultInjector::Global().Disarm();
    std::error_code ec;
    std::filesystem::remove_all(base_, ec);
  }
  std::string base_;
};

/// Sites that fire more than once per operation (per shard / per subcube) are
/// sampled to this depth, like the crash matrix's kMaxNthPerSite.
constexpr int kMaxNthPerSite = 4;

void RunMatrix(const std::string& base, const MatrixWorkload& w) {
  int aborts = 0;
  for (const auto& [site, op] : w.site_ops) {
    // Golden: base + op with no fault, checkpointed.
    const std::string golden_dir = base + "/golden_" + site;
    auto golden_dw = w.build_base(golden_dir);
    ASSERT_TRUE(golden_dw.ok()) << golden_dw.status().ToString();
    ASSERT_TRUE(op(*golden_dw.value()).ok()) << site;
    ASSERT_TRUE(golden_dw.value()->Checkpoint().ok());
    auto golden = ReadFile(SnapshotPath(golden_dir));
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();

    for (int nth = 1; nth <= kMaxNthPerSite; ++nth) {
      const std::string dir = base + "/" + site + "_" + std::to_string(nth);
      auto dw_r = w.build_base(dir);
      ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
      DurableWarehouse& dw = *dw_r.value();
      auto base_snap = ReadFile(SnapshotPath(dir));
      ASSERT_TRUE(base_snap.ok());
      StateProbe before = StateProbe::Of(dw);

      testing::FaultInjector::Global().Arm(site, nth,
                                           testing::FaultMode::kCancel);
      Status st = op(dw);
      bool fired = testing::FaultInjector::Global().fired();
      testing::FaultInjector::Global().Disarm();
      if (!fired) {
        // Site executes fewer than nth times in this op: exhausted.
        EXPECT_TRUE(st.ok()) << site << " nth=" << nth << ": "
                             << st.ToString();
        break;
      }
      ASSERT_EQ(st.code(), StatusCode::kCancelled)
          << site << " nth=" << nth << ": " << st.ToString();
      ++aborts;

      // Clean-abort invariants: epoch, cache stats, cache counters, and the
      // checkpointed snapshot are byte-identical to never having started.
      // (A query cancelled mid-evaluation counts the one miss its lookup
      // already performed; the entry site aborts before the lookup, and a
      // disabled cache performs no lookup at all.)
      int64_t allowed_misses =
          site == "cancel.query.subcube" && cache::Enabled() ? 1 : 0;
      StateProbe::Of(dw).ExpectUnchangedFrom(
          before, site + " nth=" + std::to_string(nth), allowed_misses);
      EXPECT_FALSE(dw.poisoned()) << site << ": abort poisoned the warehouse";
      ASSERT_TRUE(dw.Checkpoint().ok()) << site << " nth=" << nth;
      auto after_snap = ReadFile(SnapshotPath(dir));
      ASSERT_TRUE(after_snap.ok());
      EXPECT_EQ(after_snap.value(), base_snap.value())
          << "snapshot mutated by cancelled op at " << site
          << " nth=" << nth;

      // Differential: retrying the cancelled op must land on the golden
      // bytes — the abort left nothing behind that changes the rerun.
      ASSERT_TRUE(op(dw).ok()) << site << " nth=" << nth;
      ASSERT_TRUE(dw.Checkpoint().ok());
      auto final_snap = ReadFile(SnapshotPath(dir));
      ASSERT_TRUE(final_snap.ok());
      EXPECT_EQ(final_snap.value(), golden.value())
          << "rerun after cancel at " << site << " nth=" << nth
          << " diverged from the never-cancelled run";
    }
  }
  ASSERT_GT(aborts, 0) << "the matrix never cancelled an op — sites broken?";
}

TEST_P(CancelMatrixTest, SubcubeOpsAbortCleanlyAtEverySite) {
  RunMatrix(base_, SubcubeMatrix(/*parallel=*/GetParam() > 1));
}

TEST_P(CancelMatrixTest, PlainReduceAbortsCleanlyAtEverySite) {
  RunMatrix(base_, PlainMatrix());
}

TEST_P(CancelMatrixTest, EveryRegisteredCancelSiteIsCovered) {
  // A probe run across both workloads must register exactly the poll sites
  // the matrix drives: a new PollCancel site added to the engine without a
  // matrix entry fails here.
  const std::string dir = base_ + "/probe";
  for (const MatrixWorkload& w :
       {SubcubeMatrix(GetParam() > 1), PlainMatrix()}) {
    auto dw = w.build_base(dir + w.name);
    ASSERT_TRUE(dw.ok()) << dw.status().ToString();
    for (const auto& [site, op] : w.site_ops) {
      ASSERT_TRUE(op(*dw.value()).ok()) << site;
    }
  }
  std::vector<std::string> covered;
  for (const MatrixWorkload& w :
       {SubcubeMatrix(GetParam() > 1), PlainMatrix()}) {
    for (const auto& [site, op] : w.site_ops) covered.push_back(site);
  }
  for (const std::string& seen :
       testing::FaultInjector::Global().SitesSeen()) {
    if (seen.rfind("cancel.", 0) != 0) continue;
    bool known = false;
    for (const std::string& c : covered) known = known || c == seen;
    EXPECT_TRUE(known) << "poll site " << seen
                       << " is not covered by the cancellation matrix";
  }
  for (const std::string& c : covered) {
    bool registered = false;
    for (const std::string& seen :
         testing::FaultInjector::Global().SitesSeen()) {
      registered = registered || seen == c;
    }
    EXPECT_TRUE(registered) << "matrix site " << c << " never executed";
  }
}

TEST_P(CancelMatrixTest, ExpiredDeadlineAbortsEveryOpCleanly) {
  const std::string dir = base_ + "/deadline";
  auto dw_r = BuildSubcubeBase(dir);
  ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
  DurableWarehouse& dw = *dw_r.value();
  auto base_snap = ReadFile(SnapshotPath(dir));
  ASSERT_TRUE(base_snap.ok());
  StateProbe before = StateProbe::Of(dw);

  runtime::OpContext ctx;
  ctx.deadline = runtime::Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    runtime::ScopedOpContext scope(ctx);
    ExpectOneAbortRecord([&] { return RunQuery(dw, GetParam() > 1); },
                         StatusCode::kDeadlineExceeded);
    EXPECT_EQ(dw.SynchronizePass(Now2000()).code(),
              StatusCode::kDeadlineExceeded);
    IspExample batch = MakeIspExample();
    EXPECT_EQ(dw.InsertFacts(*batch.mo).code(),
              StatusCode::kDeadlineExceeded);
  }
  StateProbe::Of(dw).ExpectUnchangedFrom(before, "deadline");
  EXPECT_FALSE(dw.poisoned());
  ASSERT_TRUE(dw.Checkpoint().ok());
  auto after = ReadFile(SnapshotPath(dir));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), base_snap.value());

  // Without the expired context the same ops complete.
  ASSERT_TRUE(dw.SynchronizePass(Now2000()).ok());
  EXPECT_TRUE(RunQuery(dw, GetParam() > 1).ok());
}

TEST_P(CancelMatrixTest, TinyRowBudgetExhaustsQueryCleanly) {
  const std::string dir = base_ + "/budget";
  auto dw_r = BuildSubcubeBase(dir);
  ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
  DurableWarehouse& dw = *dw_r.value();
  StateProbe before = StateProbe::Of(dw);

  runtime::OpContext ctx;
  ctx.SetMaxRows(1);  // the base warehouse holds 7 bottom facts
  {
    runtime::ScopedOpContext scope(ctx);
    ExpectOneAbortRecord([&] { return RunQuery(dw, GetParam() > 1); },
                         StatusCode::kResourceExhausted);
    EXPECT_EQ(dw.SynchronizePass(Now2000()).code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_GT(ctx.rows_charged(), 1);
  // The budget-exhausted query aborted after its (miss) lookup; the sync
  // pass consults no query cache, and a disabled cache performs no lookup.
  StateProbe::Of(dw).ExpectUnchangedFrom(before, "budget",
                                         cache::Enabled() ? 1 : 0);
  EXPECT_FALSE(dw.poisoned());

  // An ample budget passes and reports its spend through the profile.
  runtime::OpContext roomy;
  roomy.SetMaxRows(1'000'000);
  runtime::ScopedOpContext scope(roomy);
  obs::OpProfile prof;
  uint64_t pinned = 0;
  auto r = dw.subcubes()->Query(nullptr, nullptr, Now2000(), false,
                                GetParam() > 1, &pinned, &prof);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FactMap(r.value()).size(), r.value().num_facts());
  EXPECT_EQ(prof.outcome, "ok");
  EXPECT_EQ(prof.budget_max_rows, 1'000'000);
  EXPECT_GT(prof.budget_rows_charged, 0);
  EXPECT_EQ(prof.budget_rows_charged, roomy.rows_charged());
}

TEST_P(CancelMatrixTest, AbortedQueryFillsProfileOutcome) {
  const std::string dir = base_ + "/profile";
  auto dw_r = BuildSubcubeBase(dir);
  ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
  DurableWarehouse& dw = *dw_r.value();

  testing::FaultInjector::Global().Arm("cancel.query.begin", 1,
                                       testing::FaultMode::kCancel);
  obs::OpProfile prof;
  Status st;
  ExpectOneAbortRecord(
      [&] {
        auto r = dw.subcubes()->Query(nullptr, nullptr, Now2000(), false,
                                      GetParam() > 1, nullptr, &prof);
        st = r.ok() ? Status::OK() : r.status();
        return st;
      },
      StatusCode::kCancelled);
  testing::FaultInjector::Global().Disarm();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(prof.outcome, "cancelled");
  EXPECT_NE(prof.Render().find("outcome:"), std::string::npos);
  EXPECT_NE(prof.ToJson().find("\"outcome\":\"cancelled\""),
            std::string::npos);
  EXPECT_NE(prof.Summary().find("outcome=cancelled"), std::string::npos);
}

// A query shed at the admission gate is an abort like the others: it fills
// the caller's profile with its outcome, leaves the warehouse untouched, and
// leaves one latency sample and one slow-log entry.
TEST_P(CancelMatrixTest, ShedQueryFillsProfileOutcome) {
  const std::string dir = base_ + "/shed";
  auto dw_r = BuildSubcubeBase(dir);
  ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
  DurableWarehouse& dw = *dw_r.value();
  StateProbe before = StateProbe::Of(dw);

  runtime::ResourceGovernor& gov = runtime::ResourceGovernor::Global();
  gov.Configure(1, 0);  // one slot, shed at once when it is taken
  obs::OpProfile prof;
  {
    runtime::AdmissionTicket held;
    ASSERT_TRUE(gov.Admit(&held).ok());
    ExpectOneAbortRecord(
        [&] {
          auto r = dw.subcubes()->Query(nullptr, nullptr, Now2000(), false,
                                        GetParam() > 1, nullptr, &prof);
          return r.ok() ? Status::OK() : r.status();
        },
        StatusCode::kResourceExhausted);
  }
  gov.ConfigureFromEnv();
  if (obs::ProfilingEnabled()) {
    EXPECT_EQ(prof.outcome, "resource_exhausted");
  }
  StateProbe::Of(dw).ExpectUnchangedFrom(before, "shed", 0);
  EXPECT_TRUE(RunQuery(dw, GetParam() > 1).ok());
}

TEST_P(CancelMatrixTest, CancelCountersMoveOncePerAbortedOp) {
  const std::string dir = base_ + "/counters";
  auto dw_r = BuildSubcubeBase(dir);
  ASSERT_TRUE(dw_r.ok()) << dw_r.status().ToString();
  DurableWarehouse& dw = *dw_r.value();

  int64_t before = CounterValue("dwred_cancel_cancelled");
  testing::FaultInjector::Global().Arm("cancel.sync.plan", 1,
                                       testing::FaultMode::kCancel);
  ASSERT_EQ(dw.SynchronizePass(Now2000()).code(), StatusCode::kCancelled);
  testing::FaultInjector::Global().Disarm();
  EXPECT_EQ(CounterValue("dwred_cancel_cancelled"), before + 1)
      << "the abort counter counts operations, not poll hits";
}

INSTANTIATE_TEST_SUITE_P(Threads, CancelMatrixTest, ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dwred
