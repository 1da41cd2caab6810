// Unit tests for the robustness runtime (docs/ROBUSTNESS.md): cancel tokens,
// deadlines, row budgets, thread-local context propagation through the
// thread pool, the admission governor's wait-then-shed backpressure, and the
// retry-with-backoff helper. The end-to-end clean-abort guarantees live in
// cancel_matrix_test.cc; this file pins the building blocks.

#include "runtime/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "paper_actions.h"
#include "runtime/governor.h"
#include "runtime/retry.h"
#include "spec/parser.h"
#include "subcube/manager.h"
#include "testing/fault.h"

namespace dwred {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    testing::FaultInjector::Global().Disarm();
    runtime::ResourceGovernor::Global().Configure(0, 100);
  }
};

TEST_F(CancelTest, InertTokenNeverCancels) {
  runtime::CancelToken t;
  EXPECT_FALSE(t.cancellable());
  t.Cancel();  // no-op
  EXPECT_FALSE(t.cancelled());
}

TEST_F(CancelTest, TokenCopiesShareTheFlag) {
  runtime::CancelToken t = runtime::CancelToken::Create();
  runtime::CancelToken copy = t;
  EXPECT_TRUE(copy.cancellable());
  EXPECT_FALSE(copy.cancelled());
  t.Cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST_F(CancelTest, DeadlineExpiresAndClampsRemaining) {
  runtime::Deadline none;
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.expired());
  EXPECT_GT(none.remaining_millis(), int64_t{1} << 60);

  runtime::Deadline past = runtime::Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining_millis(), 0);

  runtime::Deadline future = runtime::Deadline::AfterMillis(60'000);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_millis(), 0);
}

TEST_F(CancelTest, CheckOrdersDeadlineBeforeTokenBeforeBudget) {
  runtime::OpContext ctx;
  EXPECT_TRUE(ctx.Check().ok());

  ctx.token = runtime::CancelToken::Create();
  ctx.token.Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);

  // An expired deadline wins over a fired token: after a deadline cancels
  // sibling shards via the token, every shard still reports the deadline.
  ctx.deadline = runtime::Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelTest, ChargeRowsEnforcesBudgetAcrossCopies) {
  runtime::OpContext ctx;
  EXPECT_TRUE(ctx.ChargeRows(1'000'000).ok());  // no budget: free

  ctx.SetMaxRows(100);
  runtime::OpContext copy = ctx;  // shares the accumulator
  EXPECT_TRUE(ctx.ChargeRows(60).ok());
  EXPECT_TRUE(copy.ChargeRows(40).ok());
  Status over = ctx.ChargeRows(1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("row budget exceeded"), std::string::npos);
  EXPECT_EQ(ctx.rows_charged(), 101);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);

  ctx.SetMaxRows(0);  // budget removed
  EXPECT_TRUE(ctx.ChargeRows(1'000).ok());
}

TEST_F(CancelTest, ScopedContextNestsAndRestores) {
  EXPECT_FALSE(runtime::CurrentOpContext().token.cancellable());
  runtime::OpContext outer;
  outer.token = runtime::CancelToken::Create();
  {
    runtime::ScopedOpContext outer_scope(outer);
    EXPECT_TRUE(runtime::CurrentOpContext().token.cancellable());
    {
      runtime::ScopedOpContext inner_scope(runtime::OpContext{});
      EXPECT_FALSE(runtime::CurrentOpContext().token.cancellable());
    }
    EXPECT_TRUE(runtime::CurrentOpContext().token.cancellable());
  }
  EXPECT_FALSE(runtime::CurrentOpContext().token.cancellable());
}

TEST_F(CancelTest, ContextPropagatesToPoolWorkers) {
  exec::ThreadPool pool(4);
  runtime::OpContext ctx;
  ctx.token = runtime::CancelToken::Create();
  ctx.SetMaxRows(1'000'000);
  runtime::ScopedOpContext scope(ctx);

  std::atomic<int> cancellable_shards{0};
  std::atomic<int> shards{0};
  pool.ParallelFor(1000, 1, [&](size_t begin, size_t end) {
    shards.fetch_add(1);
    const runtime::OpContext& seen = runtime::CurrentOpContext();
    if (seen.token.cancellable() && seen.max_rows() == 1'000'000) {
      cancellable_shards.fetch_add(1);
    }
    (void)seen.ChargeRows(static_cast<int64_t>(end - begin));
  });
  EXPECT_EQ(cancellable_shards.load(), shards.load());
  // Worker-side charges landed on the submitter's shared accumulator.
  EXPECT_EQ(ctx.rows_charged(), 1000);
}

TEST_F(CancelTest, PollCancelInjectionFiresTheCurrentToken) {
  runtime::OpContext ctx;
  ctx.token = runtime::CancelToken::Create();
  runtime::ScopedOpContext scope(ctx);

  testing::FaultInjector::Global().Arm("cancel.unit.site", 1,
                                       testing::FaultMode::kCancel);
  Status s = runtime::PollCancel("cancel.unit.site");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  // Sibling shards of the same operation observe the injected cancel.
  EXPECT_TRUE(ctx.token.cancelled());
  EXPECT_EQ(runtime::CurrentOpContext().Check().code(), StatusCode::kCancelled);
}

TEST_F(CancelTest, IsAbortAndOutcomeLabels) {
  EXPECT_TRUE(runtime::IsAbort(StatusCode::kCancelled));
  EXPECT_TRUE(runtime::IsAbort(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(runtime::IsAbort(StatusCode::kResourceExhausted));
  EXPECT_FALSE(runtime::IsAbort(StatusCode::kOk));
  EXPECT_FALSE(runtime::IsAbort(StatusCode::kInternal));
  EXPECT_STREQ(runtime::OutcomeLabel(StatusCode::kOk), "ok");
  EXPECT_STREQ(runtime::OutcomeLabel(StatusCode::kCancelled), "cancelled");
  EXPECT_STREQ(runtime::OutcomeLabel(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(runtime::OutcomeLabel(StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(runtime::OutcomeLabel(StatusCode::kInternal), "error");
}

TEST_F(CancelTest, CountAbortMovesTheMatchingCounter) {
  auto value = [](const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
  };
  int64_t before = value("dwred_cancel_deadline_exceeded");
  Status s = runtime::CountAbort(Status::DeadlineExceeded("t"));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);  // passes through
  EXPECT_EQ(value("dwred_cancel_deadline_exceeded"), before + 1);

  int64_t ok_before = value("dwred_cancel_cancelled");
  (void)runtime::CountAbort(Status::OK());
  (void)runtime::CountAbort(Status::Internal("not an abort"));
  EXPECT_EQ(value("dwred_cancel_cancelled"), ok_before);
}

// --- ResourceGovernor -------------------------------------------------------

TEST_F(CancelTest, GovernorUnlimitedIsUncountedFastPath) {
  runtime::ResourceGovernor::Global().Configure(0, 100);
  runtime::AdmissionTicket ticket;
  ASSERT_TRUE(runtime::ResourceGovernor::Global().Admit(&ticket).ok());
  EXPECT_FALSE(ticket.counted());
}

TEST_F(CancelTest, GovernorShedsWhenFullAndReadmitsAfterRelease) {
  auto& gov = runtime::ResourceGovernor::Global();
  gov.Configure(1, 10);  // one slot, 10ms wait

  runtime::AdmissionTicket holder;
  ASSERT_TRUE(gov.Admit(&holder).ok());
  EXPECT_TRUE(holder.counted());
  EXPECT_EQ(gov.inflight(), 1);

  int64_t shed_before =
      obs::MetricsRegistry::Global().GetCounter("dwred_shed_total", "").Value();
  runtime::AdmissionTicket shed;
  Status s = gov.Admit(&shed);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("admission gate full"), std::string::npos);
  EXPECT_FALSE(shed.counted());
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("dwred_shed_total", "")
                .Value(),
            shed_before + 1);

  holder = runtime::AdmissionTicket{};  // release the slot
  EXPECT_EQ(gov.inflight(), 0);
  runtime::AdmissionTicket again;
  EXPECT_TRUE(gov.Admit(&again).ok());
  EXPECT_TRUE(again.counted());
}

TEST_F(CancelTest, GovernorFailsFastOnDeadOnArrivalContext) {
  auto& gov = runtime::ResourceGovernor::Global();
  gov.Configure(1, 5'000);  // would wait 5s if it tried

  runtime::AdmissionTicket holder;
  ASSERT_TRUE(gov.Admit(&holder).ok());

  runtime::OpContext ctx;
  ctx.deadline = runtime::Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  runtime::ScopedOpContext scope(ctx);

  auto start = std::chrono::steady_clock::now();
  runtime::AdmissionTicket t;
  Status s = gov.Admit(&t);
  auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            1'000);
}

TEST_F(CancelTest, GovernorWakesWaiterOnRelease) {
  auto& gov = runtime::ResourceGovernor::Global();
  gov.Configure(1, 5'000);

  auto holder = std::make_unique<runtime::AdmissionTicket>();
  ASSERT_TRUE(gov.Admit(holder.get()).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool waiting = false;
  Status admitted = Status::Internal("never ran");
  std::thread waiter([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      waiting = true;
    }
    cv.notify_one();
    runtime::AdmissionTicket t;
    Status s = gov.Admit(&t);  // blocks until the holder releases
    std::lock_guard<std::mutex> lock(mu);
    admitted = s;
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return waiting; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  holder.reset();  // release -> waiter admitted well before its 5s bound
  waiter.join();
  EXPECT_TRUE(admitted.ok()) << admitted.ToString();
  EXPECT_EQ(gov.inflight(), 0);
}

// --- RetryWithBackoff -------------------------------------------------------

TEST_F(CancelTest, RetrySucceedsAfterTransientFailures) {
  int calls = 0;
  Status s = runtime::RetryWithBackoff(
      runtime::RetryPolicy{},
      [&] {
        ++calls;
        return calls < 3 ? Status::Internal("transient") : Status::OK();
      },
      "unit op");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST_F(CancelTest, RetryGivesUpAfterMaxAttempts) {
  int calls = 0;
  runtime::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 1;
  Status s = runtime::RetryWithBackoff(
      policy,
      [&] {
        ++calls;
        return Status::Internal("still down");
      },
      "unit op");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 3);
}

TEST_F(CancelTest, RetryDoesNotRetryNonInternalOrAbortCodes) {
  int calls = 0;
  Status s = runtime::RetryWithBackoff(
      runtime::RetryPolicy{},
      [&] {
        ++calls;
        return Status::InvalidArgument("caller bug");
      },
      "unit op");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);

  calls = 0;
  s = runtime::RetryWithBackoff(
      runtime::RetryPolicy{},
      [&] {
        ++calls;
        return Status::Cancelled("stop");
      },
      "unit op");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);
}

TEST_F(CancelTest, RetryNeverRetriesInjectedFaults) {
  // The durability tests arm "fail the Nth fsync" and assert the failure
  // surfaces; a retry would absorb the injection and break their contract.
  testing::FaultInjector::Global().Arm("retry.unit.site", 1,
                                       testing::FaultMode::kError);
  int calls = 0;
  Status s = runtime::RetryWithBackoff(
      runtime::RetryPolicy{},
      [&] {
        ++calls;
        return testing::FaultPoint("retry.unit.site");
      },
      "unit op");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
}

TEST_F(CancelTest, RetryStopsBackingOffWhenContextCancelled) {
  runtime::OpContext ctx;
  ctx.token = runtime::CancelToken::Create();
  ctx.token.Cancel();
  runtime::ScopedOpContext scope(ctx);
  int calls = 0;
  Status s = runtime::RetryWithBackoff(
      runtime::RetryPolicy{},
      [&] {
        ++calls;
        return Status::Internal("transient");
      },
      "unit op");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);  // cancelled between attempt 1 and 2
}

// --- Figure 9 row accounting -------------------------------------------------

/// The paper-example warehouse with {a1, a2}, synchronized at 2000/6/5 so
/// its rows sit in several subcubes, and a query NOW five months later that
/// leaves it out of sync (Figure 9).
std::unique_ptr<SubcubeManager> StaleWarehouse(const IspExample& ex) {
  ReductionSpecification spec;
  spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
  spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
  auto m = SubcubeManager::Create(
      "Click", ex.mo->dimensions(),
      {ex.mo->measure_type(0), ex.mo->measure_type(1), ex.mo->measure_type(2),
       ex.mo->measure_type(3)},
      std::move(spec));
  if (!m.ok()) return nullptr;
  auto mgr = std::make_unique<SubcubeManager>(m.take());
  if (!mgr->InsertBottomFacts(*ex.mo).ok()) return nullptr;
  if (!mgr->Synchronize(DaysFromCivil({2000, 6, 5})).ok()) return nullptr;
  return mgr;
}

// An unsynchronized query charges every stored row to the row budget exactly
// once — its placement plan reads them all, and each subcube is charged its
// own rows — so a budget of the stored total passes and one row less aborts
// with kResourceExhausted before any cache entry or epoch moves.
TEST_F(CancelTest, Figure9QueryChargesEveryStoredRowOnce) {
  IspExample ex = MakeIspExample();
  auto pred = ParsePredicate(*ex.mo, "URL.domain_grp = .com").take();
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});
  for (bool parallel : {false, true}) {
    exec::ThreadPool::ResetGlobal(parallel ? 4 : 1);
    std::unique_ptr<SubcubeManager> mgr = StaleWarehouse(ex);
    ASSERT_NE(mgr, nullptr);
    int64_t total = 0;
    size_t cubes_with_rows = 0;
    for (size_t i = 0; i < mgr->num_subcubes(); ++i) {
      total += static_cast<int64_t>(mgr->subcube(i).table.num_rows());
      cubes_with_rows += mgr->subcube(i).table.num_rows() > 0 ? 1 : 0;
    }
    ASSERT_GT(cubes_with_rows, 1u) << "the warehouse must span subcubes";

    const cache::WarehouseCache::Stats before =
        mgr->warehouse_cache().GetStats();
    {
      runtime::OpContext ctx;
      ctx.SetMaxRows(total - 1);
      runtime::ScopedOpContext scope(ctx);
      auto r = mgr->Query(pred.get(), &gran, now,
                          /*assume_synchronized=*/false, parallel);
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
    }
    // Compiled programs are retained across aborts by design (cache.h);
    // everything else is as the query found it.
    const cache::WarehouseCache::Stats after =
        mgr->warehouse_cache().GetStats();
    EXPECT_EQ(after.epoch, before.epoch);
    EXPECT_EQ(after.query_entries, before.query_entries);
    EXPECT_EQ(after.scanspec_entries, before.scanspec_entries);
    EXPECT_EQ(after.bytes - after.program_bytes,
              before.bytes - before.program_bytes);

    runtime::OpContext ctx;
    ctx.SetMaxRows(total);
    runtime::ScopedOpContext scope(ctx);
    auto r = mgr->Query(pred.get(), &gran, now,
                        /*assume_synchronized=*/false, parallel);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(ctx.rows_charged(), total) << "parallel=" << parallel;
  }
  exec::ThreadPool::ResetGlobal(2);
}

// A synchronized query with a predicate compiles its ScanSpec before the
// fan-out; an abort during the fan-out must not leave it cached (the
// clean-abort contract covers the ScanSpec cache, docs/ROBUSTNESS.md), and
// the completed rerun caches it.
TEST_F(CancelTest, AbortedQueryLeavesScanSpecCacheUntouched) {
  IspExample ex = MakeIspExample();
  std::unique_ptr<SubcubeManager> mgr = StaleWarehouse(ex);
  ASSERT_NE(mgr, nullptr);
  auto pred = ParsePredicate(*ex.mo, "URL.domain_grp = .com").take();
  const int64_t now = DaysFromCivil({2000, 6, 5});
  const size_t before = mgr->warehouse_cache().GetStats().scanspec_entries;
  {
    runtime::OpContext ctx;
    ctx.SetMaxRows(1);
    runtime::ScopedOpContext scope(ctx);
    auto r = mgr->Query(pred.get(), nullptr, now, /*assume_synchronized=*/true);
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(mgr->warehouse_cache().GetStats().scanspec_entries, before);
  ASSERT_TRUE(
      mgr->Query(pred.get(), nullptr, now, /*assume_synchronized=*/true).ok());
  EXPECT_EQ(mgr->warehouse_cache().GetStats().scanspec_entries, before + 1);
}

// --- Oversubscription torture ----------------------------------------------

class GovernorTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::ThreadPool::ResetGlobal(4);
    IspExample ex = MakeIspExample();
    ReductionSpecification spec;
    spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
    spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
    auto m = SubcubeManager::Create(
        "Click", ex.mo->dimensions(),
        {ex.mo->measure_type(0), ex.mo->measure_type(1),
         ex.mo->measure_type(2), ex.mo->measure_type(3)},
        std::move(spec));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    mgr_ = std::make_unique<SubcubeManager>(m.take());
    ASSERT_TRUE(mgr_->InsertBottomFacts(*ex.mo).ok());
  }
  void TearDown() override {
    runtime::ResourceGovernor::Global().Configure(0, 100);
  }
  std::unique_ptr<SubcubeManager> mgr_;
};

TEST_F(GovernorTortureTest, OversubscribedQueriesShedOrSucceedNeverWedge) {
  // 2x oversubscription: 8 querying threads against a 4-slot gate with a
  // short wait. Every attempt must finish — admitted queries return rows,
  // shed queries return kResourceExhausted — and the slot count must drain
  // back to zero. (ISSUE acceptance: sheds, not deadlocks.)
  auto& gov = runtime::ResourceGovernor::Global();
  gov.Configure(4, 5);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;

  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto r = mgr_->Query(nullptr, nullptr, 0, true, /*parallel=*/true);
        if (r.ok()) {
          ok.fetch_add(1);
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kThreads * kQueriesPerThread);
  EXPECT_GT(ok.load(), 0) << "the gate admitted nothing";
  EXPECT_EQ(gov.inflight(), 0) << "slots leaked";
}

}  // namespace
}  // namespace dwred
