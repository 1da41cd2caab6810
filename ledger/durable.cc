// reduce_durable: the paper's gradual Definition 2 reduction with the
// journal on, embedded. Retail sales arrive month by month into a plain-mode
// DurableWarehouse; each month is a journaled InsertFacts, a journaled
// ReducePass at month end, a Checkpoint every kCheckpointEvery months, and
// the analyst's dashboard read over the reduced warehouse. After 48 months
// the directory is reopened, which replays the journal tail since the last
// checkpoint: that Open is recover_s. Whole cycles repeat on a fresh
// directory while the window is open, so a run may overrun it by up to one
// cycle. The output checks and the directory cleanup inside the loop are
// timed apart and kept off the window.
//
// Flush policy: the library's own — fsync per intent record and per commit
// record; checkpoints write a temporary file, fsync it and rename it.

#include <filesystem>
#include <numeric>

#include "chrono/civil.h"
#include "common/rng.h"
#include "io/recovery.h"
#include "io/warehouse_io.h"
#include "ledger.h"
#include "query/operators.h"
#include "reduce/semantics.h"
#include "spec/parser.h"
#include "workload/retail.h"

namespace ledger {
namespace {

using dwred::MultidimensionalObject;

// 1999-01 .. 2002-12: the year tier first applies in month 37, so a full
// cycle exercises every tier.
constexpr int kMonths = 48;
// 48 = 9 * 5 + 3: every cycle ends with three months of journal to replay.
constexpr int kCheckpointEvery = 5;

struct DashboardQuery {
  std::shared_ptr<dwred::PredExpr> pred;  ///< null: aggregate everything
  std::vector<dwred::CategoryId> gran;
};

struct DurableSetup {
  dwred::RetailWorkload w;
  dwred::ReductionSpecification spec;
  std::vector<MultidimensionalObject> months;
  std::vector<std::vector<int64_t>> month_sums;
  std::vector<int64_t> month_end;  ///< NOW of each month's reduce pass
  std::vector<DashboardQuery> dashboard;
  size_t facts = 0;
};

DurableSetup BuildDurable(const Options& opt, size_t per_month) {
  DurableSetup s;
  dwred::RetailConfig cfg;
  cfg.seed = kRetailSeed;
  cfg.start = {1999, 1, 1};
  cfg.span_days = static_cast<int>(dwred::DaysFromCivil({2003, 1, 1}) -
                                   dwred::DaysFromCivil(cfg.start));
  cfg.num_sales = per_month * kMonths;
  cfg.preregister_days = true;
  s.w = dwred::MakeRetail(cfg);
  const MultidimensionalObject& mo = *s.w.mo;
  s.spec = ParsePolicy(mo, kRetailPolicy);
  s.facts = mo.num_facts();

  std::vector<std::vector<dwred::FactId>> by_month(kMonths);
  const dwred::Dimension& time = *s.w.time_dim;
  for (dwred::FactId f = 0; f < mo.num_facts(); ++f) {
    const dwred::CivilDate c =
        dwred::CivilFromDays(time.granule(mo.Coord(f, 0)).index);
    by_month[(c.year - 1999) * 12 + c.month - 1].push_back(f);
  }
  // The seed orders each month's arrivals; the sales themselves are fixed.
  dwred::SplitMix64 rng(opt.seed);
  for (int m = 0; m < kMonths; ++m) {
    std::vector<dwred::FactId>& ids = by_month[m];
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.Below(i)]);
    }
    s.months.push_back(CopyFacts(mo, ids));
    const int year = 1999 + m / 12, month = m % 12 + 1;
    s.month_end.push_back(dwred::DaysFromCivil(
        {year, month, dwred::DaysInMonth(year, month)}));
  }

  // The dashboard: recent sales per category and per region, plus a total
  // over everything whose SUMs the run checks against what was inserted.
  const char* grans[] = {"Time.quarter, Product.category, Store.region",
                         "Time.year, Product.category, Store.region"};
  for (int k = 0; k < 7; ++k) {
    const std::string text =
        k < 4 ? "NOW - 12 months <= Time.month AND Product.category = category" +
                    std::to_string(k)
              : "NOW - 24 months <= Time.month AND Store.region = region" +
                    std::to_string(k - 4);
    s.dashboard.push_back(
        {Must(dwred::ParsePredicate(mo, text), "dashboard predicate"),
         Must(dwred::ParseGranularityList(mo, grans[k % 2]), "granularity")});
  }
  s.dashboard.push_back(
      {nullptr, Must(dwred::ParseGranularityList(mo, grans[1]), "granularity")});
  return s;
}

/// One dashboard read: σ then α over the plain (reduced) MO.
dwred::Result<MultidimensionalObject> RunDashboard(
    const MultidimensionalObject& mo, const DashboardQuery& q,
    int64_t now_day) {
  if (q.pred == nullptr) return dwred::AggregateFormation(mo, q.gran);
  DWRED_ASSIGN_OR_RETURN(dwred::SelectionResult sel,
                         dwred::Select(mo, *q.pred, now_day));
  return dwred::AggregateFormation(sel.mo, q.gran);
}

struct MonthTrace {
  uint64_t request = 0;
  int64_t reduce_span = -1;
  double reduce_s = 0;
};

}  // namespace

void RunReduceDurable(const Options& opt, Report* rep) {
  const size_t per_month = opt.toy ? 300 : 2500;
  DurableSetup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = DurableSetup();
    const double t0 = Now();
    s = BuildDurable(opt, per_month);
    rep->setup_s.Add(Now() - t0);
  }
  for (const MultidimensionalObject& batch : s.months) {
    s.month_sums.push_back(MeasureSums(batch));
  }
  rep->Row("facts_per_month", static_cast<double>(per_month));
  rep->Row("months_per_cycle", kMonths);
  rep->Row("checkpoint_every_months", kCheckpointEvery);
  rep->Row("dashboard_queries_per_month",
           static_cast<double>(s.dashboard.size()));
  rep->Row("flush_policy",
           "fsync per intent and per commit record; checkpoint via fsynced "
           "temporary file and rename");

  const MultidimensionalObject& proto = *s.w.mo;
  SpanLog& spans = rep->spans;
  uint64_t request = 0;
  std::vector<MonthTrace> first_cycle;
  std::string first_cycle_final;
  Samples stored_ratio;
  double bytes_per_row = 0;
  size_t reduce_in = 0, reduce_out = 0, durable_ops = 0;
  int cycles = 0;

  auto fail_op = [&](Samples* lat, const dwred::Status& st) {
    ++rep->failed;
    if (lat != nullptr) lat->AddFailed();
    std::fprintf(stderr, "durable op failed: %s\n", st.ToString().c_str());
  };

  // Time the loop spends on the benchmark's own checks and cleanup: kept off
  // the window, so the rates time only the warehouse's work.
  double check_s = 0;
  auto off_clock = [&](auto&& work) {
    const double t0 = Now();
    work();
    check_s += Now() - t0;
  };

  RegistryDelta delta;
  const double start = Now();
  const double end = start + opt.seconds;
  bool stop = false;
  while (Now() - check_s < end && !stop) {
    const std::string dir =
        opt.work_dir + "/durable-" + std::to_string(cycles);
    off_clock([&] { std::filesystem::remove_all(dir); });
    auto dw = Must(dwred::DurableWarehouse::Create(
                       dir,
                       std::make_unique<MultidimensionalObject>(
                           proto.fact_type(), proto.dimensions(),
                           proto.measure_types()),
                       s.spec),
                   "create durable warehouse");
    std::vector<int64_t> expect(proto.num_measures(), 0);
    size_t inserted = 0;
    int month = 0;
    // A cycle always runs to its end: cutting the last one short would
    // change the mix of warehouse sizes the window saw from run to run.
    for (; month < kMonths && !stop; ++month) {
      const int64_t now_day = s.month_end[month];
      const uint64_t id = ++request;

      ++rep->attempted;
      double t0 = Now();
      dwred::Status st = dw->InsertFacts(s.months[month]);
      double t1 = Now();
      if (!st.ok()) {
        fail_op(&rep->insert_ms, st);
        stop = true;
        break;
      }
      rep->insert_ms.Add((t1 - t0) * 1e3);
      spans.Add("durable.insert", id, -1, t0, t1);
      rep->OpDone();
      ++durable_ops;
      rep->window_facts += s.months[month].num_facts();
      inserted += s.months[month].num_facts();
      AddSums(&expect, s.month_sums[month]);

      ++rep->attempted;
      dwred::ReduceStats stats;
      t0 = Now();
      st = dw->ReducePass(now_day, &stats);
      t1 = Now();
      if (!st.ok()) {
        fail_op(&rep->reduce_ms, st);
        stop = true;
        break;
      }
      rep->reduce_ms.Add((t1 - t0) * 1e3);
      const int64_t rspan = spans.Add("durable.reduce", id, -1, t0, t1);
      if (cycles == 0) first_cycle.push_back({id, rspan, t1 - t0});
      rep->OpDone();
      ++durable_ops;
      reduce_in += stats.input_facts;
      reduce_out += stats.output_facts;
      off_clock([&] {
        rep->Check("durable.sum_conserved", MeasureSums(dw->mo()) == expect,
                   "SUM totals changed across a reduce pass");
      });

      if ((month + 1) % kCheckpointEvery == 0) {
        ++rep->attempted;
        t0 = Now();
        st = dw->Checkpoint();
        t1 = Now();
        if (!st.ok()) {
          fail_op(nullptr, st);
          stop = true;
          break;
        }
        spans.Add("io.checkpoint", id, -1, t0, t1);
        rep->OpDone();
        ++durable_ops;
      }

      for (const DashboardQuery& q : s.dashboard) {
        ++rep->attempted;
        t0 = Now();
        auto answer = RunDashboard(dw->mo(), q, now_day);
        t1 = Now();
        if (!answer.ok()) {
          fail_op(&rep->query_ms, answer.status());
          continue;
        }
        rep->query_ms.Add((t1 - t0) * 1e3);
        spans.Add("durable.query", id, -1, t0, t1);
        rep->QueryDone();
        if (q.pred == nullptr) {
          off_clock([&] {
            rep->Check("durable.dashboard_total",
                       MeasureSums(answer.value()) == expect,
                       "dashboard total differs from the inserted SUMs");
          });
        }
      }
    }
    const double bytes = static_cast<double>(dw->mo().FactBytes());
    if (month == kMonths) stored_ratio.Add(bytes / inserted);
    if (dw->mo().num_facts() > 0) bytes_per_row = bytes / dw->mo().num_facts();

    // Close, then reopen: recovery replays the journal tail.
    std::string before;
    off_clock([&] { before = dwred::WriteFactCsv(dw->mo()); });
    if (cycles == 0) first_cycle_final = before;
    dw.reset();
    {
      ++rep->attempted;
      dwred::RecoveryStats rstats;
      const double t0 = Now();
      auto reopened = dwred::DurableWarehouse::Open(dir, &rstats);
      const double t1 = Now();
      if (!reopened.ok()) {
        fail_op(&rep->recover_s, reopened.status());
      } else {
        rep->recover_s.Add(t1 - t0);
        rep->OpDone();
        off_clock([&] {
          rep->Check("durable.reopen_matches",
                     dwred::WriteFactCsv(reopened.value()->mo()) == before,
                     "reopened warehouse differs from the state before close");
        });
        rep->Check("durable.journal_replayed",
                   month % kCheckpointEvery == 0 || rstats.ops_replayed > 0,
                   "recovery replayed no journal tail");
      }
    }
    off_clock([&] { std::filesystem::remove_all(dir); });
    ++cycles;
  }
  rep->window_s = Now() - start - check_s;
  delta.Stop();
  rep->Row("cycles", cycles);

  // Plain Definition 2 passes over the same month sequence: the journaled
  // pass minus the plain one is the journal's cost.
  if (spans.enabled()) {
    MultidimensionalObject mo(proto.fact_type(), proto.dimensions(),
                              proto.measure_types());
    Samples overhead_us;
    for (size_t m = 0; m < first_cycle.size(); ++m) {
      const MultidimensionalObject& batch = s.months[m];
      std::vector<dwred::FactId> all(batch.num_facts());
      std::iota(all.begin(), all.end(), dwred::FactId{0});
      AppendFacts(batch, all, &mo);
      const double t0 = Now();
      auto reduced = dwred::Reduce(mo, s.spec, s.month_end[m]);
      const double t1 = Now();
      if (!reduced.ok()) {
        rep->Check("durable.plain_replay", false, reduced.status().ToString());
        break;
      }
      spans.Add("reduce.pass", first_cycle[m].request,
                first_cycle[m].reduce_span, t0, t1);
      overhead_us.Add((first_cycle[m].reduce_s - (t1 - t0)) * 1e6);
      mo = std::move(reduced.value());
    }
    rep->Check("durable.plain_replay",
               dwred::WriteFactCsv(mo) == first_cycle_final,
               "plain Definition 2 replay differs from the journaled passes");
    rep->Layer("io.journal_overhead_us", overhead_us.Median(), "us");
  } else {
    rep->Layer("io.journal_overhead_us", 0, "us");
  }

  rep->stored_bytes_per_input_fact = stored_ratio.Median();
  rep->Layer("io.journal_bytes_per_fact",
             rep->window_facts
                 ? delta["dwred_journal_bytes_appended"] / rep->window_facts
                 : 0,
             "bytes");
  rep->Layer("io.fsync_s",
             durable_ops ? delta["dwred_io_fsync_seconds_sum"] / durable_ops
                         : 0,
             "s");
  rep->Layer("reduce.facts_out_per_in",
             reduce_in ? static_cast<double>(reduce_out) / reduce_in : 0,
             "ratio");
  rep->Layer("storage.bytes_per_row", bytes_per_row, "bytes");
  rep->EngineLayers(delta, static_cast<double>(rep->queries_ok),
                    static_cast<double>(rep->ops_ok));
}

}  // namespace ledger
