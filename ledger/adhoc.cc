// query_adhoc: cold ad-hoc analysis, embedded. Every query text is unique
// (random day window, random member predicate, one of four lattice
// granularities), so the 256-entry result cache never hits and keeps
// evicting; the work falls on scan, storage, vm, query, the subcube combine
// and the exec fan-out. One query in four runs at NOW one month past the last
// synchronization through the unsynchronized Figure 9 rewrite; the rest run
// synchronized. (An even split would put the median exactly between the two
// latency modes, where it jumps between them from run to run.)

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "chrono/civil.h"
#include "common/rng.h"
#include "ledger.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "workload/retail.h"

namespace ledger {
namespace {

using dwred::MultidimensionalObject;
using dwred::SubcubeManager;

const char* const kGranularities[] = {
    "Time.month, Product.category, Store.region",
    "Time.quarter, Product.brand, Store.region",
    "Time.year, Product.category, Store.city",
    "Time.month, Product.brand, Store.city",
};

constexpr size_t kFig9Every = 4;  // query i runs through Figure 9 when i%4==3
constexpr size_t kReplaySamples = 256;

struct AdhocSetup {
  dwred::RetailWorkload w;
  dwred::ReductionSpecification spec;
  std::unique_ptr<MultidimensionalObject> sorted;  ///< the sales in load order
  std::unique_ptr<SubcubeManager> live;       ///< synchronized at sync_day
  std::unique_ptr<SubcubeManager> reference;  ///< synchronized at fig9_day
  int64_t sync_day = 0, fig9_day = 0;
  size_t facts = 0;
};

std::unique_ptr<SubcubeManager> LoadSorted(const AdhocSetup& s) {
  const MultidimensionalObject& mo = *s.w.mo;
  auto mgr = std::make_unique<SubcubeManager>(Must(
      SubcubeManager::Create("Sale", mo.dimensions(),
                             std::vector<dwred::MeasureType>(mo.measure_types()),
                             s.spec),
      "create subcube warehouse"));
  Must(mgr->InsertBottomFacts(*s.sorted), "insert sales");
  return mgr;
}

/// Generates the sales and loads the live warehouse: the timed setup.
AdhocSetup BuildAdhoc(size_t sales) {
  AdhocSetup s;
  dwred::RetailConfig cfg;
  cfg.seed = kRetailSeed;
  cfg.num_sales = sales;
  cfg.start = {1999, 1, 1};
  cfg.span_days = 3 * 365;
  cfg.preregister_days = true;
  s.w = dwred::MakeRetail(cfg);
  const MultidimensionalObject& mo = *s.w.mo;
  s.spec = ParsePolicy(mo, kRetailPolicy);
  s.facts = mo.num_facts();

  // Load in day order, the layout an incrementally loaded warehouse has:
  // preregistered day ids ascend with the calendar, so segment zone maps
  // get real time locality.
  std::vector<dwred::FactId> order(mo.num_facts());
  std::iota(order.begin(), order.end(), dwred::FactId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](dwred::FactId a, dwred::FactId b) {
                     return mo.Coord(a, 0) < mo.Coord(b, 0);
                   });
  s.sorted = std::make_unique<MultidimensionalObject>(CopyFacts(mo, order));

  s.sync_day = dwred::DaysFromCivil({2002, 1, 1});
  s.fig9_day = dwred::DaysFromCivil({2002, 2, 1});
  s.live = LoadSorted(s);
  Must(s.live->Synchronize(s.sync_day), "synchronize");
  return s;
}

/// Builds the synchronized copy the Figure 9 answers are checked against,
/// outside the timed setup, and checks SUM conservation on both copies.
void BuildReference(AdhocSetup* s, Report* rep) {
  const std::vector<int64_t> sums = MeasureSums(*s->sorted);
  rep->Check("setup.sum_conserved", MeasureSums(*s->live) == sums,
             "SUM totals changed across a synchronization");
  s->reference = LoadSorted(*s);
  for (int64_t day : {s->sync_day, s->fig9_day}) {
    Must(s->reference->Synchronize(day), "synchronize");
    rep->Check("setup.sum_conserved", MeasureSums(*s->reference) == sums,
               "SUM totals changed across a synchronization");
  }
}

struct AdhocQuery {
  std::string pred, gran;
  bool fig9 = false;
};

/// The seeded stream of unique ad-hoc queries. The query shape cycles
/// through every combination of Figure 9 slot, granularity, member kind and
/// window length (period 256); the seed picks the window start and the
/// member, so every seed runs the same mix of shapes.
class QueryStream {
 public:
  explicit QueryStream(uint64_t seed) : rng_(seed ^ 0xad0cull) {}

  AdhocQuery Next() {
    static const int kWindowDays[] = {30, 91, 182, 365};
    const uint64_t i = count_++;
    AdhocQuery q;
    q.fig9 = i % kFig9Every == kFig9Every - 1;
    q.gran = kGranularities[(i / 4) % 4];
    const uint64_t kind = (i / 16) % 4;
    const int length = kWindowDays[(i / 64) % 4];
    const int64_t first = dwred::DaysFromCivil({1999, 1, 1});
    const int64_t last = dwred::DaysFromCivil({2001, 12, 31});
    do {
      const int64_t d0 = rng_.Range(first, last - length);
      std::string member;
      switch (kind) {
        case 0:
          member = "Product.category = category" + std::to_string(rng_.Below(8));
          break;
        case 1:
          member = "Store.region = region" + std::to_string(rng_.Below(4));
          break;
        case 2:
          member = "Product.brand = brand" + std::to_string(rng_.Below(8)) +
                   "_" + std::to_string(rng_.Below(5));
          break;
        default:
          member = "Store.city = city" + std::to_string(rng_.Below(4)) + "_" +
                   std::to_string(rng_.Below(5));
          break;
      }
      q.pred = Date(d0) + " <= Time.day <= " + Date(d0 + length) + " AND " +
               member;
    } while (!seen_.insert(q.pred + "|" + q.gran + (q.fig9 ? "|9" : "")).second);
    return q;
  }

 private:
  static std::string Date(int64_t day) {
    const dwred::CivilDate c = dwred::CivilFromDays(day);
    return std::to_string(c.year) + "/" + std::to_string(c.month) + "/" +
           std::to_string(c.day);
  }

  dwred::SplitMix64 rng_;
  uint64_t count_ = 0;
  std::unordered_set<std::string> seen_;
};

struct Sampled {
  AdhocQuery q;
  uint64_t request = 0;
  int64_t span = -1;
  double query_s = 0;
  /// The Figure 9 answer, kept for the check (checked samples only).
  std::shared_ptr<const MultidimensionalObject> answer;
};

}  // namespace

void RunQueryAdhoc(const Options& opt, Report* rep) {
  const size_t sales = opt.toy ? 20000 : 300000;
  AdhocSetup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = AdhocSetup();
    const double t0 = Now();
    s = BuildAdhoc(sales);
    rep->setup_s.Add(Now() - t0);
  }
  BuildReference(&s, rep);
  rep->Row("facts_setup", static_cast<double>(s.facts));
  rep->Row("span_years", 3);
  rep->Row("fig9_share", 1.0 / kFig9Every);
  rep->Row("result_cache_entries",
           static_cast<double>(dwred::cache::WarehouseCache::kDefaultMaxEntries));

  QueryStream stream(opt.seed);
  dwred::SplitMix64 sample_rng(opt.seed ^ 0x5a3bull);
  auto& hits = dwred::obs::MetricsRegistry::Global().GetCounter(
      "dwred_cache_query_hits");
  SpanLog& spans = rep->spans;
  std::vector<Sampled> checked, replay;
  uint64_t seen = 0;

  RegistryDelta delta;
  const double start = Now();
  const double end = start + opt.seconds;
  while (Now() < end) {
    const AdhocQuery q = stream.Next();
    const uint64_t id = ++seen;
    const int64_t now = q.fig9 ? s.fig9_day : s.sync_day;
    ++rep->attempted;
    const double t0 = Now();
    auto pred = dwred::ParsePredicate(s.live->context(), q.pred);
    auto gran = dwred::ParseGranularityList(s.live->context(), q.gran);
    const double t1 = Now();
    if (!pred.ok() || !gran.ok()) {
      ++rep->failed;
      rep->query_ms.AddFailed();
      continue;
    }
    const uint64_t hits0 = hits.Value();
    const double t2 = Now();
    auto answer = s.live->Query(pred.value().get(), &gran.value(), now,
                                /*assume_synchronized=*/!q.fig9,
                                /*parallel=*/true);
    const double t3 = Now();
    if (!answer.ok()) {
      ++rep->failed;
      rep->query_ms.AddFailed();
      continue;
    }
    rep->query_ms.Add((t3 - t2) * 1e3);
    rep->QueryDone();
    const int64_t root = spans.Add("adhoc.request", id, -1, t0, t3);
    spans.Add("spec.parse", id, root, t0, t1);
    const int64_t qspan =
        spans.Add(hits.Value() > hits0 ? "subcube.query_hit"
                                       : "subcube.query_miss",
                  id, root, t2, t3);
    Sampled smp{q, id, qspan, t3 - t2, nullptr};
    if (q.fig9 && sample_rng.Below(4) == 0) {
      // Rendered after the window, so checking costs the loop nothing.
      smp.answer = std::make_shared<const MultidimensionalObject>(
          std::move(answer.value()));
      checked.push_back(smp);
      smp.answer.reset();
    }
    if (replay.size() < kReplaySamples) {
      replay.push_back(smp);
    } else {
      const uint64_t slot = sample_rng.Below(id);
      if (slot < kReplaySamples) replay[slot] = smp;
    }
  }
  rep->window_s = Now() - start;
  delta.Stop();
  rep->Row("queries_unique", static_cast<double>(seen));

  // Figure 9 answers must equal the same query on the synchronized copy.
  for (const Sampled& smp : checked) {
    auto pred = dwred::ParsePredicate(s.reference->context(), smp.q.pred);
    auto gran = dwred::ParseGranularityList(s.reference->context(), smp.q.gran);
    auto ref = s.reference->Query(pred.value().get(), &gran.value(), s.fig9_day,
                                  /*assume_synchronized=*/true,
                                  /*parallel=*/true);
    rep->Check("adhoc.fig9_equals_synchronized",
               ref.ok() && dwred::net::RenderResult(ref.value()) ==
                               dwred::net::RenderResult(*smp.answer),
               "Figure 9 answer differs from the synchronized copy: " +
                   smp.q.pred + " / " + smp.q.gran);
  }
  rep->Check("adhoc.fig9_sampled", !checked.empty(),
             "no Figure 9 answer was sampled");
  rep->Row("fig9_answers_checked", static_cast<double>(checked.size()));

  // Per-cube subresults on the same queries; the combine is the rest.
  Samples combine_us;
  for (const Sampled& smp : replay) {
    auto pred = dwred::ParsePredicate(s.live->context(), smp.q.pred);
    auto gran = dwred::ParseGranularityList(s.live->context(), smp.q.gran);
    const int64_t now = smp.q.fig9 ? s.fig9_day : s.sync_day;
    const double t0 = Now();
    auto sub = s.live->QuerySubresults(pred.value().get(), &gran.value(), now,
                                       !smp.q.fig9, /*parallel=*/true);
    const double t1 = Now();
    rep->Check("adhoc.subresults", sub.ok(), "QuerySubresults failed");
    spans.Add("subcube.subresults", smp.request, smp.span, t0, t1);
    combine_us.Add(std::max(0.0, smp.query_s - (t1 - t0)) * 1e6);
  }
  rep->Layer("subcube.combine_us", combine_us.Median(), "us");

  rep->stored_bytes_per_input_fact =
      rep->StorageLayers(*s.live) / static_cast<double>(s.facts);
  rep->EngineLayers(delta, static_cast<double>(rep->queries_ok),
                    static_cast<double>(rep->ops_ok));
  rep->Check("adhoc.sum_conserved",
             MeasureSums(*s.live) == MeasureSums(*s.reference),
             "live and synchronized copies hold different SUM totals");
}

}  // namespace ledger
