// dwredd serving-core tests (src/net/server.h, docs/SERVER.md), driven over
// real loopback sockets against an in-process Server:
//
//   * wire-vs-embedded differential: the bytes a query returns over the wire
//     equal RenderResult() of the embedded Query, and a workload driven over
//     the wire leaves a warehouse whose canonical CRC is byte-identical to
//     the same workload run embedded — across pool sizes {1, 8} and cache
//     on/off;
//   * the cancel.net.* poll-site sweep: an abort injected at each site (with
//     and without the client disconnecting instead of reading the response)
//     leaves the epoch unbumped and the snapshot CRC unchanged;
//   * concurrency: parallel sessions issuing pipelined queries all read
//     byte-identical responses while mutating commands serialize;
//   * robustness: row budgets map to ResourceExhausted over the wire,
//     corrupt/oversized frames get one error response then a close, the
//     connection cap sheds with ResourceExhausted, and a mid-command client
//     disconnect never corrupts the warehouse;
//   * instrumentation: one served query is one trace tree rooted at
//     net.query, one slow-log entry, and one net latency sample.

#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "io/warehouse_io.h"
#include "mdm/paper_example.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "paper_actions.h"
#include "reduce/dynamics.h"
#include "spec/parser.h"
#include "testing/fault.h"

namespace dwred::net {
namespace {

const char* kInsertCsv =
    "Time:category,Time:value,URL:category,URL:value,"
    "Number_of,Dwell_time,Delivery_time,Datasize\n"
    "day,2000/12/1,url,www.cnn.com,1,100,2,40\n"
    "day,2000/12/2,url,www.cc.gatech.edu,1,200,3,50\n";

const char* kSpecText =
    "a1: a[Time.month, URL.domain] s[URL.domain_grp = .com AND "
    "NOW - 12 months <= Time.month <= NOW - 6 months]\n"
    "a2: a[Time.quarter, URL.domain] s[URL.domain_grp = .com AND "
    "Time.quarter <= NOW - 4 quarters]\n";

/// A fresh paper-example warehouse with {a1, a2}, loaded and synchronized —
/// built identically for the served and the embedded twin.
std::unique_ptr<SubcubeManager> BuildWarehouse(int64_t now_day) {
  IspExample ex = MakeIspExample();
  ReductionSpecification spec;
  spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
  spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
  auto m = SubcubeManager::Create(
      ex.mo->fact_type(), ex.mo->dimensions(),
      std::vector<MeasureType>(ex.mo->measure_types()), spec);
  if (!m.ok()) return nullptr;
  auto mgr = std::make_unique<SubcubeManager>(m.take());
  if (!mgr->InsertBottomFacts(*ex.mo).ok()) return nullptr;
  if (!mgr->Synchronize(now_day).ok()) return nullptr;
  return mgr;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    now_day_ = DaysFromCivil({2000, 11, 5});
    mgr_ = BuildWarehouse(now_day_);
    ASSERT_NE(mgr_, nullptr);
    server_ = std::make_unique<Server>(ServerConfig{}, mgr_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    testing::FaultInjector::Global().Disarm();
    ::unsetenv("DWRED_CACHE_DISABLED");
    if (server_) server_->Stop();
  }

  Client Connect() {
    auto c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.take();
  }

  Request QueryReq(uint8_t extra_flags = 0) const {
    Request req;
    req.cmd = Command::kQuery;
    req.now_day = now_day_;
    req.a = "URL.domain_grp = .com";
    req.b = "Time.month, URL.domain";
    req.flags = static_cast<uint8_t>(kQuerySynchronized | extra_flags);
    return req;
  }

  /// The embedded evaluation of QueryReq, rendered with the shared renderer.
  std::string EmbeddedQueryBytes(const SubcubeManager& mgr,
                                 bool parallel) const {
    auto pred = ParsePredicate(mgr.context(), "URL.domain_grp = .com");
    auto gran = ParseGranularityList(mgr.context(), "Time.month, URL.domain");
    EXPECT_TRUE(pred.ok() && gran.ok());
    auto r = mgr.Query(pred.value().get(), &gran.value(), now_day_,
                       /*assume_synchronized=*/true, parallel);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return RenderResult(r.value());
  }

  int64_t now_day_ = 0;
  std::unique_ptr<SubcubeManager> mgr_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingPong) {
  Client c = Connect();
  Request req;
  req.cmd = Command::kPing;
  auto resp = c.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
  EXPECT_EQ(resp.value().body, "pong");
}

// The acceptance differential: wire bytes == embedded bytes and the
// warehouse CRC is identical, across pool sizes {1, 8} x cache on/off.
TEST_F(ServerTest, WireQueryMatchesEmbeddedAcrossThreadsAndCache) {
  const uint32_t crc_before = WarehouseCrc(*mgr_);
  std::string reference;
  for (int threads : {1, 8}) {
    exec::ThreadPool::ResetGlobal(threads);
    for (bool cache_off : {false, true}) {
      if (cache_off) {
        ::setenv("DWRED_CACHE_DISABLED", "1", 1);
      } else {
        ::unsetenv("DWRED_CACHE_DISABLED");
      }
      const bool parallel = threads > 1;
      Client c = Connect();
      auto resp =
          c.Call(QueryReq(parallel ? kQueryParallel : uint8_t{0}));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.value().code, StatusCode::kOk) << resp.value().message;
      const std::string embedded = EmbeddedQueryBytes(*mgr_, parallel);
      EXPECT_EQ(resp.value().body, embedded)
          << "threads=" << threads << " cache_off=" << cache_off;
      if (reference.empty()) reference = resp.value().body;
      EXPECT_EQ(resp.value().body, reference)
          << "variant diverged: threads=" << threads
          << " cache_off=" << cache_off;
      EXPECT_EQ(WarehouseCrc(*mgr_), crc_before);
    }
  }
  exec::ThreadPool::ResetGlobal(0);  // back to the env-derived default
}

// A workload driven over the wire must leave the warehouse byte-identical
// to the same workload run embedded: insert, spec change, synchronize.
TEST_F(ServerTest, WireWorkloadCrcEqualsEmbeddedWorkload) {
  std::unique_ptr<SubcubeManager> twin = BuildWarehouse(now_day_);
  ASSERT_NE(twin, nullptr);
  ASSERT_EQ(WarehouseCrc(*mgr_), WarehouseCrc(*twin));

  Client c = Connect();
  // Wire: insert + synchronize.
  Request ins;
  ins.cmd = Command::kInsert;
  ins.a = kInsertCsv;
  auto r1 = c.Call(ins);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1.value().code, StatusCode::kOk) << r1.value().message;
  Request sync;
  sync.cmd = Command::kSynchronize;
  sync.now_day = now_day_ + 60;
  auto r2 = c.Call(sync);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2.value().code, StatusCode::kOk) << r2.value().message;

  // Embedded twin: the same operations, directly.
  {
    const MultidimensionalObject& ctx = twin->context();
    MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                                 ctx.measure_types());
    ASSERT_TRUE(ReadFactCsv(&batch, kInsertCsv).ok());
    ASSERT_TRUE(twin->InsertBottomFacts(batch).ok());
    ASSERT_TRUE(twin->Synchronize(now_day_ + 60).ok());
  }
  EXPECT_EQ(WarehouseCrc(*mgr_), WarehouseCrc(*twin));
}

// An insert decodes its CSV by lookup alone and interns only when a time
// value is new. Both branches land the same facts as the embedded twin: the
// first insert names two days the warehouse has never seen (the decode is
// redone, interning, under the exclusive snapshot lock); the repeat names
// only interned values, grows no dimension, and so leaves the maintained
// answer of the served query to be refreshed rather than recomputed.
TEST_F(ServerTest, InsertInternsOnlyNewTimeValues) {
  std::unique_ptr<SubcubeManager> twin = BuildWarehouse(now_day_);
  ASSERT_NE(twin, nullptr);
  const Dimension& time = *mgr_->context().dimension(0);
  ASSERT_TRUE(time.is_time());
  {
    // The lookup-only decode reports the unknown days and interns nothing.
    const MultidimensionalObject& ctx = mgr_->context();
    MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                                 ctx.measure_types());
    const size_t values = time.num_values();
    bool needs_intern = false;
    ASSERT_TRUE(ReadFactCsv(&batch, kInsertCsv, &needs_intern).ok());
    EXPECT_TRUE(needs_intern);
    EXPECT_EQ(time.num_values(), values);
  }
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& refreshes = registry.GetCounter("dwred_cache_query_refreshes");
  obs::Counter& misses = registry.GetCounter("dwred_cache_query_misses");

  Client c = Connect();
  Request ins;
  ins.cmd = Command::kInsert;
  ins.a = kInsertCsv;
  for (const bool interns : {true, false}) {
    SCOPED_TRACE(interns ? "interning insert" : "lookup-only insert");
    auto warm = c.Call(QueryReq());  // caches the maintained answer
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm.value().code, StatusCode::kOk) << warm.value().message;
    const size_t values = time.num_values();
    auto r = c.Call(ins);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().code, StatusCode::kOk) << r.value().message;
    EXPECT_EQ(time.num_values() > values, interns);
    {
      const MultidimensionalObject& ctx = twin->context();
      MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                                   ctx.measure_types());
      ASSERT_TRUE(ReadFactCsv(&batch, kInsertCsv).ok());
      ASSERT_TRUE(twin->InsertBottomFacts(batch).ok());
    }
    EXPECT_EQ(WarehouseCrc(*mgr_), WarehouseCrc(*twin));

    const uint64_t refreshes0 = refreshes.Value(), misses0 = misses.Value();
    auto q = c.Call(QueryReq());
    ASSERT_TRUE(q.ok());
    ASSERT_EQ(q.value().code, StatusCode::kOk) << q.value().message;
    if (cache::Enabled()) {
      // New values change the extents: the entry is evaluated afresh.
      EXPECT_EQ(refreshes.Value(), refreshes0 + (interns ? 0 : 1));
      EXPECT_EQ(misses.Value(), misses0 + (interns ? 1 : 0));
    }
    EXPECT_EQ(q.value().body, EmbeddedQueryBytes(*twin, /*parallel=*/false));
  }
}

// Spec change over the wire: a valid specification swaps the layout (same
// CRC as the embedded twin); an invalid one is rejected with the parser's
// diagnostic and leaves the epoch unbumped.
TEST_F(ServerTest, SpecChangeWireVsEmbeddedAndRejection) {
  std::unique_ptr<SubcubeManager> twin = BuildWarehouse(now_day_);
  ASSERT_NE(twin, nullptr);

  Client c = Connect();
  Request spec;
  spec.cmd = Command::kSpecChange;
  spec.now_day = now_day_;
  spec.a = kSpecText;
  auto resp = c.Call(spec);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().code, StatusCode::kOk) << resp.value().message;
  EXPECT_NE(resp.value().body.find("specification installed"),
            std::string::npos);

  {
    auto actions = ReadSpecificationText(twin->context(), kSpecText);
    ASSERT_TRUE(actions.ok());
    auto validated = InsertActions(twin->context(), ReductionSpecification{},
                                   actions.take());
    ASSERT_TRUE(validated.ok()) << validated.status().ToString();
    ASSERT_TRUE(
        twin->ChangeSpecification(validated.take(), now_day_).ok());
  }
  EXPECT_EQ(WarehouseCrc(*mgr_), WarehouseCrc(*twin));

  // Rejection: unparseable spec text -> error response, epoch unbumped.
  const uint64_t epoch = mgr_->epoch();
  const uint32_t crc = WarehouseCrc(*mgr_);
  Request bad;
  bad.cmd = Command::kSpecChange;
  bad.now_day = now_day_;
  bad.a = "oops: not an action\n";
  auto rej = c.Call(bad);
  ASSERT_TRUE(rej.ok()) << rej.status().ToString();
  EXPECT_NE(rej.value().code, StatusCode::kOk);
  EXPECT_EQ(mgr_->epoch(), epoch);
  EXPECT_EQ(WarehouseCrc(*mgr_), crc);
}

// EXPLAIN over the wire: the explain flag appends the profile after the
// result bytes; the result prefix stays byte-identical to a plain query.
TEST_F(ServerTest, ExplainOverTheWire) {
  Client c = Connect();
  auto plain = c.Call(QueryReq());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain.value().code, StatusCode::kOk);
  auto explained = c.Call(QueryReq(kQueryExplain));
  ASSERT_TRUE(explained.ok());
  ASSERT_EQ(explained.value().code, StatusCode::kOk);
  ASSERT_GT(explained.value().body.size(), plain.value().body.size());
  EXPECT_EQ(explained.value().body.substr(0, plain.value().body.size()),
            plain.value().body);
  if (obs::ProfilingEnabled()) {
    EXPECT_NE(explained.value().body.find("cache"), std::string::npos);
  }
}

// One served query is one operation tree: net.query is the root, the engine
// query and each subcube's subquery sit under it with its trace id; the
// request over the slow-log threshold leaves exactly one flight-recorder
// entry (the root's, not a second one for the nested engine query); and its
// net latency histogram moves by exactly one sample.
TEST_F(ServerTest, ServedQueryIsOneTraceTreeAndOneSlowlogEntry) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with DWRED_OBS_DISABLED";
  Client c = Connect();
  ::setenv("DWRED_SLOWLOG_MIN_US", "0", 1);
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.ReloadConfigFromEnv();
  fr.Clear();
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "dwred_net_query_seconds", obs::DefaultLatencyBuckets());
  const uint64_t samples = latency.Count();
  obs::TraceBuffer::Global().Enable(1024);

  auto resp = c.Call(QueryReq(kQueryParallel));

  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Global().Snapshot();
  obs::TraceBuffer::Global().Disable();
  std::vector<obs::FlightEntry> entries = fr.LastN();
  ::unsetenv("DWRED_SLOWLOG_MIN_US");
  fr.ReloadConfigFromEnv();
  fr.Clear();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().code, StatusCode::kOk);

  const obs::TraceEvent* root = nullptr;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "net.query") {
      ASSERT_EQ(root, nullptr) << "more than one net.query span";
      root = &ev;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  std::map<uint64_t, const obs::TraceEvent*> by_span;
  for (const obs::TraceEvent& ev : events) by_span[ev.span_id] = &ev;
  size_t queries = 0;
  size_t subqueries = 0;
  for (const obs::TraceEvent& ev : events) {
    EXPECT_EQ(ev.trace_id, root->trace_id) << ev.name;
    if (ev.name == "subcube.query") {
      ++queries;
      EXPECT_EQ(ev.parent_id, root->span_id);
    }
    if (ev.name.rfind("subcube.subquery", 0) == 0) ++subqueries;
    // Every parent chain reaches the net.query root.
    uint64_t cur = ev.span_id;
    for (int hops = 0; cur != root->span_id; ++hops) {
      auto it = by_span.find(cur);
      ASSERT_NE(it, by_span.end()) << "broken chain at " << ev.name;
      ASSERT_LE(hops, 64) << "cycle in span tree";
      cur = it->second->parent_id;
    }
  }
  EXPECT_EQ(queries, 1u);
  EXPECT_EQ(subqueries, mgr_->num_subcubes());

  if (obs::ProfilingEnabled()) {
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].op, "net.query");
    EXPECT_EQ(entries[0].trace_id, root->trace_id);
    // The root's entry carries the engine query's profile.
    EXPECT_NE(entries[0].detail.find(
                  "fan_out=" + std::to_string(mgr_->num_subcubes())),
              std::string::npos)
        << entries[0].detail;
  }
  EXPECT_EQ(latency.Count(), samples + 1);
}

// Concurrent sessions, pipelined windows: every response is byte-identical
// and the warehouse is untouched.
TEST_F(ServerTest, ConcurrentPipelinedClientsReadIdenticalBytes) {
  const uint32_t crc_before = WarehouseCrc(*mgr_);
  const uint64_t epoch_before = mgr_->epoch();
  const std::string expected = EmbeddedQueryBytes(*mgr_, /*parallel=*/false);

  constexpr int kClients = 6;
  constexpr int kWindow = 16;
  constexpr int kWindows = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto conn = Client::Connect("127.0.0.1", server_->port());
      if (!conn.ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      Client c = conn.take();
      std::vector<Request> window(kWindow, QueryReq());
      for (int w = 0; w < kWindows; ++w) {
        if (!c.SendPipelined(window.data(), window.size()).ok()) {
          mismatches.fetch_add(100);
          return;
        }
        for (int i = 0; i < kWindow; ++i) {
          auto resp = c.Recv();
          if (!resp.ok() || resp.value().code != StatusCode::kOk ||
              resp.value().body != expected) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(WarehouseCrc(*mgr_), crc_before);
  EXPECT_EQ(mgr_->epoch(), epoch_before);
}

// One burst of 2,000 pipelined frames in a single write: the session drains
// them in order — a seeded random mix of pings and two different queries,
// so a dropped, repeated or reordered frame shows up as a wrong body — and
// the warehouse is untouched.
TEST_F(ServerTest, PipelinedBurstIsAnsweredInOrder) {
  const uint32_t crc_before = WarehouseCrc(*mgr_);
  Request quarterly = QueryReq();
  quarterly.b = "Time.quarter, URL.domain_grp";
  auto pred = ParsePredicate(mgr_->context(), quarterly.a);
  auto gran = ParseGranularityList(mgr_->context(), quarterly.b);
  ASSERT_TRUE(pred.ok() && gran.ok());
  auto q = mgr_->Query(pred.value().get(), &gran.value(), now_day_,
                       /*assume_synchronized=*/true);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const std::string bodies[] = {
      "pong", EmbeddedQueryBytes(*mgr_, /*parallel=*/false),
      RenderResult(q.value())};
  ASSERT_NE(bodies[1], bodies[2]);

  constexpr size_t kFrames = 2000;
  std::vector<Request> burst(kFrames);
  std::vector<size_t> kind(kFrames);
  std::mt19937 rng(2026);
  for (size_t i = 0; i < kFrames; ++i) {
    kind[i] = rng() % 3;
    if (kind[i] == 1) burst[i] = QueryReq();
    if (kind[i] == 2) burst[i] = quarterly;
  }
  Client c = Connect();
  // The burst is written from its own thread: the server answers while the
  // rest of the burst is still arriving, and reading here keeps both
  // directions' socket buffers draining.
  Status sent;
  std::thread writer([&] { sent = c.SendPipelined(burst.data(), kFrames); });
  size_t wrong = 0;
  for (size_t i = 0; i < kFrames; ++i) {
    auto resp = c.Recv();
    if (!resp.ok()) {
      // A short read means the session closed, which also fails the writer.
      ADD_FAILURE() << "frame " << i << ": " << resp.status().ToString();
      break;
    }
    if (resp.value().code != StatusCode::kOk ||
        resp.value().body != bodies[kind[i]]) {
      ++wrong;
    }
  }
  writer.join();
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(WarehouseCrc(*mgr_), crc_before);
}

// A row budget travels in the request and maps to ResourceExhausted over
// the wire — the same plumbing deadlines use (runtime::OpContext).
TEST_F(ServerTest, RowBudgetMapsToResourceExhausted) {
  Client c = Connect();
  Request req = QueryReq();
  req.max_rows = 1;  // the example warehouse charges more than one row
  auto resp = c.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, StatusCode::kResourceExhausted)
      << resp.value().message;
  // The connection survives an aborted command.
  auto again = c.Call(QueryReq());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().code, StatusCode::kOk);
}

// The cancel.net.* sweep, response half: an abort injected at each poll
// site answers kCancelled and leaves the warehouse byte-identical.
TEST_F(ServerTest, CancelSweepAnswersCancelledAndLeavesBytesIdentical) {
  for (const char* site :
       {"cancel.net.read", "cancel.net.dispatch", "cancel.net.respond"}) {
    const uint64_t epoch = mgr_->epoch();
    const uint32_t crc = WarehouseCrc(*mgr_);
    testing::FaultInjector::Global().Arm(site, 1, testing::FaultMode::kCancel);
    Client c = Connect();
    auto resp = c.Call(QueryReq());
    testing::FaultInjector::Global().Disarm();
    ASSERT_TRUE(resp.ok()) << site << ": " << resp.status().ToString();
    EXPECT_EQ(resp.value().code, StatusCode::kCancelled) << site;
    EXPECT_EQ(mgr_->epoch(), epoch) << site;
    EXPECT_EQ(WarehouseCrc(*mgr_), crc) << site;
  }
}

// The sweep's disconnect half (the ISSUE's scenario): the client vanishes
// instead of reading the aborted response. The session dies on the write,
// the epoch stays unbumped, the snapshot bytes stay identical.
TEST_F(ServerTest, CancelSweepWithClientDisconnectLeavesBytesIdentical) {
  auto& aborts = obs::MetricsRegistry::Global().GetCounter(
      "dwred_net_aborts", "");
  for (const char* site :
       {"cancel.net.read", "cancel.net.dispatch", "cancel.net.respond"}) {
    const uint64_t epoch = mgr_->epoch();
    const uint32_t crc = WarehouseCrc(*mgr_);
    const uint64_t aborts_before = aborts.Value();
    testing::FaultInjector::Global().Arm(site, 1, testing::FaultMode::kCancel);
    {
      Client c = Connect();
      ASSERT_TRUE(c.Send(QueryReq()).ok()) << site;
      c.Close();  // disconnect without reading the response
    }
    // Wait until the server has actually processed (and aborted) the
    // command; the abort counter is the in-process signal.
    for (int spin = 0; spin < 2000 && aborts.Value() == aborts_before;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    testing::FaultInjector::Global().Disarm();
    EXPECT_GT(aborts.Value(), aborts_before) << site;
    EXPECT_EQ(mgr_->epoch(), epoch) << site;
    EXPECT_EQ(WarehouseCrc(*mgr_), crc) << site;
  }
}

// A client that disconnects mid-mutating-command must not corrupt the
// warehouse: either the insert fully landed (epoch bumped, rows present) or
// it didn't — never a torn batch.
TEST_F(ServerTest, DisconnectDuringInsertIsAtomic) {
  std::unique_ptr<SubcubeManager> twin = BuildWarehouse(now_day_);
  ASSERT_NE(twin, nullptr);
  {
    Client c = Connect();
    Request ins;
    ins.cmd = Command::kInsert;
    ins.a = kInsertCsv;
    ASSERT_TRUE(c.Send(ins).ok());
    c.Close();  // vanish before the response
  }
  // Wait until the insert landed (it was fully received, so it executes).
  for (int spin = 0; spin < 2000 && mgr_->epoch() == twin->epoch(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const MultidimensionalObject& ctx = twin->context();
    MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                                 ctx.measure_types());
    ASSERT_TRUE(ReadFactCsv(&batch, kInsertCsv).ok());
    ASSERT_TRUE(twin->InsertBottomFacts(batch).ok());
  }
  EXPECT_EQ(WarehouseCrc(*mgr_), WarehouseCrc(*twin));
}

// Raw-socket torture: a CRC-corrupt frame gets one kParseError response and
// a close; an oversized length prefix likewise — the server never hangs and
// never applies a corrupt command.
TEST_F(ServerTest, CorruptAndOversizedFramesAnswerErrorThenClose) {
  const uint32_t crc_before = WarehouseCrc(*mgr_);
  for (int scenario = 0; scenario < 2; ++scenario) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::string wire;
    if (scenario == 0) {
      AppendFrame(&wire, EncodeRequest(QueryReq()));
      wire[wire.size() - 1] ^= 0x20;  // corrupt the payload -> CRC mismatch
    } else {
      wire.assign(8, '\0');
      wire[3] = static_cast<char>(0xff);  // ~4 GiB length prefix
    }
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    // Read everything until the server closes: must decode to exactly one
    // kParseError response.
    std::string got;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      got.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    std::string payload, err;
    size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(got, &payload, &consumed, &err), FrameParse::kFrame)
        << "scenario " << scenario;
    EXPECT_EQ(consumed, got.size()) << "more than one response frame";
    auto resp = DecodeResponse(payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().code, StatusCode::kParseError) << "scenario "
                                                          << scenario;
  }
  EXPECT_EQ(WarehouseCrc(*mgr_), crc_before);
}

// The connection cap sheds with one honest ResourceExhausted response.
TEST_F(ServerTest, ConnectionCapShedsWithResourceExhausted) {
  ServerConfig config;
  config.max_connections = 1;
  Server small(config, mgr_.get());
  ASSERT_TRUE(small.Start().ok());
  auto first = Client::Connect("127.0.0.1", small.port());
  ASSERT_TRUE(first.ok());
  Request ping;
  ping.cmd = Command::kPing;
  auto ok = first.value().Call(ping);  // session is live
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value().code, StatusCode::kOk);

  auto second = Client::Connect("127.0.0.1", small.port());
  ASSERT_TRUE(second.ok());
  auto shed = second.value().Recv();  // unsolicited shed response
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().code, StatusCode::kResourceExhausted);
  small.Stop();
}

// Stats and cache control over the wire.
TEST_F(ServerTest, StatsAndCacheControl) {
  Client c = Connect();
  Request stats;
  stats.cmd = Command::kStats;
  auto text = c.Call(stats);
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(text.value().code, StatusCode::kOk);
  EXPECT_NE(text.value().body.find("dwred_net_connections_total"),
            std::string::npos);
  stats.flags = kStatsJson;
  auto json = c.Call(stats);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().body.front(), '{');

  Request cache_stats;
  cache_stats.cmd = Command::kCacheCtl;
  auto cs = c.Call(cache_stats);
  ASSERT_TRUE(cs.ok());
  ASSERT_EQ(cs.value().code, StatusCode::kOk);
  EXPECT_NE(cs.value().body.find("epoch="), std::string::npos);

  Request clear;
  clear.cmd = Command::kCacheCtl;
  clear.a = "clear";
  auto cl = c.Call(clear);
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(cl.value().body, "cache cleared");

  Request bad;
  bad.cmd = Command::kCacheCtl;
  bad.a = "defrost";
  auto rej = c.Call(bad);
  ASSERT_TRUE(rej.ok());
  EXPECT_EQ(rej.value().code, StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ShutdownCommandUnblocksWaiters) {
  Client c = Connect();
  Request req;
  req.cmd = Command::kShutdown;
  auto resp = c.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
  // The session signals shutdown only after the ack is on the wire, so the
  // client can read its response a moment before the flag flips; the wait
  // (not the flag) is the ordering guarantee.
  server_->WaitForShutdown();  // must not block after the command
  EXPECT_TRUE(server_->shutdown_requested());
}

}  // namespace
}  // namespace dwred::net
