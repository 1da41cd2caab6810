// The two over-the-wire workloads, serve_repeat and ingest_mixed, on the B14
// clickstream warehouse: an in-process net::Server on a loopback port driven
// by real client connections, as bench/bench_server_qps.cc does.
//
// Layer times are not taken while the load runs. After the window, every
// sampled request is replayed through the same public calls the server makes
// (frame decode, Server::Dispatch, parse, SubcubeManager::Query,
// RenderResult, frame encode) against the warehouse state it was answered
// at; the replay both checks the wire bytes and, in a traced run, times each
// call. The roundtrip minus the replayed layers is the unattributed residual
// (transport, queueing and lock waits).

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "chrono/civil.h"
#include "chrono/granule.h"
#include "common/rng.h"
#include "io/warehouse_io.h"
#include "ledger.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "workload/clickstream.h"

namespace ledger {
namespace {

using dwred::MultidimensionalObject;
using dwred::SubcubeManager;
namespace net = dwred::net;

// The three-tier clickstream retention policy of bench/bench_common.h,
// coarsest tier first (each tier is a prerequisite of the finer ones).
const std::vector<const char*> kClickPolicy = {
    "a[Time.year, URL.domain_grp] s[Time.year <= NOW - 36 months]",
    "a[Time.quarter, URL.domain] s["
    "NOW - 36 months <= Time.quarter AND Time.quarter <= NOW - 12 months]",
    "a[Time.month, URL.domain] s["
    "NOW - 12 months <= Time.month <= NOW - 6 months]",
};

constexpr int kSetupMonths = 30;            // 2000-01 .. 2002-06
constexpr size_t kConnections = 2;          // reader connections (serve)
constexpr size_t kWindow = 16;              // requests in flight per reader
constexpr size_t kReservoir = 512;          // sampled responses per reader
constexpr uint64_t kZipfTexts = 64;         // fits the 256-entry result cache
// The loader's pace is counted in reads: it sends day k once the reader has
// had k * kAnswersPerDay answers (later when its own replies are slow). A
// fixed ratio of reads to writes keeps the work per read the same however
// fast the host runs; a wall-clock pace made a slow host spend a larger
// share of its time on cold queries, so throughput swung twice as far as
// the host's speed did.
constexpr uint64_t kAnswersPerDay = 40;
// Days of CSV built up front per second of window: enough for a reader
// answering 1600 requests/s, near three times the rate a 4-vCPU host
// reaches.
constexpr double kDaysPerSecond = 40;
// Stored bytes are read after this many loader days per second of window,
// a point every run reaches: the open tail segment is kept unencoded, so
// bytes per fact swing by a quarter over the days between two seals, and
// the day the window closes on must not pick the value.
constexpr double kStoredDaysPerSecond = 8;

struct WriterOp {
  bool sync = false;
  int64_t day = 0;
  std::string csv;  ///< insert batch (empty for sync)
  size_t facts = 0;
  std::vector<int64_t> sums;
};

/// Everything a wire run needs before its timed window.
struct ClickSetup {
  dwred::ClickstreamWorkload w;  ///< the shared dimensions
  dwred::ReductionSpecification spec;
  std::unique_ptr<SubcubeManager> live;
  std::unique_ptr<SubcubeManager> replay;  ///< ingest_mixed's embedded twin
  int64_t now = 0;
  size_t facts = 0;
  std::vector<int64_t> sums;
  std::vector<WriterOp> writer;
};

std::unique_ptr<SubcubeManager> NewManager(const ClickSetup& s) {
  const MultidimensionalObject& mo = *s.w.mo;
  return std::make_unique<SubcubeManager>(Must(
      SubcubeManager::Create("Click", mo.dimensions(),
                             std::vector<dwred::MeasureType>(mo.measure_types()),
                             s.spec),
      "create subcube warehouse"));
}

/// The clicks of setup month `m` (0-based). The batch seed is fixed per
/// month, so a second call yields the same facts.
MultidimensionalObject SetupMonth(const ClickSetup& s, int m, size_t per_month,
                                  int64_t* last_day) {
  const int year = 2000 + m / 12, month = m % 12 + 1;
  const int64_t lo = dwred::DaysFromCivil({year, month, 1});
  *last_day =
      dwred::DaysFromCivil({year, month, dwred::DaysInMonth(year, month)});
  return dwred::MakeClickBatch(s.w.time_dim, s.w.url_dim, lo, *last_day,
                               per_month, kClickSeed + 1 + m);
}

/// Loads 30 months of clicks into `mgr`, synchronized after every month and
/// once more at NOW = 2002-07-01. Returns the facts loaded; with `sums`, also
/// adds up their SUM totals.
size_t LoadSetupMonths(const ClickSetup& s, size_t per_month,
                       SubcubeManager* mgr, std::vector<int64_t>* sums) {
  size_t facts = 0;
  for (int m = 0; m < kSetupMonths; ++m) {
    int64_t last_day = 0;
    MultidimensionalObject batch = SetupMonth(s, m, per_month, &last_day);
    if (sums != nullptr) AddSums(sums, MeasureSums(batch));
    facts += batch.num_facts();
    Must(mgr->InsertBottomFacts(batch), "insert clicks");
    Must(mgr->Synchronize(last_day + 1), "synchronize");
  }
  Must(mgr->Synchronize(s.now), "synchronize");
  return facts;
}

/// Generates the clicks and loads the live warehouse: the timed setup.
ClickSetup BuildClick(size_t per_month) {
  ClickSetup s;
  dwred::ClickstreamConfig cfg;
  cfg.seed = kClickSeed;
  cfg.num_clicks = 0;
  cfg.num_domains = 200;
  cfg.urls_per_domain = 20;
  s.w = dwred::MakeClickstream(cfg);
  s.spec = ParsePolicy(*s.w.mo, kClickPolicy);
  s.now = dwred::DaysFromCivil({2002, 7, 1});
  s.live = NewManager(s);
  s.facts = LoadSetupMonths(s, per_month, s.live.get(), nullptr);
  return s;
}

/// What the checks need, built after the timed setup: the SUM totals of the
/// setup clicks and, with `writer_days` > 0, the embedded twin that replays
/// the loader's ops and the loader's CSV batches. Generating the batches
/// interns every day value up front, so the timed window never grows a
/// dimension.
void PrepareChecks(ClickSetup* s, size_t per_month, int writer_days,
                   Report* rep) {
  if (writer_days > 0) {
    s->replay = NewManager(*s);
    LoadSetupMonths(*s, per_month, s->replay.get(), &s->sums);
  } else {
    for (int m = 0; m < kSetupMonths; ++m) {
      int64_t last_day = 0;
      AddSums(&s->sums, MeasureSums(SetupMonth(*s, m, per_month, &last_day)));
    }
  }
  rep->Check("setup.sum_conserved", MeasureSums(*s->live) == s->sums,
             "SUM totals changed across the setup synchronizations");
  if (writer_days == 0) return;

  const dwred::TimeSpan interval = Must(
      dwred::RecommendedSyncInterval(*s->w.mo, s->spec), "sync interval");
  int64_t next_sync = dwred::ShiftDays(s->now, interval);
  const size_t per_day = std::max<size_t>(1, per_month / 30);
  uint64_t batch_seed = kClickSeed + kSetupMonths;
  for (int d = 0; d < writer_days; ++d) {
    const int64_t day = s->now + d;
    if (day >= next_sync) {
      WriterOp op;
      op.sync = true;
      op.day = day;
      s->writer.push_back(std::move(op));
      next_sync = dwred::ShiftDays(day, interval);
    }
    MultidimensionalObject batch = dwred::MakeClickBatch(
        s->w.time_dim, s->w.url_dim, day, day, per_day, ++batch_seed);
    WriterOp op;
    op.day = day;
    op.csv = dwred::WriteFactCsv(batch);
    op.facts = batch.num_facts();
    op.sums = MeasureSums(batch);
    s->writer.push_back(std::move(op));
  }
}

/// The 64 dashboard query texts: domain group x trailing window x lattice
/// granularity, in popularity order. Consecutive ranks rotate through the
/// granularities and windows, so the popular head of the Zipf draw holds
/// every answer shape on every seed.
std::vector<net::Request> DashboardRequests(int64_t now) {
  const char* groups[] = {".com", ".edu", ".org", ".net"};
  const int windows[] = {6, 12, 24, 36};
  const char* grans[] = {
      "Time.month, URL.domain_grp",
      "Time.quarter, URL.domain_grp",
      "Time.year, URL.domain_grp",
      "Time.quarter, URL.domain",
  };
  std::vector<net::Request> out;
  for (uint64_t i = 0; i < kZipfTexts; ++i) {
    net::Request req;
    req.cmd = net::Command::kQuery;
    req.now_day = now;
    req.flags = net::kQuerySynchronized | net::kQueryParallel;
    req.a = std::string("URL.domain_grp = ") + groups[i / 16] + " AND NOW - " +
            std::to_string(windows[(i / 4 + i) % 4]) + " months <= Time.month";
    req.b = grans[i % 4];
    out.push_back(std::move(req));
  }
  return out;
}

/// Progress shared by the reader and the loader: the loader's ops sent and
/// acknowledged, and the reader's answers.
struct WriterProgress {
  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> answers{0};
};

/// A sampled answer. It was served after `lo` writer ops were acknowledged
/// and before more than `hi` had been sent, so it must equal the embedded
/// answer after one of lo..hi ops.
struct ReaderSample {
  uint32_t text = 0;
  uint64_t lo = 0, hi = 0;
  double send = 0, recv = 0;
  std::string body;
};

struct ReaderResult {
  Samples lat_ms;
  uint64_t attempted = 0, failed = 0, ok = 0;
  std::vector<ReaderSample> reservoir;
};

/// One reader connection: a sliding window of kWindow requests in flight,
/// texts drawn Zipf-skewed, until `end`; then drains.
void ReaderLoop(net::Client* client, const std::vector<net::Request>* reqs,
                uint64_t seed, double end, WriterProgress* wp,
                ReaderResult* out) {
  dwred::SplitMix64 rng(seed);
  dwred::ZipfGenerator zipf(reqs->size(), 0.99, seed ^ 0x21f0ull);
  struct InFlight {
    uint32_t text;
    double send;
    uint64_t completed;  ///< writer ops acknowledged before the send
  };
  std::deque<InFlight> inflight;
  bool dead = false;
  auto send_one = [&]() {
    const uint32_t text = static_cast<uint32_t>(zipf.Next());
    InFlight f{text, 0, wp ? wp->completed.load() : 0};
    f.send = Now();
    ++out->attempted;
    if (!client->Send((*reqs)[text]).ok()) {
      dead = true;
      out->lat_ms.AddFailed();
      ++out->failed;
      return;
    }
    inflight.push_back(f);
  };
  for (size_t i = 0; i < kWindow && !dead; ++i) send_one();
  while (!inflight.empty()) {
    auto resp = client->Recv();
    const double recv = Now();
    const InFlight f = inflight.front();
    inflight.pop_front();
    if (!resp.ok() || resp.value().code != dwred::StatusCode::kOk) {
      out->lat_ms.AddFailed();
      ++out->failed;
      if (!resp.ok()) {
        // The stream is gone: everything still in flight is lost too.
        for (size_t i = 0; i < inflight.size(); ++i) out->lat_ms.AddFailed();
        out->failed += inflight.size();
        break;
      }
    } else {
      out->lat_ms.Add((recv - f.send) * 1e3);
      ++out->ok;
      if (wp != nullptr) wp->answers.fetch_add(1);
      // Reservoir sampling (Algorithm R) over the answered requests.
      size_t slot = out->reservoir.size();
      if (slot >= kReservoir) slot = rng.Below(out->ok);
      if (slot < kReservoir) {
        ReaderSample smp{f.text, f.completed, wp ? wp->started.load() : 0,
                         f.send, recv, std::move(resp.value().body)};
        if (slot == out->reservoir.size()) {
          out->reservoir.push_back(std::move(smp));
        } else {
          out->reservoir[slot] = std::move(smp);
        }
      }
    }
    if (!dead && recv < end) send_one();
  }
}

struct WriterResult {
  Samples insert_ms, sync_ms;
  uint64_t attempted = 0, failed = 0, ok = 0, facts = 0;
  std::vector<std::pair<double, double>> times;  ///< per op: send, recv
};

/// The loader: one closed-loop connection walking the precomputed day
/// sequence (insert per day, synchronize at each interval boundary) until
/// the window closes.
void WriterLoop(net::Client* client, const ClickSetup* s, double end,
                WriterProgress* wp, WriterResult* out) {
  for (const WriterOp& op : s->writer) {
    const uint64_t due = static_cast<uint64_t>(op.day - s->now) * kAnswersPerDay;
    while (wp->answers.load() < due && Now() < end) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (Now() >= end) break;
    net::Request req;
    req.cmd = op.sync ? net::Command::kSynchronize : net::Command::kInsert;
    req.now_day = op.day;
    req.a = op.csv;
    wp->started.fetch_add(1);
    const double t0 = Now();
    auto resp = client->Call(req);
    const double t1 = Now();
    ++out->attempted;
    out->times.emplace_back(t0, t1);
    Samples& lat = op.sync ? out->sync_ms : out->insert_ms;
    if (!resp.ok() || resp.value().code != dwred::StatusCode::kOk) {
      lat.AddFailed();
      ++out->failed;
      // A failed write leaves the replay unable to follow; stop writing.
      wp->completed.fetch_add(1);
      break;
    }
    lat.Add((t1 - t0) * 1e3);
    ++out->ok;
    if (!op.sync) out->facts += op.facts;
    wp->completed.fetch_add(1);
  }
}

uint32_t WireCrc(net::Client* client, Report* rep) {
  net::Request req;
  req.cmd = net::Command::kSnapshotCrc;
  auto resp = client->Call(req);
  if (!resp.ok() || resp.value().code != dwred::StatusCode::kOk) {
    rep->Check("wire.snapshot_crc", false, "snapshot-crc request failed");
    return 0;
  }
  return static_cast<uint32_t>(
      std::strtoul(resp.value().body.c_str() + 4, nullptr, 10));
}

/// Replays the writer's ops against `target` in order and checks every
/// sampled wire answer against the embedded answer at one of the states it
/// could have been served at. The first attempt per sample also times the
/// layer calls for the trace.
/// Also records stored bytes per input fact once `stored_days` loader days
/// are in.
void ReplayAndCheck(ClickSetup* s, const std::vector<net::Request>& reqs,
                    const std::vector<ReaderSample>& samples,
                    const WriterResult* writer, int stored_days, Report* rep) {
  SubcubeManager* target = s->replay ? s->replay.get() : s->live.get();
  const MultidimensionalObject& ctx = target->context();
  net::Server replayer(net::ServerConfig{}, target);  // Dispatch only
  auto& hits = dwred::obs::MetricsRegistry::Global().GetCounter(
      "dwred_cache_query_hits");
  SpanLog& spans = rep->spans;
  uint64_t request_id = 0;
  Samples migrated;
  bool stored = false;
  std::vector<int64_t> expect = s->sums;
  size_t facts = s->facts;

  // Frame decode, Server::Dispatch, parse, Query, RenderResult and frame
  // encode on the sampled request, in the order the server runs them.
  auto attempt = [&](const ReaderSample& smp, bool trace) {
    const net::Request& req = reqs[smp.text];
    SpanLog off(false);
    SpanLog& log = trace ? spans : off;
    const uint64_t id = ++request_id;
    const int64_t root = log.Add("net.roundtrip", id, -1, smp.send, smp.recv);

    double t0 = Now();
    std::string frame;
    net::AppendFrame(&frame, net::EncodeRequest(req));
    std::string payload, err;
    size_t consumed = 0;
    const bool framed = net::ExtractFrame(frame, &payload, &consumed, &err) ==
                        net::FrameParse::kFrame;
    auto decoded = net::DecodeRequest(payload);
    double t1 = Now();
    log.Add("net.decode", id, root, t0, t1);
    if (!framed || !decoded.ok()) return false;

    t0 = Now();
    net::Response resp = replayer.Dispatch(decoded.value());
    t1 = Now();
    const int64_t dispatch = log.Add("net.dispatch", id, root, t0, t1);

    t0 = Now();
    auto pred = dwred::ParsePredicate(ctx, req.a);
    auto gran = dwred::ParseGranularityList(ctx, req.b);
    t1 = Now();
    log.Add("spec.parse", id, dispatch, t0, t1);
    if (!pred.ok() || !gran.ok()) return false;
    const uint64_t hits0 = hits.Value();
    t0 = Now();
    auto answer = target->Query(pred.value().get(), &gran.value(), req.now_day,
                                /*assume_synchronized=*/true,
                                /*parallel=*/true);
    t1 = Now();
    log.Add(hits.Value() > hits0 ? "subcube.query_hit" : "subcube.query_miss",
            id, dispatch, t0, t1);
    if (!answer.ok()) return false;
    t0 = Now();
    const std::string rendered = net::RenderResult(answer.value());
    t1 = Now();
    log.Add("net.render", id, dispatch, t0, t1);

    t0 = Now();
    std::string out;
    net::AppendFrame(&out, net::EncodeResponse(resp));
    t1 = Now();
    log.Add("net.encode", id, root, t0, t1);
    return resp.code == dwred::StatusCode::kOk && resp.body == smp.body &&
           rendered == smp.body;
  };

  auto apply = [&](uint64_t k) {
    const WriterOp& op = s->writer[k];
    const auto [send, recv] = writer->times[k];
    const uint64_t id = ++request_id;
    if (op.sync) {
      const int64_t root = spans.Add("net.synchronize", id, -1, send, recv);
      const double t0 = Now();
      auto r = target->Synchronize(op.day);
      const double t1 = Now();
      spans.Add("subcube.sync", id, root, t0, t1);
      rep->Check("replay.writer_ops", r.ok(), r.status().ToString());
      if (!r.ok()) return;
      migrated.Add(static_cast<double>(r.value()));
      rep->Check("ingest.sum_conserved", MeasureSums(*target) == expect,
                 "SUM totals changed across a synchronization");
    } else {
      const int64_t root = spans.Add("net.insert", id, -1, send, recv);
      MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                                   ctx.measure_types());
      const double t0 = Now();
      dwred::Status st = dwred::ReadFactCsv(&batch, op.csv);
      const double t1 = Now();
      if (st.ok()) st = target->InsertBottomFacts(batch);
      const double t2 = Now();
      spans.Add("io.csv_parse", id, root, t0, t1);
      spans.Add("subcube.insert", id, root, t1, t2);
      rep->Check("replay.writer_ops", st.ok(), st.ToString());
      AddSums(&expect, op.sums);
      facts += op.facts;
      if (op.day - s->now + 1 == stored_days) {
        rep->stored_bytes_per_input_fact =
            static_cast<double>(target->TotalBytes()) / facts;
        rep->Row("stored_at_day", stored_days);
        stored = true;
      }
    }
  };

  const uint64_t ops_done = writer ? writer->times.size() : 0;
  std::vector<bool> tried(samples.size(), false), matched(samples.size(), false);
  for (uint64_t state = 0;; ++state) {
    for (size_t i = 0; i < samples.size(); ++i) {
      if (matched[i] || state < samples[i].lo || state > samples[i].hi) continue;
      matched[i] = attempt(samples[i], !tried[i]);
      tried[i] = true;
    }
    if (state == ops_done) break;
    apply(state);
  }
  const size_t checked = std::count(matched.begin(), matched.end(), true);
  rep->Check("wire.sampled_answers",
             !samples.empty() && checked == samples.size(),
             std::to_string(samples.size() - checked) +
                 " sampled wire answers match no embedded answer");
  rep->Row("sampled_answers_checked", static_cast<double>(samples.size()));
  if (s->replay) {
    rep->Check("ingest.replay_sum_conserved", MeasureSums(*target) == expect,
               "replayed warehouse lost SUM totals");
    rep->Check("ingest.stored_day_reached", stored,
               "the loader stopped before day " + std::to_string(stored_days) +
                   ", where stored bytes per input fact are read");
  }
  rep->Layer("subcube.rows_migrated_per_sync", migrated.Median(), "rows");
}

void RunWire(const Options& opt, bool with_writer, Report* rep) {
  const size_t per_month = opt.toy ? 300 : 10000;
  const int writer_days =
      with_writer ? static_cast<int>(kDaysPerSecond * opt.seconds) : 0;
  ClickSetup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = ClickSetup();  // release the previous build before the next one
    const double t0 = Now();
    s = BuildClick(per_month);
    rep->setup_s.Add(Now() - t0);
  }
  PrepareChecks(&s, per_month, writer_days, rep);
  rep->Row("facts_setup", static_cast<double>(s.facts));
  rep->Row("facts_per_month", static_cast<double>(per_month));
  rep->Row("months", kSetupMonths);
  rep->Row("query_texts", static_cast<double>(kZipfTexts));
  rep->Row("result_cache_entries",
           static_cast<double>(dwred::cache::WarehouseCache::kDefaultMaxEntries));

  const std::vector<net::Request> reqs = DashboardRequests(s.now);
  net::ServerConfig config;
  config.max_connections = 8;
  net::Server server(config, s.live.get());
  Must(server.Start(), "start server");
  const size_t readers = with_writer ? 1 : kConnections;
  std::vector<net::Client> clients;
  for (size_t c = 0; c < readers + (with_writer ? 1 : 0); ++c) {
    clients.push_back(Must(net::Client::Connect("127.0.0.1", server.port()),
                           "connect"));
  }
  rep->Row("connections", static_cast<double>(clients.size()));
  rep->Row("window_per_reader", static_cast<double>(kWindow));

  // Warm the result cache and the connections outside the timed window.
  for (const net::Request& req : reqs) {
    auto r = clients[0].Call(req);
    if (!r.ok() || r.value().code != dwred::StatusCode::kOk) {
      Fail("warm-up query failed");
    }
  }

  WriterProgress wp;
  std::vector<ReaderResult> results(readers);
  WriterResult wres;
  RegistryDelta delta;
  const double start = Now();
  const double end = start + opt.seconds;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back(ReaderLoop, &clients[c], &reqs,
                           opt.seed * 7919 + c, end,
                           with_writer ? &wp : nullptr, &results[c]);
    }
    if (with_writer) {
      threads.emplace_back(WriterLoop, &clients.back(), &s, end, &wp, &wres);
    }
    for (auto& t : threads) t.join();
  }
  rep->window_s = Now() - start;
  delta.Stop();

  std::vector<ReaderSample> samples;
  for (ReaderResult& r : results) {
    rep->query_ms.Append(r.lat_ms);
    rep->attempted += r.attempted;
    rep->failed += r.failed;
    rep->queries_ok += r.ok;
    rep->ops_ok += r.ok;
    for (auto& smp : r.reservoir) samples.push_back(std::move(smp));
  }
  if (with_writer) {
    rep->insert_ms = wres.insert_ms;
    rep->sync_ms = wres.sync_ms;
    rep->attempted += wres.attempted;
    rep->failed += wres.failed;
    rep->ops_ok += wres.ok;
    rep->window_facts = wres.facts;
    rep->Row("writer_days_built", writer_days);
    rep->Row("writer_ops", static_cast<double>(wres.times.size()));
    rep->Row("facts_per_day", static_cast<double>(
                                  std::max<size_t>(1, per_month / 30)));
  }

  const uint32_t wire_crc = WireCrc(&clients[0], rep);
  for (auto& c : clients) c.Close();
  server.Stop();

  const double live_bytes = rep->StorageLayers(*s.live);
  // ingest_mixed reads its stored bytes during the replay instead.
  if (!with_writer) {
    rep->stored_bytes_per_input_fact = live_bytes / static_cast<double>(s.facts);
  }
  const int stored_days = static_cast<int>(kStoredDaysPerSecond * opt.seconds);
  const double frames = delta["dwred_net_frames"];
  rep->Layer("net.bytes_per_request",
             frames > 0 ? (delta["dwred_net_bytes_read"] +
                           delta["dwred_net_bytes_written"]) /
                              frames
                        : 0,
             "bytes");
  rep->EngineLayers(delta, static_cast<double>(rep->queries_ok),
                    static_cast<double>(rep->ops_ok));

  ReplayAndCheck(&s, reqs, samples, with_writer ? &wres : nullptr,
                 stored_days, rep);
  const SubcubeManager& target = s.replay ? *s.replay : *s.live;
  rep->Check("wire.snapshot_crc", wire_crc == net::WarehouseCrc(target),
             "wire snapshot CRC differs from the embedded replay's");
  if (s.replay) {
    rep->Check("ingest.live_sum_conserved",
               MeasureSums(*s.live) == MeasureSums(target),
               "live warehouse SUM totals differ from the replay's");
  }
}

}  // namespace

void RunServeRepeat(const Options& opt, Report* rep) {
  RunWire(opt, /*with_writer=*/false, rep);
}

void RunIngestMixed(const Options& opt, Report* rep) {
  RunWire(opt, /*with_writer=*/true, rep);
}

}  // namespace ledger
