#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/env.h"
#include "io/atomic_file.h"  // Crc32
#include "io/warehouse_io.h"
#include "net/client.h"  // IgnoreSigpipe
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/op.h"
#include "reduce/dynamics.h"
#include "runtime/cancel.h"
#include "spec/parser.h"

namespace dwred::net {

namespace {

struct NetMetrics {
  obs::Counter& connections_total;
  obs::Gauge& connections_open;
  obs::Counter& rejected;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Counter& frames;
  obs::Counter& protocol_errors;
  obs::Counter& disconnects;
  obs::Counter& aborts;

  static NetMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NetMetrics m{
        reg.GetCounter("dwred_net_connections_total",
                       "connections accepted by dwredd"),
        reg.GetGauge("dwred_net_connections_open",
                     "connections currently open"),
        reg.GetCounter("dwred_net_connections_rejected",
                       "connections shed at the connection cap"),
        reg.GetCounter("dwred_net_bytes_read", "payload+frame bytes received"),
        reg.GetCounter("dwred_net_bytes_written", "payload+frame bytes sent"),
        reg.GetCounter("dwred_net_frames", "request frames processed"),
        reg.GetCounter("dwred_net_protocol_errors",
                       "malformed frames (bad CRC, oversized length, "
                       "undecodable request)"),
        reg.GetCounter("dwred_net_disconnects",
                       "sessions ended by the peer (EOF, reset, EPIPE)"),
        reg.GetCounter("dwred_net_aborts",
                       "commands aborted at a cancel.net.* poll site"),
    };
    return m;
  }
};

/// Per-command instrumentation, registered once: the request counter, and
/// the one latency histogram and the name of the command's `net.<cmd>` root
/// operation. Slot 0 ("unknown") takes out-of-range commands.
struct CommandObs {
  obs::Counter* requests;
  obs::Histogram* latency;
  std::string op;
};

const CommandObs& CommandMetrics(Command c) {
  static const std::vector<CommandObs> table = [] {
    auto& reg = obs::MetricsRegistry::Global();
    std::vector<CommandObs> t;
    for (int i = 0; i <= static_cast<int>(Command::kShutdown); ++i) {
      const std::string name = CommandName(static_cast<Command>(i));
      t.push_back({&reg.GetCounter("dwred_net_cmd_" + name,
                                   name + " requests served"),
                   &reg.GetHistogram("dwred_net_" + name + "_seconds",
                                     obs::DefaultLatencyBuckets(),
                                     "wall time of one served " + name +
                                         " request"),
                   "net." + name});
    }
    return t;
  }();
  const size_t i = static_cast<size_t>(c);
  return table[i < table.size() ? i : 0];
}

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Response FromStatus(const Status& st) {
  Response r;
  r.code = st.code();
  r.message = st.message();
  return r;
}

}  // namespace

std::string RenderResult(const MultidimensionalObject& mo) {
  std::ostringstream out;
  out << mo.num_facts() << " cells\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out << mo.FormatFact(f) << "\n";
  }
  return out.str();
}

uint32_t WarehouseCrc(const SubcubeManager& mgr) {
  std::shared_lock<std::shared_mutex> lock(
      mgr.warehouse_cache().snapshot_mutex());
  uint32_t crc = 0;
  for (size_t i = 0; i < mgr.num_subcubes(); ++i) {
    const Subcube& cube = mgr.subcube(i);
    std::ostringstream out;
    out << cube.name << "|";
    for (CategoryId c : cube.granularity) out << c << ",";
    out << "|" << cube.table.num_rows() << "\n";
    const size_t nd = cube.table.num_dims();
    const size_t nm = cube.table.num_measures();
    cube.table.ForEachRow(
        0, cube.table.num_rows(), [&](RowId, const FactTable::RowRef& row) {
          for (size_t d = 0; d < nd; ++d) out << row.coord(d) << ",";
          out << "|";
          for (size_t m = 0; m < nm; ++m) out << row.measure(m) << ",";
          out << "\n";
        });
    crc = Crc32(out.str(), crc);
  }
  return crc;
}

Server::Server(ServerConfig config, SubcubeManager* mgr)
    : config_(std::move(config)), mgr_(mgr) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  IgnoreSigpipe();
  max_connections_ =
      config_.max_connections > 0
          ? config_.max_connections
          : static_cast<int>(EnvInt64("DWRED_NET_MAX_CONNECTIONS", 64, 1,
                                      4096, EnvRangePolicy::kClamp));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseListener();
    return Status::InvalidArgument("not an IPv4 address: '" + config_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    CloseListener();
    return Status::Unavailable("bind " + config_.host + ":" +
                               std::to_string(config_.port) + ": " +
                               std::strerror(saved));
  }
  if (::listen(listen_fd_, 128) != 0) {
    int saved = errno;
    CloseListener();
    return Status::Unavailable(std::string("listen: ") +
                               std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    int saved = errno;
    CloseListener();
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(saved));
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::CloseListener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::Stop() {
  // One teardown at a time; a second caller blocks until the first finishes
  // and then finds nothing left to do (idempotent).
  static std::mutex stop_mu;
  std::lock_guard<std::mutex> stop_lock(stop_mu);
  if (!stopping_.exchange(true)) {
    // Closing the listener makes the blocking accept fail and the accept
    // thread exit.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    CloseListener();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Kick every live session off its blocking read, then join.
  std::vector<std::unique_ptr<SessionSlot>> taken;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
    }
    taken.swap(sessions_);
  }
  for (auto& s : taken) {
    if (s->thread.joinable()) s->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    shutdown_cv_.notify_all();
  }
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(sessions_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

void Server::AcceptLoop() {
  NetMetrics& m = NetMetrics::Get();
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Reap sessions that already finished so a long-lived daemon's slot
    // vector tracks live connections, not connections-ever.
    for (size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->fd < 0) {
        if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
        sessions_.erase(sessions_.begin() + i);
      } else {
        ++i;
      }
    }
    if (open_sessions_ >= max_connections_) {
      // Shed with one honest response instead of a silent RST: the client's
      // first Recv() sees ResourceExhausted.
      Response shed;
      shed.code = StatusCode::kResourceExhausted;
      shed.message = "connection cap reached (" +
                     std::to_string(max_connections_) + " sessions open)";
      std::string out;
      AppendFrame(&out, EncodeResponse(shed));
      (void)WriteAll(fd, out);
      ::close(fd);
      m.rejected.Increment();
      continue;
    }
    auto slot = std::make_unique<SessionSlot>();
    slot->fd = fd;
    SessionSlot* raw = slot.get();
    ++open_sessions_;
    m.connections_total.Increment();
    m.connections_open.Set(open_sessions_);
    raw->thread = std::thread([this, raw, fd] {
      Session(fd);
      // The fd is closed and the slot retired under sessions_mu_ so Stop()
      // never races a shutdown() against a concurrent close() (fd reuse).
      std::lock_guard<std::mutex> lock(sessions_mu_);
      ::close(fd);
      raw->fd = -1;
      --open_sessions_;
      NetMetrics::Get().connections_open.Set(open_sessions_);
    });
    sessions_.push_back(std::move(slot));
  }
}

void Server::Session(int fd) {
  NetMetrics& m = NetMetrics::Get();
  std::string inbuf, outbuf;
  bool poisoned = false;
  bool shutdown_cmd = false;
  for (;;) {
    char chunk[65536];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      m.disconnects.Increment();
      break;
    }
    if (n == 0) break;  // clean EOF
    m.bytes_read.Increment(static_cast<uint64_t>(n));
    inbuf.append(chunk, static_cast<size_t>(n));

    // Drain every complete frame before the next read so pipelined bursts
    // are answered in one batched write. Frames are consumed by offset and
    // the buffer is compacted once per read, so a burst costs linear time.
    outbuf.clear();
    std::string payload, error;
    size_t consumed = 0;
    size_t offset = 0;
    while (!poisoned) {
      FrameParse fp = ExtractFrame(std::string_view(inbuf).substr(offset),
                                   &payload, &consumed, &error);
      if (fp == FrameParse::kNeedMore) break;
      if (fp == FrameParse::kBad) {
        m.protocol_errors.Increment();
        Response bad;
        bad.code = StatusCode::kParseError;
        bad.message = error;
        AppendFrame(&outbuf, EncodeResponse(bad));
        poisoned = true;  // frame boundaries are lost; answer once and close
        break;
      }
      offset += consumed;
      m.frames.Increment();

      auto req = DecodeRequest(payload);
      Response resp;
      if (!req.ok()) {
        m.protocol_errors.Increment();
        resp = FromStatus(req.status());
      } else {
        resp = DispatchImpl(req.value(), &shutdown_cmd);
      }
      AppendFrame(&outbuf, EncodeResponse(resp));
      // Answer the shutdown, then close: frames pipelined behind it die with
      // the session, and a follow-up command on this connection is the
      // documented short read (tools/run_server_kill.sh scenario 2).
      if (shutdown_cmd) break;
    }
    inbuf.erase(0, offset);
    if (!outbuf.empty()) {
      Status wr = WriteAll(fd, outbuf);
      if (!wr.ok()) {
        // EPIPE/ECONNRESET after the peer vanished: drop the session, never
        // the process (SIGPIPE is ignored — net/client.h).
        m.disconnects.Increment();
        break;
      }
      m.bytes_written.Increment(outbuf.size());
    }
    if (shutdown_cmd) {
      // Signal only after the ack is on the wire: the daemon's Stop() runs
      // shutdown(2) on every live session fd, and signaling first lets it
      // race the response write the requesting client is still owed.
      SignalShutdown();
      break;
    }
    if (poisoned) break;
  }
  // The caller (the session thread's lambda) closes the fd and retires the
  // slot under sessions_mu_.
}

Response Server::Dispatch(const Request& req) {
  bool shutdown_cmd = false;
  Response resp = DispatchImpl(req, &shutdown_cmd);
  if (shutdown_cmd) SignalShutdown();
  return resp;
}

void Server::SignalShutdown() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  shutdown_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
}

Response Server::DispatchImpl(const Request& req, bool* shutdown_cmd) {
  NetMetrics& m = NetMetrics::Get();
  const CommandObs& cmd = CommandMetrics(req.cmd);
  cmd.requests->Increment();

  // Every command runs under a fresh operation context: the request's
  // deadline and row budget, plus a cancellable token so an injected or
  // propagated cancel stops engine shards cooperatively.
  runtime::OpContext ctx;
  ctx.token = runtime::CancelToken::Create();
  if (req.deadline_ms > 0) {
    ctx.deadline = runtime::Deadline::AfterMillis(req.deadline_ms);
  }
  if (req.max_rows > 0) {
    ctx.SetMaxRows(static_cast<int64_t>(req.max_rows));
  }
  runtime::ScopedOpContext scope(ctx);

  // The request's root operation: engine operations open under it, so a
  // served request is one trace tree and at most one slow-log entry.
  obs::Op op(cmd.op, *cmd.latency);
  if (obs::OpProfile* prof = op.profile()) {
    prof->epoch = mgr_->epoch();
    prof->now_day = req.now_day;
  }
  Response resp;
  // The three net poll sites all sit before any warehouse byte moves, so an
  // abort at any of them leaves the epoch unbumped and the snapshot
  // byte-identical (tests/server_test.cc sweeps them).
  Status poll = runtime::PollCancel("cancel.net.read");
  if (poll.ok()) poll = runtime::PollCancel("cancel.net.dispatch");
  if (!poll.ok()) {
    m.aborts.Increment();
    resp = FromStatus(poll);
  } else {
    switch (req.cmd) {
      case Command::kPing:
        resp.body = "pong";
        break;
      case Command::kQuery:
        resp = DoQuery(req, op.profile());
        break;
      case Command::kInsert:
        resp = DoInsert(req);
        break;
      case Command::kSynchronize:
        resp = DoSynchronize(req);
        break;
      case Command::kSpecChange:
        resp = DoSpecChange(req);
        break;
      case Command::kStats:
        resp = DoStats(req);
        break;
      case Command::kCacheCtl:
        resp = DoCacheCtl(req);
        break;
      case Command::kSnapshotCrc:
        resp = DoSnapshotCrc();
        break;
      case Command::kShutdown:
        *shutdown_cmd = true;
        resp.body = "shutting down";
        break;
    }
    Status respond = runtime::PollCancel("cancel.net.respond");
    if (!respond.ok()) {
      m.aborts.Increment();
      resp = FromStatus(respond);
    }
  }

  if (resp.code != StatusCode::kOk) op.Fail(Status(resp.code, resp.message));
  op.AddCounter("response_bytes", static_cast<int64_t>(resp.body.size()));
  return resp;
}

Response Server::DoQuery(const Request& req, obs::OpProfile* request_profile) {
  // Parsing resolves names against the facts-free context MO — read-only
  // (the parser never interns values), so concurrent sessions parse freely.
  std::shared_ptr<PredExpr> pred;
  if (!req.a.empty()) {
    auto p = ParsePredicate(mgr_->context(), req.a);
    if (!p.ok()) return FromStatus(p.status());
    pred = p.take();
  }
  std::vector<CategoryId> gran;
  bool has_gran = false;
  if (!req.b.empty()) {
    auto g = ParseGranularityList(mgr_->context(), req.b);
    if (!g.ok()) return FromStatus(g.status());
    gran = g.take();
    has_gran = true;
  }
  // EXPLAIN fills the request's own profile: the query renders it before the
  // request closes, and the request's slow-log entry then carries it.
  const bool explain = (req.flags & kQueryExplain) != 0;
  auto r = mgr_->Query(pred.get(), has_gran ? &gran : nullptr, req.now_day,
                       (req.flags & kQuerySynchronized) != 0,
                       (req.flags & kQueryParallel) != 0,
                       /*pinned_epoch=*/nullptr,
                       explain ? request_profile : nullptr);
  if (!r.ok()) return FromStatus(r.status());
  Response resp;
  resp.body = RenderResult(r.value());
  if (explain) {
    resp.body += request_profile == nullptr
                     ? "explain: profiling disabled (DWRED_PROFILE_DISABLED)\n"
                     : request_profile->Render();
  }
  return resp;
}

Response Server::DoInsert(const Request& req) {
  std::lock_guard<std::mutex> writer(write_mu_);
  const MultidimensionalObject& ctx = mgr_->context();
  MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                               ctx.measure_types());
  {
    // CSV decoding interns unknown time values into the *shared* dimensions;
    // that mutation must not race epoch-pinned readers, so it runs under the
    // exclusive snapshot lock (released before InsertBottomFacts, which
    // re-acquires it — the lock is not recursive). Values interned here are
    // factless until the insert lands; a reader between the two critical
    // sections sees extra interned values but identical facts and bytes.
    std::unique_lock<std::shared_mutex> lock(
        mgr_->warehouse_cache().snapshot_mutex());
    Status st = ReadFactCsv(&batch, req.a);
    if (!st.ok()) return FromStatus(st);
  }
  Status st = mgr_->InsertBottomFacts(batch);
  if (!st.ok()) return FromStatus(st);
  Response resp;
  resp.body = "inserted " + std::to_string(batch.num_facts()) +
              " facts epoch=" + std::to_string(mgr_->epoch());
  return resp;
}

Response Server::DoSynchronize(const Request& req) {
  std::lock_guard<std::mutex> writer(write_mu_);
  auto r = mgr_->Synchronize(req.now_day);
  if (!r.ok()) return FromStatus(r.status());
  Response resp;
  resp.body = "synchronized: " + std::to_string(r.value()) +
              " rows migrated epoch=" + std::to_string(mgr_->epoch());
  return resp;
}

Response Server::DoSpecChange(const Request& req) {
  std::lock_guard<std::mutex> writer(write_mu_);
  auto actions = ReadSpecificationText(mgr_->context(), req.a);
  if (!actions.ok()) return FromStatus(actions.status());
  // Re-validate the full set (Growing + NonCrossing) before touching the
  // layout — ChangeSpecification trusts a validated specification.
  auto spec =
      InsertActions(mgr_->context(), ReductionSpecification{}, actions.take());
  if (!spec.ok()) return FromStatus(spec.status());
  const size_t n_actions = spec.value().size();
  Status st = mgr_->ChangeSpecification(spec.take(), req.now_day);
  if (!st.ok()) return FromStatus(st);
  Response resp;
  resp.body = "specification installed: " + std::to_string(n_actions) +
              " actions, " + std::to_string(mgr_->num_subcubes()) +
              " subcubes epoch=" + std::to_string(mgr_->epoch()) + "\n" +
              mgr_->DescribeLayout();
  return resp;
}

Response Server::DoStats(const Request& req) {
  Response resp;
  resp.body = (req.flags & kStatsJson) != 0
                  ? obs::MetricsRegistry::Global().RenderJson()
                  : obs::MetricsRegistry::Global().RenderText();
  return resp;
}

Response Server::DoCacheCtl(const Request& req) {
  cache::WarehouseCache& wc = mgr_->warehouse_cache();
  Response resp;
  if (req.a == "clear") {
    std::lock_guard<std::mutex> writer(write_mu_);
    wc.Clear();
    resp.body = "cache cleared";
    return resp;
  }
  if (!req.a.empty()) {
    return FromStatus(
        Status::InvalidArgument("cache_ctl: expected \"\" or \"clear\", got '" +
                                req.a + "'"));
  }
  cache::WarehouseCache::Stats st = wc.GetStats();
  std::ostringstream out;
  out << "cache " << (cache::Enabled() ? "enabled" : "disabled")
      << ": epoch=" << st.epoch << " query_entries=" << st.query_entries
      << " scanspec_entries=" << st.scanspec_entries
      << " program_entries=" << st.program_entries << " bytes=" << st.bytes
      << " max_entries=" << st.max_entries << " max_bytes=" << st.max_bytes;
  resp.body = out.str();
  return resp;
}

Response Server::DoSnapshotCrc() {
  size_t rows = 0;
  for (size_t i = 0; i < mgr_->num_subcubes(); ++i) {
    rows += mgr_->subcube(i).table.num_rows();
  }
  Response resp;
  resp.body = "crc=" + std::to_string(WarehouseCrc(*mgr_)) +
              " rows=" + std::to_string(rows) +
              " epoch=" + std::to_string(mgr_->epoch());
  return resp;
}

}  // namespace dwred::net
