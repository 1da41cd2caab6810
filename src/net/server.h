#pragma once

// dwredd's serving core (docs/SERVER.md): a TCP listener fronting one
// SubcubeManager with the net/protocol.h command protocol.
//
// Threading model: one accept thread plus one dedicated thread per
// connection. Sessions do NOT run on the exec::ThreadPool — the pool is a
// barrier-style ParallelFor engine with no task-submit API, so parking a
// long-lived session on it would starve the engine passes that need it;
// instead the CPU-heavy work inside each command (per-subcube query fan-out,
// sharded synchronize) rides the pool exactly as it does embedded.
//
// Concurrency discipline: read commands (query, stats, snapshot-crc) take
// the warehouse snapshot lock shared inside the engine — epoch-pinned reads,
// concurrent across sessions. Mutating commands (insert, synchronize,
// spec-change, cache-clear) additionally serialize through `write_mu_` so
// two sessions cannot interleave a CSV parse (which interns new dimension
// values) with another writer's pass; the engine's exclusive snapshot lock
// then fences them against readers as embedded.
//
// Every command runs under a fresh runtime::OpContext carrying the request's
// deadline and row budget plus a cancellable token, with poll sites
// cancel.net.{read,dispatch,respond} — all in read-only phases, so an abort
// at any of them leaves the warehouse byte-identical (epoch unbumped,
// caches untouched), the PR-7 contract extended over the wire.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "subcube/manager.h"

namespace dwred::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (bound port via Server::port())
  /// Connection cap; accepts past it are answered with one ResourceExhausted
  /// response and closed. <= 0 reads DWRED_NET_MAX_CONNECTIONS (default 64).
  int max_connections = 0;
};

class Server {
 public:
  /// `mgr` must outlive the server.
  Server(ServerConfig config, SubcubeManager* mgr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// The bound port (after Start; meaningful with config.port == 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, shuts down every live session, joins all threads.
  /// Idempotent.
  void Stop();

  /// Blocks until a kShutdown command arrives (daemon main loop).
  void WaitForShutdown();

  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Executes one already-decoded request against the warehouse, exactly as
  /// a session would (minus the transport). Exposed for tests and for
  /// in-process callers that want the wire semantics without a socket.
  /// A kShutdown request signals shutdown before returning.
  Response Dispatch(const Request& req);

 private:
  void AcceptLoop();
  void Session(int fd);
  void CloseListener();

  /// Dispatch minus the shutdown side effect: a kShutdown request only sets
  /// *shutdown_cmd. Sessions use this so the signal can be deferred until the
  /// response is on the wire — signaling first lets the daemon's Stop() tear
  /// the session's fd down while the ack is still unwritten, and the
  /// requesting client sees a short read instead of its answer.
  Response DispatchImpl(const Request& req, bool* shutdown_cmd);

  /// Wakes WaitForShutdown (store + notify under the waiter's mutex so the
  /// waiter cannot check the predicate and block between the two).
  void SignalShutdown();

  Response DoQuery(const Request& req, obs::OpProfile* request_profile);
  Response DoInsert(const Request& req);
  Response DoSynchronize(const Request& req);
  Response DoSpecChange(const Request& req);
  Response DoStats(const Request& req);
  Response DoCacheCtl(const Request& req);
  Response DoSnapshotCrc();

  ServerConfig config_;
  SubcubeManager* mgr_;
  /// Atomic: the accept loop reads it per iteration while Stop() closes and
  /// retires it from another thread.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  int max_connections_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;

  std::mutex write_mu_;  ///< serializes mutating commands across sessions

  std::mutex sessions_mu_;
  std::condition_variable shutdown_cv_;
  struct SessionSlot {
    int fd = -1;
    std::thread thread;
  };
  std::vector<std::unique_ptr<SessionSlot>> sessions_;
  int open_sessions_ = 0;  ///< guarded by sessions_mu_
};

/// CRC32 over a canonical serialization of every subcube's live rows (name,
/// granularity, coordinates, measures), taken under the shared snapshot lock.
/// The differential anchor for over-the-wire vs. embedded workloads: equal
/// CRCs mean byte-identical warehouses.
uint32_t WarehouseCrc(const SubcubeManager& mgr);

/// Canonical rendering of a query result: a cell-count line followed by one
/// FormatFact line per fact. Shared by the wire path and embedded
/// differential tests so both render identical bytes.
std::string RenderResult(const MultidimensionalObject& mo);

}  // namespace dwred::net
