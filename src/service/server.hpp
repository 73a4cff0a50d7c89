// Unix-domain socket front end for the fabric-manager service
// (docs/SERVICE.md). Wire protocol: line-delimited JSON — one request
// object per '\n'-terminated line, one response line back, in order,
// per connection.
//
// Concurrency model: serve() is one poll() loop on the calling thread
// that owns every connection (non-blocking fds, a read buffer and one
// pending reply each). `route` runs inline on the loop: it reads only
// the shard's epoch snapshot and takes no lock, so its cost is bounded
// by path length. Every other op may wait on a shard's event lock or do
// real work, so it goes to the shared worker pool
// (util/thread_pool.hpp); the finished reply comes back through a
// mutex-guarded list and the self-pipe. A connection has at most one
// request in flight: its next line is not read until the previous reply
// is fully written, which keeps replies in request order and bounds its
// write queue to one reply, so a client that stops reading stalls only
// itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "service/service.hpp"

namespace nue::service {

class SocketServer {
 public:
  /// Binds and listens on `path` (an existing socket file is replaced —
  /// managerd owns its socket path). Throws std::runtime_error on bind
  /// failures.
  SocketServer(std::string path, ManagerService& service);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  const std::string& path() const { return path_; }

  /// Serve until the service acknowledges a `shutdown` request (or
  /// stop() is called from another thread). Graceful: stops accepting
  /// and reading, waits for the requests still on the pool, then drains
  /// every open connection's pending reply for at most a fixed deadline
  /// (so a client that stopped reading cannot hold it up) and closes
  /// them, so a caller may flush telemetry exporters immediately after.
  void serve();

  /// Ask serve() to wind down (idempotent, callable from any thread or
  /// signal-safe contexts via the self-pipe).
  void stop();

 private:
  struct Connection;  // server.cpp

  void advance(Connection& c);
  void dispatch(Connection& c, const std::string& line);
  /// Drain the self-pipe and take the replies the pool has finished.
  std::vector<std::pair<std::uint64_t, std::string>> take_replies();
  void wake();

  std::string path_;
  ManagerService& service_;
  int listen_fd_ = -1;
  int wake_read_ = -1;   // self-pipe: stop() and finished pool requests
  int wake_write_ = -1;  // poke the poll loop
  std::atomic<bool> stopping_{false};
  // Loop-thread state: whether serve() is winding down, and how many
  // requests are on the pool with their reply not yet collected.
  bool winding_ = false;
  std::size_t in_flight_ = 0;
  // Replies finished on the pool, keyed by connection id.
  std::mutex done_mu_;
  std::vector<std::pair<std::uint64_t, std::string>> done_;
};

}  // namespace nue::service
