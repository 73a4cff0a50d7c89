#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace nue::service {

namespace {

/// Longest request line (every op's request is far smaller): a longer one
/// gets the error envelope and its connection is closed, so a client that
/// never sends '\n' cannot grow the daemon's memory without bound.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

Json protocol_error(const std::string& what) {
  return Json::object().set("ok", false).set("op", "").set(
      "error", "protocol error: " + what);
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// send(2) until the buffer is gone; short writes are legal on sockets.
/// MSG_NOSIGNAL: a client that hangs up before reading its replies gets
/// EPIPE here, not a SIGPIPE that would kill the daemon and every shard.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // client hung up mid-response
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(std::string path, ManagerService& service)
    : path_(std::move(path)), service_(service) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path_);
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  ::unlink(path_.c_str());  // managerd owns its socket path
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    sys_fail("bind " + path_);
  }
  if (::listen(listen_fd_, 64) != 0) sys_fail("listen " + path_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) sys_fail("pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

SocketServer::~SocketServer() {
  stop();
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  ::unlink(path_.c_str());
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  const char byte = 'x';
  // Best effort: serve()'s poll wakes either on the pipe or its timeout.
  (void)!::write(wake_write_, &byte, 1);
}

void SocketServer::serve() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !service_.shutdown_requested()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, /*timeout_ms=*/100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (rc == 0) continue;  // timeout: re-check the shutdown flags
    if (fds[1].revents != 0) break;  // stop() poked the pipe
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      sys_fail("accept");
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    connections_.emplace_back([this, fd] { handle_connection(fd); });
  }
  stopping_.store(true, std::memory_order_release);
  // Drain: connection readers poll stopping_ every 100ms, so every open
  // connection winds down promptly and the caller can flush exporters.
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (auto& t : connections_) {
    if (t.joinable()) t.join();
  }
  connections_.clear();
}

void SocketServer::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;  // timeout: re-check stopping_
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: client closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (std::min(nl, buffer.size()) > kMaxRequestLine) {
        write_all(fd, protocol_error("request line exceeds " +
                                     std::to_string(kMaxRequestLine) +
                                     " bytes").dump() + "\n");
        open = false;
        break;
      }
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      Json resp;
      try {
        const Json req = Json::parse(line);
        // Dispatch onto the shared worker pool: the connection thread
        // only shuttles bytes, so one shard's long repair (or a slow
        // `load`) never starves requests arriving on other connections.
        std::promise<Json> done;
        std::future<Json> result = done.get_future();
        ThreadPool::shared().submit(
            [this, &req, &done] { done.set_value(service_.handle(req)); });
        resp = result.get();
      } catch (const std::exception& e) {
        resp = protocol_error(e.what());
      }
      if (!write_all(fd, resp.dump() + "\n")) {
        open = false;
        break;
      }
      if (service_.shutdown_requested()) {
        // The shutdown ack is written first, then the daemon winds down.
        stop();
        open = false;
        break;
      }
    }
  }
  ::close(fd);
}

}  // namespace nue::service
