#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace nue::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest request line (every op's request is far smaller): a longer one
/// gets the error envelope and its connection is closed, so a client that
/// never sends '\n' cannot grow the daemon's memory without bound.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// How long a winding-down serve() keeps flushing pending replies after
/// the pool requests have finished. A client that reads its replies
/// takes them in microseconds; one that stopped reading is cut off here.
constexpr Clock::duration kDrainDeadline = std::chrono::seconds(1);

Json protocol_error(const std::string& what) {
  return Json::object().set("ok", false).set("op", "").set(
      "error", "protocol error: " + what);
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

struct SocketServer::Connection {
  Connection(std::uint64_t id_, int fd_) : id(id_), fd(fd_) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const std::uint64_t id;
  int fd;               // -1 once closed (erased at the end of the pass)
  std::string in;       // bytes read, not yet taken as request lines
  std::string out;      // the one pending reply, `sent` bytes of it written
  std::size_t sent = 0;
  bool busy = false;    // its request is on the pool
  bool eof = false;     // client half-closed: serve buffered lines, then close
  bool last = false;    // close once `out` is written (oversize line)

  void close() {
    ::close(fd);
    fd = -1;
  }

  /// Write as much of `out` as the socket takes. MSG_NOSIGNAL: a client
  /// that hangs up before reading its replies gets EPIPE here, not a
  /// SIGPIPE that would kill the daemon and every shard.
  void flush() {
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) close();
        return;  // EAGAIN: poll() reports when it can take more
      }
      sent += static_cast<std::size_t>(n);
    }
    out.clear();
    sent = 0;
    if (last) close();
  }

  /// What poll() should watch: nothing while the request is on the pool
  /// (not even a hang-up, which poll() reports regardless and would spin
  /// the loop), writability while a reply is pending, else new input.
  short events(bool winding) const {
    if (fd < 0 || busy) return 0;
    if (!out.empty()) return POLLOUT;
    return winding || eof ? 0 : POLLIN;
  }
};

SocketServer::SocketServer(std::string path, ManagerService& service)
    : path_(std::move(path)), service_(service) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path_);
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  ::unlink(path_.c_str());  // managerd owns its socket path
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    sys_fail("bind " + path_);
  }
  if (::listen(listen_fd_, 64) != 0) sys_fail("listen " + path_);

  // Neither end may block: the loop drains the pipe until it is empty,
  // and a poke into a full pipe is redundant anyway.
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) sys_fail("pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

SocketServer::~SocketServer() {
  stop();
  // A serve() that threw can leave requests on the pool, and each posts
  // to done_ and the pipe when it finishes: wait for them first.
  while (in_flight_ > 0) {
    pollfd wake{wake_read_, POLLIN, 0};
    ::poll(&wake, 1, -1);
    take_replies();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  ::unlink(path_.c_str());
}

void SocketServer::wake() {
  const char byte = 'x';
  (void)!::write(wake_write_, &byte, 1);
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  wake();
}

void SocketServer::dispatch(Connection& c, const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    c.out = protocol_error(e.what()).dump() + "\n";
    return;
  }
  // Only `route` is answered on the loop: every other op may wait on a
  // shard's event lock or do real work (DESIGN.md §6).
  if (req.str("op") == "route") {
    c.out = service_.handle(req).dump() + "\n";
    return;
  }
  c.busy = true;
  ++in_flight_;
  ThreadPool::shared().submit([this, id = c.id, req = std::move(req)] {
    std::string reply = service_.handle(req).dump() + "\n";
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.emplace_back(id, std::move(reply));
    // Poke under the lock: once serve() has taken the last reply it may
    // return and the server be destroyed, pipe included.
    wake();
  });
}

void SocketServer::advance(Connection& c) {
  while (c.fd >= 0 && !c.busy && c.out.empty() && !winding_) {
    const std::size_t nl = c.in.find('\n');
    if (std::min(nl, c.in.size()) > kMaxRequestLine) {
      c.out = protocol_error("request line exceeds " +
                             std::to_string(kMaxRequestLine) + " bytes")
                  .dump() +
              "\n";
      c.last = true;
      c.flush();
      return;
    }
    if (nl == std::string::npos) {
      if (c.eof) c.close();
      return;
    }
    const std::string line = c.in.substr(0, nl);
    c.in.erase(0, nl + 1);
    if (line.empty()) continue;
    dispatch(c, line);
    if (!c.out.empty()) c.flush();
  }
}

std::vector<std::pair<std::uint64_t, std::string>>
SocketServer::take_replies() {
  char drain[256];
  while (::read(wake_read_, drain, sizeof(drain)) > 0) {
  }
  std::vector<std::pair<std::uint64_t, std::string>> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  in_flight_ -= done.size();
  return done;
}

void SocketServer::serve() {
  std::vector<std::unique_ptr<Connection>> conns;  // closed on any exit
  std::vector<pollfd> fds;
  std::uint64_t next_id = 0;
  Clock::time_point deadline{};
  for (;;) {
    if (!winding_ && (stopping_.load(std::memory_order_acquire) ||
                      service_.shutdown_requested())) {
      // stop(), or a `shutdown` acknowledged on the pool (its ack is
      // flushed below like any pending reply): stop accepting and
      // reading, wait for the pool, then flush for kDrainDeadline.
      winding_ = true;
      stopping_.store(true, std::memory_order_release);
      deadline = Clock::now() + kDrainDeadline;
    }
    int timeout_ms = -1;  // the pipe wakes us while the pool is busy
    if (winding_) {
      const Clock::time_point now = Clock::now();
      if (in_flight_ > 0) {
        deadline = now + kDrainDeadline;  // runs once the pool is idle
      } else if (now >= deadline ||
                 std::none_of(conns.begin(), conns.end(), [](const auto& c) {
                   return !c->out.empty();
                 })) {
        break;
      } else {
        timeout_ms = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
                .count());
      }
    }

    fds.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    fds.push_back({winding_ ? -1 : listen_fd_, POLLIN, 0});
    for (const auto& c : conns) {
      const short ev = c->events(winding_);
      fds.push_back({ev != 0 ? c->fd : -1, ev, 0});
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = *conns[i];
      const short rev = fds[i + 2].revents;
      if (rev == 0 || c.fd < 0) continue;
      if (!c.out.empty()) {
        c.flush();
      } else {
        char chunk[65536];
        const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
          c.in.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0) {
          c.eof = true;
        } else if (errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          c.close();
        }
      }
      advance(c);
    }
    if (fds[0].revents != 0) {
      for (auto& [id, reply] : take_replies()) {
        // Never end(): a connection is not closed while it is busy.
        const auto it = std::find_if(
            conns.begin(), conns.end(),
            [id = id](const auto& c) { return c->id == id; });
        Connection& c = **it;
        c.busy = false;
        c.out = std::move(reply);
        c.flush();
        advance(c);
      }
    }
    if (fds[1].revents != 0) {
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR || errno == ECONNABORTED) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          sys_fail("accept");
        }
        conns.push_back(std::make_unique<Connection>(next_id++, fd));
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const auto& c) { return c->fd < 0; }),
                conns.end());
  }
}

}  // namespace nue::service
