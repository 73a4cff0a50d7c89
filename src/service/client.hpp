// Blocking client for the nue_managerd wire protocol (docs/SERVICE.md):
// connect to the daemon's Unix-domain socket, send one '\n'-terminated
// JSON request line, read one response line. Shared by nue_routectl and
// the daemon integration test, so both exercise the exact byte protocol
// a foreign client would.
#pragma once

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "service/json.hpp"

namespace nue::service {

class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect " + socket_path + ": " +
                               std::strerror(err));
    }
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request/response round trip. Throws std::runtime_error when the
  /// daemon hangs up or replies with something that is not JSON.
  Json request(const Json& req) {
    send_line(req.dump());
    return Json::parse(read_line());
  }

 private:
  /// MSG_NOSIGNAL: a daemon that has gone away makes this throw (EPIPE)
  /// instead of raising a SIGPIPE that would kill the caller.
  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") +
                                 std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("read: ") + std::strerror(errno));
      }
      if (n == 0) {
        throw std::runtime_error("daemon closed the connection mid-response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  int fd_ = -1;
  std::string buffer_;  // carry-over between reads (pipelined responses)
};

}  // namespace nue::service
