// Thin POSIX socket layer under the net subsystem: an owning fd wrapper
// and the handful of TCP operations the server and client need. Every
// failure is a Status carrying errno context — callers never see raw
// return codes — and EINTR is retried at this layer so nothing above it
// has to care.

#ifndef PPDM_NET_SOCKET_H_
#define PPDM_NET_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace ppdm::net {

/// Owning file descriptor; move-only, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to host:port (port 0 picks an ephemeral
/// port — read it back with BoundPort). SO_REUSEADDR is set; the socket
/// is left blocking (the event loop switches accepted fds as needed).
Result<Socket> ListenTcp(const std::string& host, int port, int backlog);

/// The locally bound port of a listening socket.
Result<int> BoundPort(const Socket& socket);

/// A connected blocking TCP socket to host:port (SetNoDelay applied).
Result<Socket> ConnectTcp(const std::string& host, int port);

/// Sets TCP_NODELAY on a connected TCP socket, best effort: the protocol
/// is request/response over small frames, so Nagle's algorithm would hold
/// a response back until the peer's delayed ACK. Both ends set it — the
/// client on connect, the server on every accepted socket.
void SetNoDelay(int fd);

/// Marks `fd` non-blocking.
Status SetNonBlocking(int fd);

/// Writes all of `bytes` to a blocking socket (EINTR-safe loop). Sends
/// with MSG_NOSIGNAL: a peer that reset the connection is an EPIPE
/// Status, never a process-killing SIGPIPE.
Status WriteAll(int fd, std::string_view bytes);

/// Reads exactly `size` bytes into `buf` from a blocking socket;
/// kUnavailable("connection closed") on EOF before `size` bytes.
Status ReadExact(int fd, char* buf, std::size_t size);

}  // namespace ppdm::net

#endif  // PPDM_NET_SOCKET_H_
