#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/strings.h"

namespace ppdm::net {
namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(err)));
}

/// getaddrinfo for one numeric-or-named IPv4/IPv6 host; the callback is
/// tried per candidate address until one succeeds.
Result<Socket> ForEachAddress(const std::string& host, int port,
                              bool passive,
                              const std::function<Status(int, const addrinfo&)>&
                                  bind_or_connect) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string service = StrFormat("%d", port);
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &results);
  if (rc != 0) {
    return Status::IoError(StrFormat("resolve %s:%d: %s", host.c_str(), port,
                                     ::gai_strerror(rc)));
  }
  Status last = Status::IoError(
      StrFormat("no usable address for %s:%d", host.c_str(), port));
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus("socket", errno);
      continue;
    }
    Socket socket(fd);
    if (Status s = bind_or_connect(fd, *ai); !s.ok()) {
      last = std::move(s);
      continue;  // socket closes on scope exit
    }
    ::freeaddrinfo(results);
    return socket;
  }
  ::freeaddrinfo(results);
  return last;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenTcp(const std::string& host, int port, int backlog) {
  return ForEachAddress(host, port, /*passive=*/true,
                        [backlog](int fd, const addrinfo& ai) -> Status {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai.ai_addr, ai.ai_addrlen) != 0) {
      return ErrnoStatus("bind", errno);
    }
    if (::listen(fd, backlog) != 0) return ErrnoStatus("listen", errno);
    return Status::Ok();
  });
}

Result<int> BoundPort(const Socket& socket) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname", errno);
  }
  if (addr.ss_family == AF_INET) {
    return static_cast<int>(
        ntohs(reinterpret_cast<const sockaddr_in&>(addr).sin_port));
  }
  if (addr.ss_family == AF_INET6) {
    return static_cast<int>(
        ntohs(reinterpret_cast<const sockaddr_in6&>(addr).sin6_port));
  }
  return Status::Internal("unknown socket address family");
}

Result<Socket> ConnectTcp(const std::string& host, int port) {
  Result<Socket> socket = ForEachAddress(
      host, port, /*passive=*/false, [](int fd, const addrinfo& ai) -> Status {
        int rc;
        do {
          rc = ::connect(fd, ai.ai_addr, ai.ai_addrlen);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) return ErrnoStatus("connect", errno);
        return Status::Ok();
      });
  if (socket.ok()) SetNoDelay(socket.value().fd());
  return socket;
}

void SetNoDelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)", errno);
  }
  return Status::Ok();
}

Status WriteAll(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection surfaces as an EPIPE
    // Status instead of a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", errno);
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadExact(int fd, char* buf, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, buf + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", errno);
    }
    if (n == 0) {
      return Status::Unavailable(
          StrFormat("connection closed after %zu of %zu bytes", got, size));
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace ppdm::net
