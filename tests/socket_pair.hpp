// Both ends of a connected AF_UNIX stream socket pair, as blocking
// TcpTransports: the raw link that transport-level tests and hand-rolled
// fake peers talk over. (Sessions with the real server use
// DeltaServer::connect_local, which makes the same kind of pair.)
#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <memory>
#include <utility>

#include "core/io.hpp"
#include "net/tcp_transport.hpp"

namespace ipd::test {

inline std::pair<std::unique_ptr<TcpTransport>, std::unique_ptr<TcpTransport>>
socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw TransportError(NetErrc::kSocket, "test: socketpair",
                         errno_message(errno));
  }
  return {std::make_unique<TcpTransport>(fds[0], "pair:a"),
          std::make_unique<TcpTransport>(fds[1], "pair:b")};
}

}  // namespace ipd::test
