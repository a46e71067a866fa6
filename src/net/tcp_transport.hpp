// POSIX stream-socket implementation of the Transport interface: TCP
// connections, and any other connected stream descriptor it is handed
// (DeltaServer::connect_local wraps both ends of an AF_UNIX socket pair).
//
// Blocking sockets, one per session. close() uses shutdown(2) rather
// than close(2) so a read blocked on another thread wakes immediately
// without an fd-reuse race; the descriptor is released only by the
// destructor. Idle timeouts map to SO_RCVTIMEO. The listener is
// non-blocking and feeds the server's epoll reactor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/transport.hpp"

namespace ipd {

class TcpTransport final : public Transport {
 public:
  /// Connect to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  /// Throws TransportError on failure.
  static std::unique_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port);

  /// Adopt an already-connected stream descriptor (accepted, or one end
  /// of a socket pair); the transport owns it from here on.
  TcpTransport(int fd, std::string peer);
  ~TcpTransport() override;

  std::size_t read_some(MutByteView out) override;
  void write_all(ByteView data) override;
  void close() noexcept override;
  void set_read_timeout(int ms) override;
  std::string peer() const override { return peer_; }

  /// The socket, for the reactor's epoll set.
  int native_handle() const noexcept { return fd_; }
  /// Switch the socket between blocking and non-blocking mode.
  void set_nonblocking(bool enabled);

 private:
  int fd_;
  std::atomic<bool> closed_{false};
  std::string peer_;
};

class TcpListener {
 public:
  /// Bind and listen, non-blocking, on 127.0.0.1:`port`; 0 picks an
  /// ephemeral port (read it back with port()). Throws TransportError on
  /// failure — callers in sandboxed environments should treat that as
  /// "no network here", not crash.
  explicit TcpListener(std::uint16_t port, int backlog = 64);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// The next queued connection, or nullptr when none is pending.
  /// Pair with an epoll watch on native_handle(). Throws TransportError
  /// on accept failure.
  std::unique_ptr<TcpTransport> try_accept();

  /// Listening descriptor, for event-driven accept loops.
  int native_handle() const noexcept { return fd_; }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

}  // namespace ipd
