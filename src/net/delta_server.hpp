// DeltaServer: the wire front end of the delta distribution service.
//
// Every session runs through one epoll reactor (net/reactor.hpp): one
// event-loop thread multiplexes every connection with non-blocking
// framed I/O, bounded per-connection output queues, and zero-copy
// writev of cached artifacts. CPU-bound delta builds run on the
// DeltaService's shared build pool via serve_async(); a completed build
// re-arms its connection for writing through an eventfd mailbox. The
// loop thread never blocks on a socket or a build.
//
// Connections reach the loop two ways, and take the same path from
// admission on:
//   * start() binds a TCP listener on 127.0.0.1;
//   * connect_local() hands the loop one end of an AF_UNIX socket pair
//     and returns the other — no TCP port, so tests and the campaign
//     simulator run the production session loop where localhost TCP is
//     unavailable.
// Either one starts the loop; they work in either order.
//
// Operational guard rails (all typed, never a silent stall):
//   * connection limit — excess clients get ERROR{kShed} and a close
//     (retryable: the OTA client backs off and reconnects);
//   * build-queue limit — requests beyond max_pending_builds get
//     ERROR{kShed} while the connection stays up;
//   * idle timeout — a connection with no read/write progress for
//     idle_timeout_ms is dropped;
//   * per-request errors (unknown release ids, bad resume offsets) are
//     answered with typed ERROR frames and the connection stays up.
//
// One request streams ONE artifact: the first step of the route the
// service picked. A chain upgrade is the client asking hop by hop, so
// every hop artifact is shared through the service cache across the
// whole straggler fleet.
#pragma once

#include <memory>

#include "core/sync.hpp"
#include "net/reactor.hpp"
#include "net/server_config.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "server/delta_service.hpp"

namespace ipd {

class DeltaServer {
 public:
  /// `service` must outlive the server. Throws ValidationError if
  /// `config` does not validate (see ServerConfig).
  explicit DeltaServer(DeltaService& service,
                       const ServerConfig& config = {});
  ~DeltaServer();

  DeltaServer(const DeltaServer&) = delete;
  DeltaServer& operator=(const DeltaServer&) = delete;

  /// Bind the TCP listener and start the reactor if connect_local() has
  /// not. Throws TransportError if the bind fails, Error if already
  /// started.
  void start();

  /// Open a session with the reactor over a fresh socket pair and return
  /// the client end (blocking, like TcpTransport::connect). Starts the
  /// reactor if it is not running; binds no TCP port. Thread-safe.
  /// Throws TransportError if the pair cannot be made.
  std::unique_ptr<Transport> connect_local();

  /// Stop accepting, close every live connection, and join the reactor.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Actual listening port (after start()).
  std::uint16_t port() const;

  /// Connections currently registered with the reactor.
  std::size_t active_sessions() const;

  const ServerConfig& config() const noexcept { return config_; }

 private:
  Reactor& running_reactor() REQUIRES(state_mutex_);

  DeltaService& service_;
  ServerConfig config_;

  /// start(), stop() and connect_local() may race from different
  /// threads (the destructor runs stop() from whichever thread drops
  /// the server); exactly one concurrent start() wins.
  mutable Mutex state_mutex_{"DeltaServer::state"};
  std::unique_ptr<TcpListener> listener_ GUARDED_BY(state_mutex_);
  std::unique_ptr<Reactor> reactor_ GUARDED_BY(state_mutex_);
};

}  // namespace ipd
