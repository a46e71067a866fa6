#include "net/delta_server.hpp"

#include <sys/socket.h>

#include <cerrno>

#include "core/io.hpp"

namespace ipd {

DeltaServer::DeltaServer(DeltaService& service, const ServerConfig& config)
    : service_(service), config_(config.validated()) {}

DeltaServer::~DeltaServer() { stop(); }

Reactor& DeltaServer::running_reactor() {
  if (!reactor_) {
    auto reactor = std::make_unique<Reactor>(service_, config_);
    reactor->start();
    reactor_ = std::move(reactor);
  }
  return *reactor_;
}

void DeltaServer::start() {
  MutexLock lock(state_mutex_);
  if (listener_) throw Error("DeltaServer: already started");
  auto listener = std::make_unique<TcpListener>(config_.port);
  running_reactor().listen(*listener);
  listener_ = std::move(listener);
}

std::unique_ptr<Transport> DeltaServer::connect_local() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw TransportError(NetErrc::kSocket, "local: socketpair",
                         errno_message(errno));
  }
  auto server_end = std::make_unique<TcpTransport>(fds[0], "local");
  auto client_end = std::make_unique<TcpTransport>(fds[1], "local");
  MutexLock lock(state_mutex_);
  running_reactor().adopt(std::move(server_end));
  return client_end;
}

void DeltaServer::stop() {
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<Reactor> reactor;  // destroyed first: it watches listener
  {
    MutexLock lock(state_mutex_);
    listener = std::move(listener_);
    reactor = std::move(reactor_);
  }
  if (reactor) reactor->stop();
}

std::uint16_t DeltaServer::port() const {
  MutexLock lock(state_mutex_);
  if (!listener_) throw Error("DeltaServer: not started");
  return listener_->port();
}

std::size_t DeltaServer::active_sessions() const {
  MutexLock lock(state_mutex_);
  return reactor_ ? reactor_->active_connections() : 0;
}

}  // namespace ipd
