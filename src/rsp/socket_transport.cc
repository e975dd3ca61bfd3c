#include "src/rsp/socket_transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/rsp/framed_socket.h"
#include "src/support/strings.h"

namespace duel::rsp {

SocketTransport::SocketTransport(RspServer& server) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw DuelError(ErrorKind::kProtocol,
                    StrPrintf("socketpair failed: %s", strerror(errno)));
  }
  client_fd_ = fds[0];
  server_fd_ = fds[1];
  server_thread_ = std::thread([this, &server] {
    ServeFramedPackets(server_fd_,
                       [&server](const std::string& request) { return server.Handle(request); });
  });
}

SocketTransport::~SocketTransport() {
  if (client_fd_ >= 0) {
    ::shutdown(client_fd_, SHUT_RDWR);
    ::close(client_fd_);
  }
  if (server_thread_.joinable()) {
    server_thread_.join();
  }
  if (server_fd_ >= 0) {
    ::close(server_fd_);
  }
}

std::string SocketTransport::RoundTrip(const std::string& request) {
  round_trips_++;
  std::string wire = EncodePacket(request);
  bytes_on_wire_ += wire.size() + 1;  // +1 for the server's ack
  WriteAll(client_fd_, wire);
  std::string response = ReadPacket(client_fd_, client_rx_, receive_timeout_ms_, "remote debugger");
  bytes_on_wire_ += response.size();
  return response;
}

}  // namespace duel::rsp
