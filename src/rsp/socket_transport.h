// A real byte-stream transport: RSP packets over a socketpair, with the
// server running in its own thread — the closest in-process analog of DUEL
// attached to a remote debugger over TCP. Exercises partial reads, framing
// resynchronization and acks on an actual kernel byte stream.

#ifndef DUEL_RSP_SOCKET_TRANSPORT_H_
#define DUEL_RSP_SOCKET_TRANSPORT_H_

#include <thread>

#include "src/rsp/transport.h"

namespace duel::rsp {

class SocketTransport final : public Transport {
 public:
  // Spawns a server thread answering requests from `server` over a
  // socketpair. The backend behind `server` is only ever touched from the
  // server thread while the client blocks in RoundTrip, so no extra locking
  // is needed for the request/response discipline.
  explicit SocketTransport(RspServer& server);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  std::string RoundTrip(const std::string& request) override;

  // How long RoundTrip waits for response bytes before giving up with a
  // kProtocol error (0 = wait forever). A dead or wedged server thread must
  // not block the client indefinitely mid-round-trip; after a timeout the
  // stream may hold a late half-response, so the transport should be
  // discarded rather than reused.
  void set_receive_timeout_ms(uint64_t ms) { receive_timeout_ms_ = ms; }
  uint64_t receive_timeout_ms() const { return receive_timeout_ms_; }
  static constexpr uint64_t kDefaultReceiveTimeoutMs = 30'000;

 private:
  int client_fd_ = -1;
  int server_fd_ = -1;
  uint64_t receive_timeout_ms_ = kDefaultReceiveTimeoutMs;
  std::thread server_thread_;
  PacketDecoder client_rx_;
};

}  // namespace duel::rsp

#endif  // DUEL_RSP_SOCKET_TRANSPORT_H_
