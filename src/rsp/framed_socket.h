// Framed-packet I/O over a connected stream socket: the write, serve and
// receive loops that rsp::SocketTransport and serve::SocketEndpoint share.

#ifndef DUEL_RSP_FRAMED_SOCKET_H_
#define DUEL_RSP_FRAMED_SOCKET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/rsp/packet.h"

namespace duel::rsp {

// Writes all of `data` to `fd`; throws DuelError(kProtocol) when the write
// fails. A peer that already closed surfaces as that error (EPIPE), never as
// a process-killing SIGPIPE.
void WriteAll(int fd, std::string_view data);

// Server side: reads RSP-framed requests off `fd`, acks each one and writes
// back the framed `handle(request)`. Returns when the peer closes the stream
// or goes away mid-response.
void ServeFramedPackets(int fd, const std::function<std::string(const std::string&)>& handle);

// Client side: the next packet on `fd`, consuming acks, with `rx` holding
// bytes between calls. Each wait for bytes gives up after `timeout_ms` (0:
// wait forever), so a dead or wedged `peer` cannot block the caller; after a
// timeout the stream may still hold a late half-response and should be
// dropped. Throws DuelError(kProtocol) on timeout or when the peer closes.
std::string ReadPacket(int fd, PacketDecoder& rx, uint64_t timeout_ms, std::string_view peer);

}  // namespace duel::rsp

#endif  // DUEL_RSP_FRAMED_SOCKET_H_
