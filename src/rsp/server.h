// The debugger side of the DUEL remote protocol.
//
// RspServer answers requests against a local DebuggerBackend — this is what
// a gdb hosting DUEL remotely would run. Request vocabulary (payloads; all
// numbers hex, names hex-encoded, types in the ctype_io wire format):
//
//   m<addr>,<len>                read memory        -> <hexbytes> | E01
//   M<addr>,<len>:<hexbytes>     write memory       -> OK | E01
//   qValid:<addr>,<len>          validity check     -> OK | E01
//   qAlloc:<size>,<align>        alloc target space -> A<addr>
//   qVar:<name-hex>              variable lookup    -> V<addr>;<type> | E00
//   qFunc:<name-hex>             function lookup    -> F<addr>;<type> | E00
//   qTypedef:<name-hex>          typedef lookup     -> T<type> | E00
//   qStruct:<tag-hex> / qUnion: / qEnum:            -> T<type> | E00
//   qEnumConst:<name-hex>        enumerator lookup  -> C<value>;<type> | E00
//   qDuelSymEpoch                symbol epoch       -> S<epoch>
//   qFrames                      frame count        -> N<count>
//   qFrameFn:<n>                 frame function     -> F<name-hex>
//   qFrameLocals:<n>             frame locals       -> L<name-hex>,<addr>,<type>;...
//   qDuelReadV:<addr>,<len>;...  vectored prefix read -> V<hexbytes>;... | E03
//   vCall:<name-hex>:<type>,<hexbytes>;...          -> R<type>,<hexbytes> | E02:<msg-hex>
//
// qDuelSymEpoch reports the backend's SymbolEpoch(): the client compares it
// to decide whether its cached query plans still bind the right names.
//
// Unknown requests get an empty response (the RSP convention).

#ifndef DUEL_RSP_SERVER_H_
#define DUEL_RSP_SERVER_H_

#include <deque>
#include <string>

#include "src/dbg/backend.h"
#include "src/support/obs/trace.h"

namespace duel::rsp {

// One logged wire packet (request or response payload).
struct WirePacket {
  bool is_request = false;
  std::string payload;
  uint64_t ns = 0;  // steady-clock timestamp (obs::NowNs)
};

class RspServer {
 public:
  explicit RspServer(dbg::DebuggerBackend& backend) : backend_(&backend) {}
  virtual ~RspServer() = default;

  // Handles one request payload, returning the response payload. Virtual so
  // tests can model a misbehaving remote side (e.g. one that hangs and
  // never answers, to exercise the transport's receive timeout).
  virtual std::string Handle(const std::string& request);

  uint64_t requests_handled() const { return requests_; }

  // Wire-level packet log: while enabled, every request/response payload is
  // appended to a bounded deque (oldest packets dropped past the cap).
  void set_packet_logging(bool on) { log_packets_ = on; }
  bool packet_logging() const { return log_packets_; }
  const std::deque<WirePacket>& packet_log() const { return packet_log_; }
  void ClearPacketLog() { packet_log_.clear(); }
  static constexpr size_t kMaxLoggedPackets = 512;

 private:
  std::string HandleImpl(const std::string& request);
  void LogPacket(bool is_request, const std::string& payload);

  dbg::DebuggerBackend* backend_;
  uint64_t requests_ = 0;
  bool log_packets_ = false;
  std::deque<WirePacket> packet_log_;
};

}  // namespace duel::rsp

#endif  // DUEL_RSP_SERVER_H_
