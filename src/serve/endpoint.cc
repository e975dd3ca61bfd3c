#include "src/serve/endpoint.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/rsp/framed_socket.h"
#include "src/rsp/socket_transport.h"
#include "src/support/strings.h"

namespace duel::serve {

namespace {

std::string HexText(std::string_view s) { return HexEncode(s.data(), s.size()); }

bool DecodeText(std::string_view hex, std::string* out) {
  std::vector<uint8_t> bytes;
  if (!HexDecode(hex, &bytes)) {
    return false;
  }
  out->assign(bytes.begin(), bytes.end());
  return true;
}

}  // namespace

// --- SocketEndpoint ----------------------------------------------------------

SocketEndpoint::~SocketEndpoint() {
  std::vector<std::thread> threads;
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
    fds.swap(server_fds_);
  }
  for (int fd : fds) {
    ::shutdown(fd, SHUT_RDWR);  // unblocks the connection thread's read
  }
  for (std::thread& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  for (int fd : fds) {
    ::close(fd);
  }
}

int SocketEndpoint::Connect() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw DuelError(ErrorKind::kProtocol,
                    StrPrintf("socketpair failed: %s", strerror(errno)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  server_fds_.push_back(fds[1]);
  threads_.emplace_back([this, fd = fds[1]] { ConnectionLoop(fd); });
  return fds[0];
}

void SocketEndpoint::ConnectionLoop(int fd) {
  rsp::ServeFramedPackets(fd, [this](const std::string& request) { return Handle(request); });
}

std::string SocketEndpoint::Handle(const std::string& request) {
  if (request == "qDuelOpen") {
    return StrPrintf("S%llx", static_cast<unsigned long long>(service_->OpenSession()));
  }
  if (StartsWith(request, "qDuelEval:")) {
    std::string_view rest = std::string_view(request).substr(10);
    size_t colon = rest.find(':');
    uint64_t id = 0;
    std::string expr;
    if (colon == std::string_view::npos || !ParseHexU64(rest.substr(0, colon), &id) ||
        !DecodeText(rest.substr(colon + 1), &expr)) {
      return "E03";
    }
    QueryService::Outcome out = service_->Eval(id, expr);
    switch (out.status) {
      case SubmitStatus::kBusy:
        return "B";
      case SubmitStatus::kNoSuchClient:
        return "E00";
      case SubmitStatus::kShutdown:
        return "E01";
      case SubmitStatus::kAccepted:
        break;
    }
    return (out.result.ok ? "R" : "Q") + HexText(out.result.Text());
  }
  if (StartsWith(request, "qDuelCancel:")) {
    std::string_view rest = std::string_view(request).substr(12);
    size_t colon = rest.find(':');
    uint64_t id = 0;
    std::string reason;
    if (colon == std::string_view::npos || !ParseHexU64(rest.substr(0, colon), &id) ||
        !DecodeText(rest.substr(colon + 1), &reason)) {
      return "E03";
    }
    return service_->Cancel(id, reason) ? "OK" : "E00";
  }
  if (StartsWith(request, "qDuelClose:")) {
    uint64_t id = 0;
    if (!ParseHexU64(std::string_view(request).substr(11), &id)) {
      return "E03";
    }
    return service_->CloseSession(id) ? "OK" : "E00";
  }
  if (request == "qDuelStats") {
    return "T" + HexText(service_->stats().ToJson());
  }
  return "";  // unknown verb: the RSP convention
}

// --- EndpointClient ----------------------------------------------------------

EndpointClient::~EndpointClient() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
  }
}

std::string EndpointClient::RoundTrip(const std::string& request) {
  rsp::WriteAll(fd_, rsp::EncodePacket(request));
  return rsp::ReadPacket(fd_, rx_, rsp::SocketTransport::kDefaultReceiveTimeoutMs,
                         "query service");
}

uint64_t EndpointClient::Open() {
  std::string r = RoundTrip("qDuelOpen");
  uint64_t id = 0;
  if (r.empty() || r[0] != 'S' || !ParseHexU64(std::string_view(r).substr(1), &id)) {
    return 0;
  }
  return id;
}

EndpointClient::EvalReply EndpointClient::Eval(uint64_t session, const std::string& expr) {
  std::string r = RoundTrip(StrPrintf("qDuelEval:%llx:", static_cast<unsigned long long>(session)) +
                            HexText(expr));
  EvalReply reply;
  if (r == "B") {
    reply.status = SubmitStatus::kBusy;
    return reply;
  }
  if (r == "E01") {
    reply.status = SubmitStatus::kShutdown;
    return reply;
  }
  if (r.empty() || r == "E03") {
    // Unknown verb / malformed request: an encoding bug on this side, not a
    // verdict about the session. Surface it as the protocol error it is
    // rather than letting callers retry against a "missing" session.
    throw DuelError(ErrorKind::kProtocol,
                    r.empty() ? "query service did not recognize qDuelEval"
                              : "query service rejected a malformed qDuelEval");
  }
  if (r == "E00") {
    reply.status = SubmitStatus::kNoSuchClient;
    return reply;
  }
  reply.status = SubmitStatus::kAccepted;
  reply.ok = r[0] == 'R';
  DecodeText(std::string_view(r).substr(1), &reply.text);
  return reply;
}

bool EndpointClient::Cancel(uint64_t session, const std::string& reason) {
  return RoundTrip(StrPrintf("qDuelCancel:%llx:", static_cast<unsigned long long>(session)) +
                   HexText(reason)) == "OK";
}

bool EndpointClient::Close(uint64_t session) {
  return RoundTrip(StrPrintf("qDuelClose:%llx", static_cast<unsigned long long>(session))) == "OK";
}

std::string EndpointClient::StatsJson() {
  std::string r = RoundTrip("qDuelStats");
  std::string json;
  if (!r.empty() && r[0] == 'T') {
    DecodeText(std::string_view(r).substr(1), &json);
  }
  return json;
}

}  // namespace duel::serve
