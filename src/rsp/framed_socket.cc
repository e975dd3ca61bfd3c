#include "src/rsp/framed_socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/support/error.h"
#include "src/support/strings.h"

namespace duel::rsp {

void WriteAll(int fd, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  while (n > 0) {
    ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw DuelError(ErrorKind::kProtocol,
                      StrPrintf("socket write failed: %s", strerror(errno)));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
}

void ServeFramedPackets(int fd, const std::function<std::string(const std::string&)>& handle) {
  PacketDecoder rx;
  char buf[512];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return;  // peer closed (or the owner shut the socket down)
    }
    rx.Feed(buf, static_cast<size_t>(n));
    try {
      while (auto request = rx.NextPacket()) {
        WriteAll(fd, "+");
        WriteAll(fd, EncodePacket(handle(*request)));
      }
    } catch (const DuelError&) {
      return;  // peer gone mid-response: nothing left to serve
    }
  }
}

std::string ReadPacket(int fd, PacketDecoder& rx, uint64_t timeout_ms, std::string_view peer) {
  char buf[512];
  for (;;) {
    if (auto packet = rx.NextPacket()) {
      return *packet;
    }
    if (timeout_ms > 0) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int ready;
      do {
        ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (ready < 0 && errno == EINTR);
      if (ready < 0) {
        throw DuelError(ErrorKind::kProtocol,
                        StrPrintf("socket poll failed: %s", strerror(errno)));
      }
      if (ready == 0) {
        throw DuelError(ErrorKind::kProtocol,
                        StrPrintf("timed out after %llu ms waiting for the %.*s",
                                  static_cast<unsigned long long>(timeout_ms),
                                  static_cast<int>(peer.size()), peer.data()));
      }
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      throw DuelError(ErrorKind::kProtocol, std::string(peer) + " closed the connection");
    }
    rx.Feed(buf, static_cast<size_t>(n));
    rx.TakeAcks();
  }
}

}  // namespace duel::rsp
