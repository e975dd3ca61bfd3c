// Remote protocol: packet codec properties, server request handling, and a
// full DUEL session running over the RemoteBackend — output must be
// byte-identical to the in-process SimBackend.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <mutex>

#include "src/rsp/framed_socket.h"
#include "src/rsp/packet.h"
#include "src/target/ctype_io.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/socket_transport.h"
#include "src/rsp/transport.h"
#include "src/support/strings.h"
#include "tests/duel_test_util.h"

namespace duel::rsp {
namespace {

TEST(PacketTest, EncodeBasics) {
  EXPECT_EQ(EncodePacket(""), "$#00");
  EXPECT_EQ(EncodePacket("OK"), "$OK#9a");
}

TEST(PacketTest, RoundTripWithEscapes) {
  const std::string payloads[] = {
      "", "OK", "m1000,4", "a$b#c}d*e", std::string("\x00\x7d\x24", 3),
  };
  for (const std::string& p : payloads) {
    std::string wire = EncodePacket(p);
    PacketDecoder dec;
    dec.Feed(wire.data(), wire.size());
    auto got = dec.NextPacket();
    ASSERT_TRUE(got.has_value()) << HexEncode(p.data(), p.size());
    EXPECT_EQ(*got, p);
  }
}

TEST(PacketTest, ByteAtATimeFeeding) {
  std::string wire = EncodePacket("qVar:78");
  PacketDecoder dec;
  for (char c : wire) {
    dec.Feed(&c, 1);
  }
  auto got = dec.NextPacket();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "qVar:78");
}

TEST(PacketTest, ChecksumMismatchDropsPacket) {
  std::string wire = EncodePacket("hello");
  wire[wire.size() - 1] ^= 1;  // corrupt the checksum
  PacketDecoder dec;
  dec.Feed(wire.data(), wire.size());
  EXPECT_FALSE(dec.NextPacket().has_value());
  EXPECT_EQ(dec.bad_checksums(), 1u);
  EXPECT_EQ(dec.TakeNaks(), 1);
}

TEST(PacketTest, AcksAndGarbageBetweenPackets) {
  PacketDecoder dec;
  std::string stream = "+" + EncodePacket("a") + "junk-" + EncodePacket("b");
  dec.Feed(stream.data(), stream.size());
  EXPECT_EQ(dec.TakeAcks(), 1);
  EXPECT_EQ(*dec.NextPacket(), "a");
  EXPECT_EQ(*dec.NextPacket(), "b");
  EXPECT_EQ(dec.TakeNaks(), 1);  // the stray '-'
}

TEST(PacketTest, MultiplePacketsInOneFeed) {
  PacketDecoder dec;
  std::string stream = EncodePacket("one") + EncodePacket("two");
  dec.Feed(stream.data(), stream.size());
  EXPECT_EQ(*dec.NextPacket(), "one");
  EXPECT_EQ(*dec.NextPacket(), "two");
  EXPECT_FALSE(dec.NextPacket().has_value());
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : backend_(image_), server_(backend_) {
    target::InstallStandardFunctions(image_);
    scenarios::BuildIntArray(image_, "x", {10, 20, 30});
  }

  target::TargetImage image_;
  dbg::SimBackend backend_;
  RspServer server_;
};

TEST_F(ServerTest, MemoryReadWrite) {
  target::Addr x = image_.symbols().FindVariable("x")->addr;
  std::string r = server_.Handle("m" + HexU64(x) + ",4");
  EXPECT_EQ(r, "0a000000");
  EXPECT_EQ(server_.Handle("M" + HexU64(x) + ",4:2a000000"), "OK");
  EXPECT_EQ(image_.memory().ReadScalar<int32_t>(x), 42);
  EXPECT_EQ(server_.Handle("mdead0000,4"), "E01");
  EXPECT_EQ(server_.Handle("qValid:" + HexU64(x) + ",4"), "OK");
  EXPECT_EQ(server_.Handle("qValid:dead0000,4"), "E01");
}

TEST_F(ServerTest, VariableAndTypeQueries) {
  std::string name_hex = HexEncode("x", 1);
  std::string r = server_.Handle("qVar:" + name_hex);
  EXPECT_TRUE(StartsWith(r, "V")) << r;
  EXPECT_NE(r.find(";A3:i"), std::string::npos) << r;  // int[3]
  EXPECT_EQ(server_.Handle("qVar:" + HexEncode("zz", 2)), "E00");
  EXPECT_TRUE(StartsWith(server_.Handle("qFunc:" + HexEncode("printf", 6)), "F"));
  std::string epoch = server_.Handle("qDuelSymEpoch");
  EXPECT_TRUE(StartsWith(epoch, "S")) << epoch;
  scenarios::BuildIntArray(image_, "y", {1});  // AddGlobal moves the epoch
  EXPECT_NE(server_.Handle("qDuelSymEpoch"), epoch);
}

TEST_F(ServerTest, MalformedRequests) {
  EXPECT_EQ(server_.Handle("m123"), "E03");
  EXPECT_EQ(server_.Handle("Mzz,4:00"), "E03");
  EXPECT_EQ(server_.Handle("qAlloc:xx,1"), "E03");
  EXPECT_EQ(server_.Handle("zzz"), "");  // unknown: empty per RSP convention
}

TEST_F(ServerTest, CallThroughProtocol) {
  target::TypeTable& tt = image_.types();
  std::string arg_type = target::SerializeType(tt.Int());
  std::string req = "vCall:" + HexEncode("abs", 3) + ":" + arg_type + ",";
  int32_t v = -7;
  req += HexEncode(&v, 4) + ";";
  std::string r = server_.Handle(req);
  ASSERT_TRUE(StartsWith(r, "R")) << r;
  EXPECT_NE(r.find("07000000"), std::string::npos) << r;
}

// --- end-to-end: a DUEL session over the remote backend ------------------------

class RemoteEndToEndTest : public ::testing::TestWithParam<SessionConfig> {};

TEST_P(RemoteEndToEndTest, RemoteMatchesLocal) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9});
  scenarios::BuildList(image, "L", {5, 3, 8, 3});
  scenarios::BuildSymtab(image, {{1, {{"a", 7}, {"b", 2}}}});
  scenarios::BuildFrames(image, 3);

  dbg::SimBackend sim(image);
  RspServer server(sim);
  FramedTransport transport(server);
  RemoteBackend remote(transport);

  SessionOptions opts = ConfigOptions(GetParam());
  Session local_session(sim, opts);
  Session remote_session(remote, opts);

  const char* kQueries[] = {
      "x[..6] >? 0",
      "L-->next->value",
      "hash[1]-->next->(scope,name)",
      "#/(L-->next)",
      "int i; for (i = 0; i < 6; i++) x[i] >? 1",
      "(struct symbol *)0 == 0",
      "printf(\"%d \", x[..3]) ;",
      "frames()",
      "frames().x",
  };
  for (const char* q : kQueries) {
    QueryResult a = local_session.Query(q);
    QueryResult b = remote_session.Query(q);
    EXPECT_EQ(a.ok, b.ok) << q << "\nlocal: " << a.error << "\nremote: " << b.error;
    EXPECT_EQ(a.lines, b.lines) << q;
  }
  EXPECT_GT(transport.round_trips(), 0u);
  EXPECT_GT(transport.bytes_on_wire(), 0u);
}

TEST_P(RemoteEndToEndTest, RemoteFaultsMatchLocal) {
  target::TargetImage image;
  target::ImageBuilder b(image);
  target::TypeRef t = b.Struct("T").Field("val", b.Int()).Build();
  target::Addr p = b.Global("p", b.Ptr(t));
  b.PokePtr(p, 0xbad00);

  dbg::SimBackend sim(image);
  RspServer server(sim);
  FramedTransport transport(server);
  RemoteBackend remote(transport);

  SessionOptions opts = ConfigOptions(GetParam());
  Session remote_session(remote, opts);
  QueryResult r = remote_session.Query("p->val");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Illegal memory reference"), std::string::npos) << r.error;
}

INSTANTIATE_TEST_SUITE_P(BothEngines, RemoteEndToEndTest, kSessionConfigs, SessionConfigName);

// The server reports its symbol epoch, so a remote session's cached plan (and
// its "unknown name" verdict) is rebuilt once the target defines the name.
TEST(RemoteStalenessTest, SymbolDefinedLaterIsSeenByCachedPlan) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  dbg::SimBackend sim(image);
  RspServer server(sim);
  FramedTransport transport(server);
  RemoteBackend remote(transport);
  Session session(remote);

  QueryResult before = session.Query("fresh + 1");
  EXPECT_FALSE(before.ok);
  EXPECT_NE(before.error.find("unknown name 'fresh'"), std::string::npos) << before.error;

  scenarios::BuildIntArray(image, "fresh", {7});
  QueryResult after = session.Query("fresh + 1");
  ASSERT_TRUE(after.ok) << after.error;
  Session local(sim);
  EXPECT_EQ(after.lines, local.Query("fresh + 1").lines);
}

// Every query epoch re-parses the server's type replies into the client's
// TypeTable. The table owns each type it builds, so rebuilding one must hand
// back the interned type rather than grow the table.
TEST(RspTypeTableTest, FunctionTypeIdenticalAcrossQueryEpochs) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  dbg::SimBackend sim(image);
  RspServer server(sim);
  FramedTransport transport(server);
  RemoteBackend remote(transport);

  remote.BeginQueryEpoch();
  std::optional<dbg::FunctionInfo> first = remote.GetTargetFunction("abs");
  ASSERT_TRUE(first.has_value());
  remote.BeginQueryEpoch();
  const uint64_t trips = transport.round_trips();
  std::optional<dbg::FunctionInfo> second = remote.GetTargetFunction("abs");
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(transport.round_trips(), trips);  // re-fetched, not memoized
  EXPECT_EQ(second->type, first->type);
  EXPECT_EQ(first->type->ToString(), "int (int x)");
}

TEST(SocketTransportTest, FullSessionOverARealByteStream) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9});
  scenarios::BuildList(image, "L", {5, 3, 8, 3});

  dbg::SimBackend sim(image);
  RspServer server(sim);
  SocketTransport transport(server);
  RemoteBackend remote(transport);
  Session session(remote);

  EXPECT_EQ(session.Query("x[..6] >? 0").lines,
            (std::vector<std::string>{"x[0] = 3", "x[2] = 4", "x[3] = 1", "x[5] = 9"}));
  EXPECT_EQ(session.Query("+/(L-->next->value)").lines, (std::vector<std::string>{"19"}));
  QueryResult fault = session.Query("*(int *)0xdead0000");
  EXPECT_FALSE(fault.ok);
  EXPECT_NE(fault.error.find("Illegal memory reference"), std::string::npos) << fault.error;
  // Three queries still need a handful of round trips even with the block
  // cache combining the reads (symbol lookups + block fetches + the fault).
  EXPECT_GT(transport.round_trips(), 5u);
  EXPECT_GT(transport.bytes_on_wire(), 200u);
}

TEST(SocketTransportTest, LargePayloadsCrossIntact) {
  // Memory reads larger than the 512-byte socket buffers force partial reads
  // on both sides of the stream.
  target::TargetImage image;
  scenarios::BuildRandomIntArray(image, "big", 4096, -1000, 1000, 5);
  dbg::SimBackend sim(image);
  RspServer server(sim);
  SocketTransport transport(server);
  RemoteBackend remote(transport);
  Session local(sim);
  Session rem(remote);
  EXPECT_EQ(local.Query("+/big[..4096]").lines, rem.Query("+/big[..4096]").lines);

  // A single bulk read of the whole array (16 KiB of hex on the wire).
  target::Addr base = image.symbols().FindVariable("big")->addr;
  std::vector<uint8_t> local_bytes(4096 * 4);
  std::vector<uint8_t> remote_bytes(4096 * 4);
  sim.GetTargetBytes(base, local_bytes.data(), local_bytes.size());
  remote.GetTargetBytes(base, remote_bytes.data(), remote_bytes.size());
  EXPECT_EQ(local_bytes, remote_bytes);
}

// A server whose Handle never answers until released — the shape of a
// remote side that wedged mid-round-trip. The receive timeout must turn the
// indefinite block into a clean protocol error.
class HungServer : public RspServer {
 public:
  explicit HungServer(dbg::DebuggerBackend& backend) : RspServer(backend) {}

  std::string Handle(const std::string& request) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    return RspServer::Handle(request);
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(SocketTransportTest, ReceiveTimeoutFailsCleanlyWhenServerHangs) {
  target::TargetImage image;
  scenarios::BuildIntArray(image, "x", {1, 2, 3});
  dbg::SimBackend sim(image);
  HungServer server(sim);
  SocketTransport transport(server);
  transport.set_receive_timeout_ms(50);

  try {
    transport.RoundTrip("qValid:0,1");
    FAIL() << "RoundTrip against a hung server must not block forever";
  } catch (const DuelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
  }
  // Unwedge the server so the transport destructor can join its thread.
  server.Release();
}

// The shared receive loop, against a socketpair peer that never answers:
// the deadline turns the wait into a kProtocol error instead of a hang.
TEST(RspFramedSocketTest, ReadPacketTimesOutOnSilentPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PacketDecoder rx;
  try {
    ReadPacket(fds[0], rx, 20, "silent peer");
    FAIL() << "ReadPacket must give up on a peer that never answers";
  } catch (const DuelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
    EXPECT_NE(std::string(e.what()).find("timed out after 20 ms waiting for the silent peer"),
              std::string::npos)
        << e.what();
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace duel::rsp
