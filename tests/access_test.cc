// The target data path: dbg::MemoryAccess (the read-combining cache between
// the evaluators and any backend), its write-through/invalidation semantics,
// and the vectored qDuelReadV wire extension on both sides of the RSP link.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/dbg/access.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/support/strings.h"
#include "src/target/builder.h"
#include "src/target/ctype_io.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

using target::Addr;

// A SimBackend that meters how the access layer actually reaches it:
// scalar GetTargetBytes calls (the per-value path the cache is meant to
// eliminate) vs bulk ReadTargetRanges rounds (block fetches).
class CountingBackend final : public dbg::SimBackend {
 public:
  explicit CountingBackend(target::TargetImage& image) : SimBackend(image) {}

  void GetTargetBytes(Addr addr, void* out, size_t size) override {
    if (!in_bulk_) {
      scalar_reads_++;
    }
    SimBackend::GetTargetBytes(addr, out, size);
  }

  std::vector<std::vector<uint8_t>> ReadTargetRanges(
      std::span<const dbg::ReadRange> ranges) override {
    bulk_rounds_++;
    blocks_requested_ += ranges.size();
    in_bulk_ = true;
    std::vector<std::vector<uint8_t>> r = DebuggerBackend::ReadTargetRanges(ranges);
    in_bulk_ = false;
    return r;
  }

  uint64_t scalar_reads() const { return scalar_reads_; }
  uint64_t bulk_rounds() const { return bulk_rounds_; }
  uint64_t blocks_requested() const { return blocks_requested_; }

 private:
  bool in_bulk_ = false;
  uint64_t scalar_reads_ = 0;
  uint64_t bulk_rounds_ = 0;
  uint64_t blocks_requested_ = 0;
};

dbg::MemoryAccess::Config SmallConfig(size_t block_size, size_t readahead) {
  dbg::MemoryAccess::Config cfg;
  cfg.block_size = block_size;
  cfg.max_blocks = 64;
  cfg.max_readahead = readahead;
  return cfg;
}

class MemoryAccessTest : public ::testing::Test {
 protected:
  MemoryAccessTest() : backend_(image_) { target::InstallStandardFunctions(image_); }

  Addr IntArray(const std::string& name, const std::vector<int32_t>& values) {
    return scenarios::BuildIntArray(image_, name, values);
  }

  // An isolated 8-byte segment with known contents and unreadable memory on
  // both sides, for prefix/fault-edge tests.
  Addr Island() {
    image_.memory().AddSegment("island", kIsland, 8, target::Perm::kReadWrite);
    image_.memory().Write(kIsland, "abcdefgh", 8);
    return kIsland;
  }

  static constexpr Addr kIsland = 0x500000;

  target::TargetImage image_;
  CountingBackend backend_;
};

TEST_F(MemoryAccessTest, RepeatedReadsCostOneBlockFetch) {
  Addr x = IntArray("x", {0, 1, 2, 3, 4, 5, 6, 7});
  dbg::MemoryAccess access(backend_, SmallConfig(32, 4));
  for (int i = 0; i < 8; ++i) {
    int32_t v = -1;
    access.GetBytes(x + i * 4, &v, 4);
    EXPECT_EQ(v, i);
  }
  // Every read was served from cached blocks; the backend never saw a
  // per-value read.
  EXPECT_EQ(backend_.scalar_reads(), 0u);
  EXPECT_LE(backend_.bulk_rounds(), 2u);
  EXPECT_EQ(access.counters().hits, 8u);
  EXPECT_LE(access.counters().misses, 2u);
  EXPECT_EQ(access.counters().bytes_from_cache, 32u);
}

TEST_F(MemoryAccessTest, SequentialScanGrowsItsReadahead) {
  std::vector<int32_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i * 3);
  }
  Addr x = IntArray("x", values);
  dbg::MemoryAccess access(backend_, SmallConfig(32, 8));
  for (size_t i = 0; i < values.size(); ++i) {
    int32_t v = -1;
    access.GetBytes(x + i * 4, &v, 4);
    ASSERT_EQ(v, values[i]) << i;
  }
  // 1024 bytes over 32-byte blocks is 32+ blocks; the doubling readahead
  // window must compress that into a handful of fetch rounds.
  EXPECT_EQ(backend_.scalar_reads(), 0u);
  EXPECT_LE(backend_.bulk_rounds(), 10u);
  EXPECT_LE(access.counters().misses, 10u);
}

TEST_F(MemoryAccessTest, PassthroughPreservesFaultIdentity) {
  Addr island = Island();
  dbg::MemoryAccess access(backend_, SmallConfig(16, 4));

  char buf[8];
  access.GetBytes(island, buf, 8);  // fully readable
  EXPECT_EQ(std::memcmp(buf, "abcdefgh", 8), 0);

  // Straddles the end of the segment: the cache cannot serve it, so the
  // request reaches the backend verbatim and faults exactly as uncached.
  std::string cached_fault, uncached_fault;
  uint64_t cached_addr = 0, uncached_addr = 0;
  try {
    access.GetBytes(island + 4, buf, 8);
    FAIL() << "expected MemoryFault";
  } catch (const MemoryFault& f) {
    cached_fault = f.what();
    cached_addr = f.addr();
  }
  try {
    dbg::SimBackend fresh(image_);
    fresh.GetTargetBytes(island + 4, buf, 8);
    FAIL() << "expected MemoryFault";
  } catch (const MemoryFault& f) {
    uncached_fault = f.what();
    uncached_addr = f.addr();
  }
  EXPECT_EQ(cached_fault, uncached_fault);
  EXPECT_EQ(cached_addr, uncached_addr);
  EXPECT_GE(access.counters().passthroughs, 1u);
}

TEST_F(MemoryAccessTest, PrefixReadsStopAtTheSegmentEnd) {
  Addr island = Island();
  dbg::MemoryAccess access(backend_, SmallConfig(16, 4));
  char buf[16] = {0};
  EXPECT_EQ(access.GetBytesPrefix(island, buf, 16), 8u);
  EXPECT_EQ(std::memcmp(buf, "abcdefgh", 8), 0);
  EXPECT_EQ(access.GetBytesPrefix(island + 6, buf, 16), 2u);
  EXPECT_EQ(access.GetBytesPrefix(0xdead0000, buf, 16), 0u);
  EXPECT_TRUE(access.ValidBytes(island, 8));
  EXPECT_FALSE(access.ValidBytes(island, 9));
}

// A fetch that overflows the cache drops every block and starts over; the
// span being read must then be fetched whole, including the blocks that
// were cached before the drop.
TEST_F(MemoryAccessTest, OverflowKeepsTheSpanBeingRead) {
  std::vector<int32_t> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i + 100);
  }
  Addr x = IntArray("x", values);
  dbg::MemoryAccess::Config cfg = SmallConfig(16, 0);
  cfg.max_blocks = 4;
  dbg::MemoryAccess access(backend_, cfg);
  for (Addr b = 0; b < 3; ++b) {
    int32_t v = 0;
    access.GetBytes(x + b * 16, &v, 4);
    ASSERT_EQ(v, values[b * 4]);
  }
  int32_t buf[16] = {0};
  ASSERT_EQ(access.GetBytesPrefix(x + 16, buf, sizeof(buf)), sizeof(buf));
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(buf[i], values[4 + i]) << i;
  }
  EXPECT_GE(access.counters().invalidations, 1u);
  // The span stays cached: reading it again is a hit, not a passthrough.
  uint64_t passthroughs = access.counters().passthroughs;
  int32_t v = 0;
  access.GetBytes(x + 16, &v, 4);
  EXPECT_EQ(v, values[4]);
  EXPECT_EQ(access.counters().passthroughs, passthroughs);
}

TEST_F(MemoryAccessTest, WriteThroughPatchesCachedBytes) {
  Addr x = IntArray("x", {10, 20, 30});
  dbg::MemoryAccess access(backend_, SmallConfig(32, 4));
  int32_t v = 0;
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 10);
  uint64_t rounds_before = backend_.bulk_rounds();

  int32_t neu = 42;
  access.PutBytes(x, &neu, 4);
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 42);
  // Served from the patched block: no refetch, no scalar read.
  EXPECT_EQ(backend_.bulk_rounds(), rounds_before);
  EXPECT_EQ(backend_.scalar_reads(), 0u);
  // And the write really went through to the target.
  EXPECT_EQ(image_.memory().ReadScalar<int32_t>(x), 42);
}

TEST_F(MemoryAccessTest, WriteBeyondFetchedPrefixEvictsTheBlock) {
  Addr island = Island();
  dbg::MemoryAccess access(backend_, SmallConfig(16, 0));
  char buf[8];
  access.GetBytes(island, buf, 8);  // caches the block with valid_len == 8

  // The memory map grows behind the cache's back; a write into the newly
  // mapped bytes lands past the cached valid prefix.
  image_.memory().AddSegment("annex", island + 8, 8, target::Perm::kReadWrite);
  int32_t neu = 7;
  access.PutBytes(island + 8, &neu, 4);

  int32_t v = 0;
  access.GetBytes(island + 8, &v, 4);
  EXPECT_EQ(v, 7);
  access.GetBytes(island, buf, 8);
  EXPECT_EQ(std::memcmp(buf, "abcdefgh", 8), 0);
}

TEST_F(MemoryAccessTest, BeginQueryDropsStaleBytes) {
  Addr x = IntArray("x", {10});
  dbg::MemoryAccess access(backend_, SmallConfig(32, 4));
  int32_t v = 0;
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 10);

  // Mutate the target behind the cache's back: inside the epoch the cache
  // (by design) still serves the old bytes...
  image_.memory().WriteScalar<int32_t>(x, 99);
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 10);

  // ...and a new epoch re-observes the target.
  access.BeginQuery();
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 99);
}

TEST_F(MemoryAccessTest, TargetCallsAndAllocationsInvalidate) {
  Addr x = IntArray("x", {10});
  dbg::MemoryAccess access(backend_, SmallConfig(32, 4));
  int32_t v = 0;
  access.GetBytes(x, &v, 4);
  image_.memory().WriteScalar<int32_t>(x, 11);

  // A target call may have written anywhere: the next read refetches.
  target::RawDatum arg = target::MakeScalarDatum<int32_t>(image_.types().Int(), -5);
  target::RawDatum ret = access.CallFunc("abs", std::span<const target::RawDatum>(&arg, 1));
  EXPECT_EQ(ret.bytes.size(), 4u);
  EXPECT_GE(access.counters().invalidations, 1u);
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 11);

  image_.memory().WriteScalar<int32_t>(x, 12);
  access.Alloc(16, 8);  // the memory map changed
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 12);
}

TEST_F(MemoryAccessTest, DisablingBypassesAndDropsBlocks) {
  Addr x = IntArray("x", {10});
  dbg::MemoryAccess access(backend_, SmallConfig(32, 4));
  int32_t v = 0;
  access.GetBytes(x, &v, 4);
  uint64_t misses_before = access.counters().misses;

  access.set_enabled(false);
  access.GetBytes(x, &v, 4);
  EXPECT_EQ(v, 10);
  EXPECT_GE(backend_.scalar_reads(), 1u);  // went straight to the backend

  // Re-enabling starts cold: the earlier blocks were dropped.
  access.set_enabled(true);
  access.GetBytes(x, &v, 4);
  EXPECT_GT(access.counters().misses, misses_before);
}

// --- the cache under real queries -------------------------------------------

class DataCacheTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  // The data cache is this suite's subject, so each case sets it; the
  // reference configuration contributes its plan-cache setting.
  static SessionOptions Opts(bool cache_on) {
    SessionOptions o = ConfigOptions(GetParam());
    o.eval.data_cache = cache_on;
    return o;
  }
};

TEST_P(DataCacheTest, AssignmentIsVisibleToReread) {
  DuelFixture fx(Opts(true));
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3});
  // Write-through: the reread inside the same query sees the new value.
  EXPECT_EQ(fx.One("x[0] = 42 ; x[0]"), "x[0] = 42");
  Addr x = fx.image().symbols().FindVariable("x")->addr;
  EXPECT_EQ(fx.image().memory().ReadScalar<int32_t>(x), 42);
}

TEST_P(DataCacheTest, TargetCallSideEffectsInvalidateMidQuery) {
  DuelFixture fx(Opts(true));
  target::ImageBuilder b(fx.image());
  Addr g = b.Global("g", b.Int());
  b.PokeI32(g, 5);
  target::TypeTable& tt = fx.image().types();
  fx.image().RegisterFunction(
      "bump", tt.Function(tt.Int(), {}, false),
      [g](target::TargetImage& img, std::span<const target::RawDatum>) {
        int32_t v = img.memory().ReadScalar<int32_t>(g);
        img.memory().WriteScalar<int32_t>(g, v + 1);
        return target::MakeScalarDatum<int32_t>(img.types().Int(), v);
      });
  // The first `g` pulls g=5 into the cache; bump() mutates it in the target;
  // the final `g` must observe the side effect, not the cached 5.
  EXPECT_EQ(fx.One("g ; bump() ; g"), "g = 6");
}

TEST_P(DataCacheTest, BitfieldLvaluesWriteThrough) {
  for (bool cache_on : {true, false}) {
    DuelFixture fx(Opts(cache_on));
    target::ImageBuilder b(fx.image());
    target::TypeRef rec =
        b.Struct("Bits").Field("pad", b.Int()).Bitfield("f", b.Int(), 3).Bitfield(
            "g", b.Int(), 5).Build();
    b.Global("bf", rec);
    EXPECT_EQ(fx.Lines("bf.g = 9 ;"), std::vector<std::string>{}) << cache_on;
    EXPECT_EQ(fx.One("bf.f = 3 ; bf.f"), "bf.f = 3") << cache_on;
    EXPECT_EQ(fx.One("bf.g"), "bf.g = 9") << cache_on;
    EXPECT_EQ(fx.One("bf.pad"), "bf.pad = 0") << cache_on;
  }
}

void BuildParityScenario(target::TargetImage& image) {
  scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9});
  scenarios::BuildList(image, "L", {5, 3, 8, 3});
  scenarios::BuildSymtab(image, {{1, {{"add", 7}, {"mul", 2}}}});
  scenarios::BuildArgv(image, {"prog", "-v", "input.c"});
  scenarios::BuildTree(image, "root", "(9 (3 (4) (5)) (12))");
  scenarios::BuildFrames(image, 3);
}

TEST_P(DataCacheTest, CacheOnAndOffRenderIdentically) {
  DuelFixture cached(Opts(true));
  DuelFixture uncached(Opts(false));
  BuildParityScenario(cached.image());
  BuildParityScenario(uncached.image());

  const char* kQueries[] = {
      "x[..6] >? 0",
      "x[..6] = x[..6] + 1 ; x[..6]",
      "+/(L-->next->value)",
      "#/(L-->next)",
      "hash[1]-->next->(scope,name)",
      "argv[0..2]",
      "root-->(left,right)->key",
      "frames().x",
      "(char *)argv[0]",
      "*(int *)0xdead0000",
      "if (x[0] > 0) x[0] else x[1]",
  };
  for (const char* q : kQueries) {
    QueryResult on = cached.session().Query(q);
    QueryResult off = uncached.session().Query(q);
    EXPECT_EQ(on.ok, off.ok) << q;
    EXPECT_EQ(on.lines, off.lines) << q;
    EXPECT_EQ(on.error, off.error) << q;
  }
}

TEST_P(DataCacheTest, ExternalWritesAreVisibleInTheNextQuery) {
  DuelFixture fx(Opts(true));
  scenarios::BuildIntArray(fx.image(), "x", {1});
  EXPECT_EQ(fx.One("x[0]"), "x[0] = 1");
  Addr x = fx.image().symbols().FindVariable("x")->addr;
  fx.image().memory().WriteScalar<int32_t>(x, 99);  // e.g. the target ran
  EXPECT_EQ(fx.One("x[0]"), "x[0] = 99");  // fresh epoch, fresh bytes
}

TEST_P(DataCacheTest, CharStringsTruncateIdenticallyThroughTheCache) {
  for (bool cache_on : {true, false}) {
    SessionOptions opts = Opts(cache_on);
    opts.eval.max_string_display = 8;
    DuelFixture fx(opts);
    target::ImageBuilder b(fx.image());

    Addr exact = b.Global("exact", b.Ptr(b.Char()));
    b.PokePtr(exact, fx.image().NewCString("12345678"));  // exactly the cap
    Addr longer = b.Global("longer", b.Ptr(b.Char()));
    b.PokePtr(longer, fx.image().NewCString("123456789abc"));

    // A string whose readable bytes end (segment edge) before any NUL.
    fx.image().memory().AddSegment("island", 0x500000, 8, target::Perm::kReadWrite);
    fx.image().memory().Write(0x500000, "abcdefgh", 8);
    Addr edge = b.Global("edge", b.Ptr(b.Char()));
    b.PokePtr(edge, 0x500000);

    EXPECT_EQ(fx.One("exact"), "exact = \"12345678\"") << cache_on;
    EXPECT_EQ(fx.One("longer"), "longer = \"12345678\"...") << cache_on;
    EXPECT_EQ(fx.One("edge"), "edge = \"abcdefgh\"...") << cache_on;
  }
}

TEST_P(DataCacheTest, StatsCarryCacheCounters) {
  SessionOptions opts = Opts(true);
  opts.collect_stats = true;
  DuelFixture fx(opts);
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3, 4, 5, 6});
  fx.Lines("x[..6]");
  ASSERT_TRUE(fx.session().last_stats().has_value());
  const obs::QueryStats& stats = *fx.session().last_stats();
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GT(stats.cache.bytes_from_cache, 0u);
  EXPECT_NE(stats.ToJson().find("\"cache\""), std::string::npos);
  bool rendered_cache_line = false;
  for (const std::string& line : stats.Render()) {
    rendered_cache_line |= line.find("cache:") != std::string::npos;
  }
  EXPECT_TRUE(rendered_cache_line);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, DataCacheTest, kSessionConfigs, SessionConfigName);

// --- the qDuelReadV wire extension -----------------------------------------

class VectoredServerTest : public ::testing::Test {
 protected:
  VectoredServerTest() : backend_(image_), server_(backend_) {
    target::InstallStandardFunctions(image_);
    x_ = scenarios::BuildIntArray(image_, "x", {10, 20, 30});
  }

  std::string A(Addr a) { return HexU64(a); }

  target::TargetImage image_;
  dbg::SimBackend backend_;
  rsp::RspServer server_;
  Addr x_ = 0;
};

TEST_F(VectoredServerTest, AnswersMultiRangeReads) {
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_) + ",4"), "V0a000000");
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_) + ",4;" + A(x_ + 4) + ",4;" + A(x_ + 8) + ",4"),
            "V0a000000;14000000;1e000000");
}

TEST_F(VectoredServerTest, ReportsUnreadableRangesAsEmptyPrefixes) {
  EXPECT_EQ(server_.Handle("qDuelReadV:dead0000,4"), "V");
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_) + ",4;dead0000,4;" + A(x_ + 4) + ",4"),
            "V0a000000;;14000000");
}

TEST_F(VectoredServerTest, ClampsRangesAtTheEndOfMappedMemory) {
  // x is the last heap allocation: a range running past it returns only the
  // valid prefix (short reply), not an error.
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_ + 8) + ",8"), "V1e000000");
}

TEST_F(VectoredServerTest, RejectsMalformedRequests) {
  EXPECT_EQ(server_.Handle("qDuelReadV:"), "E03");
  EXPECT_EQ(server_.Handle("qDuelReadV:zz,4"), "E03");
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_)), "E03");  // missing length
  EXPECT_EQ(server_.Handle("qDuelReadV:" + A(x_) + ",200000"), "E03");  // 2 MiB > cap
  std::string too_many = "qDuelReadV:";
  for (int i = 0; i < 513; ++i) {
    if (i != 0) {
      too_many += ";";
    }
    too_many += A(x_) + ",4";
  }
  EXPECT_EQ(server_.Handle(too_many), "E03");
}

// A transport that sabotages the replies to one extension packet (qDuelReadV
// by default), emulating servers that don't speak it or answer it malformed.
class TamperTransport final : public rsp::Transport {
 public:
  enum class Mode {
    kUnknown,     // empty reply: the RSP convention for an unknown packet
    kGarbage,     // non-hex junk
    kWrongCount,  // a V reply with the wrong number of entries
    kOverlong,    // more bytes than the range asked for
  };

  TamperTransport(rsp::RspServer& server, Mode mode, std::string packet = "qDuelReadV:")
      : server_(&server), mode_(mode), packet_(std::move(packet)) {}

  std::string RoundTrip(const std::string& request) override {
    round_trips_++;
    bytes_on_wire_ += request.size();
    if (StartsWith(request, packet_)) {
      tampered_++;
      switch (mode_) {
        case Mode::kUnknown:
          return "";
        case Mode::kGarbage:
          return "Vzz;!!";
        case Mode::kWrongCount:
          return "V" + std::string(98, ';');  // 99 entries, never the batch size here
        case Mode::kOverlong: {
          // Reply to the first range with one byte too many.
          size_t comma = request.find(',');
          uint64_t len = 0;
          ParseHexU64(std::string_view(request).substr(comma + 1,
                                                       request.find(';') == std::string::npos
                                                           ? std::string::npos
                                                           : request.find(';') - comma - 1),
                      &len);
          return "V" + std::string(2 * (len + 1), '0');
        }
      }
    }
    std::string response = server_->Handle(request);
    bytes_on_wire_ += response.size();
    return response;
  }

  uint64_t tampered() const { return tampered_; }

 private:
  rsp::RspServer* server_;
  Mode mode_;
  std::string packet_;
  uint64_t tampered_ = 0;
};

class VectoredClientTest : public ::testing::TestWithParam<TamperTransport::Mode> {};

TEST_P(VectoredClientTest, FallsBackAndStaysCorrect) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9});
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  TamperTransport transport(server, GetParam());
  rsp::RemoteBackend remote(transport);

  Session session(remote);
  EXPECT_EQ(session.Query("x[..6] >? 0").lines,
            (std::vector<std::string>{"x[0] = 3", "x[2] = 4", "x[3] = 1", "x[5] = 9"}));
  // The first bad reply latched the fallback; results came over the plain
  // per-range path.
  EXPECT_FALSE(remote.vectored_supported());
  EXPECT_GE(transport.tampered(), 1u);

  // Still correct (and still not retrying the vectored packet) afterwards.
  uint64_t tampered_before = transport.tampered();
  EXPECT_EQ(session.Query("+/x[..6]").lines, (std::vector<std::string>{"11"}));
  EXPECT_EQ(transport.tampered(), tampered_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, VectoredClientTest,
    ::testing::Values(TamperTransport::Mode::kUnknown, TamperTransport::Mode::kGarbage,
                      TamperTransport::Mode::kWrongCount, TamperTransport::Mode::kOverlong),
    [](const ::testing::TestParamInfo<TamperTransport::Mode>& pi) {
      switch (pi.param) {
        case TamperTransport::Mode::kUnknown: return std::string("Unknown");
        case TamperTransport::Mode::kGarbage: return std::string("Garbage");
        case TamperTransport::Mode::kWrongCount: return std::string("WrongCount");
        case TamperTransport::Mode::kOverlong: return std::string("Overlong");
      }
      return std::string("?");
    });

// A server without qDuelSymEpoch (a stock gdbserver answers it empty): the
// client latches a fallback in which every query re-plans, so results stay
// correct and a cached verdict never hides a symbol defined later.
TEST(SymEpochClientTest, UnsupportedEpochRebuildsPlansAndStaysCorrect) {
  for (TamperTransport::Mode mode : {TamperTransport::Mode::kUnknown,
                                     TamperTransport::Mode::kGarbage}) {
    target::TargetImage image;
    target::InstallStandardFunctions(image);
    scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9});
    dbg::SimBackend sim(image);
    rsp::RspServer server(sim);
    TamperTransport transport(server, mode, "qDuelSymEpoch");
    rsp::RemoteBackend remote(transport);
    SessionOptions opts;
    opts.collect_stats = true;
    Session session(remote, opts);

    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(session.Query("x[..6] >? 0").lines,
                (std::vector<std::string>{"x[0] = 3", "x[2] = 4", "x[3] = 1", "x[5] = 9"}));
      EXPECT_FALSE(session.last_stats()->plan_hit) << run;
    }
    EXPECT_FALSE(session.Query("fresh + 1").ok);
    scenarios::BuildIntArray(image, "fresh", {7});
    EXPECT_TRUE(session.Query("fresh + 1").ok);
    // The first bad reply latched the fallback: the packet was asked once.
    EXPECT_EQ(transport.tampered(), 1u);
  }
}

TEST(VectoredReadTest, ShortPrefixRepliesMatchTheLocalBackend) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  Addr x = scenarios::BuildIntArray(image, "x", {10, 20, 30});
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  rsp::FramedTransport transport(server);
  rsp::RemoteBackend remote(transport);

  const dbg::ReadRange ranges[] = {
      {x, 8},            // fully valid
      {x + 8, 16},       // valid prefix of 4 (runs off the heap)
      {0xdead0000, 8},   // entirely unreadable
  };
  std::vector<std::vector<uint8_t>> got = remote.ReadTargetRanges(ranges);
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> expect(ranges[i].size);
    expect.resize(sim.ReadTargetPrefix(ranges[i].addr, expect.data(), ranges[i].size));
    EXPECT_EQ(got[i], expect) << i;
  }
  EXPECT_TRUE(remote.vectored_supported());
  EXPECT_GE(remote.instr().calls(obs::NarrowCall::kReadVector), 1u);
}

// A pass-through transport that keeps every request payload, for asserting
// what actually crossed the wire.
class RecordingTransport final : public rsp::Transport {
 public:
  explicit RecordingTransport(rsp::RspServer& server) : server_(&server) {}

  std::string RoundTrip(const std::string& request) override {
    round_trips_++;
    log_.push_back(request);
    return server_->Handle(request);
  }

  size_t CountWithPrefix(const std::string& prefix) const {
    size_t n = 0;
    for (const std::string& r : log_) {
      n += StartsWith(r, prefix) ? 1 : 0;
    }
    return n;
  }

 private:
  rsp::RspServer* server_;
  std::vector<std::string> log_;
};

TEST(VectoredReadTest, SymbolLookupsAreMemoizedPerQueryEpoch) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildIntArray(image, "x", {1, 2, 3});
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);
  RecordingTransport transport(server);
  rsp::RemoteBackend remote(transport);
  Session session(remote);

  const std::string kVarX = "qVar:" + HexEncode("x", 1);
  EXPECT_EQ(session.Query("x[0] + x[1] + x[0]").lines,
            (std::vector<std::string>{"x[0]+x[1]+x[0] = 4"}));
  EXPECT_EQ(transport.CountWithPrefix(kVarX), 1u);

  // A new query is a new epoch: the lookup goes to the wire exactly once more.
  EXPECT_EQ(session.Query("x[2]").lines, (std::vector<std::string>{"x[2] = 3"}));
  EXPECT_EQ(transport.CountWithPrefix(kVarX), 2u);
}

// The acceptance bar for the refactor: a 10,000-element remote scan must
// issue at most 5% of the packets the per-value path needs.
TEST(VectoredReadTest, CachedRemoteScanUsesUnder5PercentOfThePackets) {
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  scenarios::BuildRandomIntArray(image, "x", 10000, -100, 100, 7);
  dbg::SimBackend sim(image);
  rsp::RspServer server(sim);

  rsp::FramedTransport uncached_wire(server);
  rsp::RemoteBackend uncached_remote(uncached_wire);
  SessionOptions uncached_opts;
  uncached_opts.eval.data_cache = false;
  Session uncached(uncached_remote, uncached_opts);

  rsp::FramedTransport cached_wire(server);
  rsp::RemoteBackend cached_remote(cached_wire);
  Session cached(cached_remote);

  QueryResult off = uncached.Query("x[..10000] >? 0");
  QueryResult on = cached.Query("x[..10000] >? 0");
  ASSERT_TRUE(off.ok && on.ok);
  EXPECT_EQ(off.lines, on.lines);

  // Uncached: one m-packet per element. Cached: O(blocks/readahead) vectored
  // packets plus a few lookups.
  EXPECT_GE(uncached_wire.round_trips(), 10000u);
  EXPECT_LE(cached_wire.round_trips() * 20, uncached_wire.round_trips())
      << "cached=" << cached_wire.round_trips() << " uncached=" << uncached_wire.round_trips();
  EXPECT_GE(cached_remote.instr().calls(obs::NarrowCall::kReadVector), 1u);
}

}  // namespace
}  // namespace duel
