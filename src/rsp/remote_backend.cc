#include "src/rsp/remote_backend.h"

#include <algorithm>
#include <cstring>

#include "src/support/strings.h"
#include "src/target/ctype_io.h"

namespace duel::rsp {

using target::Addr;
using target::RawDatum;
using target::TypeRef;

namespace {

std::string HexName(const std::string& name) { return HexEncode(name.data(), name.size()); }

[[noreturn]] void ProtocolFail(const std::string& what) {
  throw DuelError(ErrorKind::kProtocol, "remote protocol error: " + what);
}

std::string DecodeErrorMessage(std::string_view response) {
  size_t colon = response.find(':');
  if (colon == std::string_view::npos) {
    return std::string(response);
  }
  std::vector<uint8_t> bytes;
  if (!HexDecode(response.substr(colon + 1), &bytes)) {
    return std::string(response);
  }
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

std::string RemoteBackend::Request(const std::string& payload) {
  return transport_->RoundTrip(payload);
}

void RemoteBackend::GetTargetBytes(Addr addr, void* out, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kGetBytes);
  if (instr_.enabled()) {
    instr_.RecordReadBytes(size);
  }
  std::string r = Request("m" + HexU64(addr) + "," + HexU64(size));
  if (StartsWith(r, "E")) {
    throw MemoryFault(addr, size, StrPrintf("cannot read %zu bytes at 0x%llx (remote)", size,
                                            static_cast<unsigned long long>(addr)));
  }
  std::vector<uint8_t> bytes;
  if (!HexDecode(r, &bytes) || bytes.size() != size) {
    ProtocolFail("bad memory-read response");
  }
  std::memcpy(out, bytes.data(), size);
}

void RemoteBackend::PutTargetBytes(Addr addr, const void* in, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kPutBytes);
  if (instr_.enabled()) {
    instr_.RecordWriteBytes(size);
  }
  std::string r = Request("M" + HexU64(addr) + "," + HexU64(size) + ":" + HexEncode(in, size));
  if (r != "OK") {
    throw MemoryFault(addr, size, StrPrintf("cannot write %zu bytes at 0x%llx (remote)", size,
                                            static_cast<unsigned long long>(addr)));
  }
}

std::vector<std::vector<uint8_t>> RemoteBackend::ReadTargetRanges(
    std::span<const dbg::ReadRange> ranges) {
  if (ranges.empty()) {
    return {};
  }
  if (!vectored_supported_) {
    return DebuggerBackend::ReadTargetRanges(ranges);
  }
  // Stay under the server's range-count cap; a block-cache fill rarely needs
  // more than one packet anyway.
  constexpr size_t kMaxRangesPerPacket = 256;
  std::vector<std::vector<uint8_t>> out;
  out.reserve(ranges.size());
  for (size_t base = 0; base < ranges.size(); base += kMaxRangesPerPacket) {
    std::span<const dbg::ReadRange> batch =
        ranges.subspan(base, std::min(kMaxRangesPerPacket, ranges.size() - base));
    obs::CallTimer timer(instr_, obs::NarrowCall::kReadVector);
    std::string req = "qDuelReadV:";
    uint64_t requested = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (i != 0) {
        req += ";";
      }
      req += HexU64(batch[i].addr) + "," + HexU64(batch[i].size);
      requested += batch[i].size;
    }
    if (instr_.enabled()) {
      instr_.RecordReadBytes(requested);
    }
    std::string r = Request(req);
    bool ok = StartsWith(r, "V");
    std::vector<std::vector<uint8_t>> decoded;
    if (ok) {
      std::vector<std::string_view> parts = Split(std::string_view(r).substr(1), ';');
      ok = parts.size() == batch.size();
      if (ok) {
        decoded.reserve(parts.size());
        for (size_t i = 0; i < parts.size(); ++i) {
          std::vector<uint8_t> bytes;
          if (!HexDecode(parts[i], &bytes) || bytes.size() > batch[i].size) {
            ok = false;  // short replies are fine; over-long or non-hex is not
            break;
          }
          decoded.push_back(std::move(bytes));
        }
      }
    }
    if (!ok) {
      // The server doesn't speak qDuelReadV (empty reply) or answered
      // malformed: latch the fallback for this connection and finish the
      // request with per-range prefix reads.
      vectored_supported_ = false;
      std::vector<std::vector<uint8_t>> rest =
          DebuggerBackend::ReadTargetRanges(ranges.subspan(base));
      for (std::vector<uint8_t>& v : rest) {
        out.push_back(std::move(v));
      }
      return out;
    }
    for (std::vector<uint8_t>& v : decoded) {
      out.push_back(std::move(v));
    }
  }
  return out;
}

size_t RemoteBackend::ReadTargetPrefix(Addr addr, void* out, size_t size) {
  if (!vectored_supported_ || size == 0) {
    // Base class bisects with qValid probes, then one m-read.
    return DebuggerBackend::ReadTargetPrefix(addr, out, size);
  }
  dbg::ReadRange range{addr, size};
  std::vector<std::vector<uint8_t>> r =
      ReadTargetRanges(std::span<const dbg::ReadRange>(&range, 1));
  if (r.size() != 1) {
    return DebuggerBackend::ReadTargetPrefix(addr, out, size);
  }
  std::memcpy(out, r[0].data(), r[0].size());
  return r[0].size();
}

void RemoteBackend::BeginQueryEpoch() {
  sym_epoch_fresh_ = false;
  var_cache_.clear();
  func_cache_.clear();
  enum_cache_.clear();
  type_cache_.clear();
  num_frames_cache_.reset();
  frame_fn_cache_.clear();
  frame_locals_cache_.clear();
}

uint64_t RemoteBackend::SymbolEpoch() {
  if (!sym_epoch_fresh_) {
    uint64_t epoch = 0;
    if (sym_epoch_supported_) {
      std::string r = Request("qDuelSymEpoch");
      sym_epoch_supported_ =
          StartsWith(r, "S") && ParseHexU64(std::string_view(r).substr(1), &epoch);
    }
    // Without server support every query epoch is a new symbol epoch: the
    // server's epochs only grow, so last + 1 differs from every value a
    // cached plan holds, and plans are rebuilt rather than replayed stale.
    sym_epoch_ = sym_epoch_supported_ ? epoch : sym_epoch_ + 1;
    sym_epoch_fresh_ = true;
  }
  return sym_epoch_;
}

bool RemoteBackend::ValidTargetBytes(Addr addr, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kValidBytes);
  return Request("qValid:" + HexU64(addr) + "," + HexU64(size)) == "OK";
}

Addr RemoteBackend::AllocTargetSpace(size_t size, size_t align) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kAllocSpace);
  std::string r = Request("qAlloc:" + HexU64(size) + "," + HexU64(align));
  uint64_t addr;
  if (!StartsWith(r, "A") || !ParseHexU64(std::string_view(r).substr(1), &addr)) {
    ProtocolFail("bad alloc response");
  }
  return addr;
}

RawDatum RemoteBackend::CallTargetFunc(const std::string& name,
                                       std::span<const RawDatum> args) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kCallFunc);
  std::string req = "vCall:" + HexName(name) + ":";
  for (const RawDatum& a : args) {
    req += target::SerializeType(a.type) + "," + HexEncode(a.bytes.data(), a.bytes.size()) +
           ";";
  }
  std::string r = Request(req);
  if (StartsWith(r, "E02") || StartsWith(r, "E04")) {
    throw DuelError(ErrorKind::kTarget, DecodeErrorMessage(r));
  }
  if (!StartsWith(r, "R")) {
    ProtocolFail("bad call response");
  }
  size_t comma = r.rfind(',');
  if (comma == std::string::npos) {
    ProtocolFail("bad call response");
  }
  RawDatum out;
  std::string type_part = r.substr(1, comma - 1);
  if (type_part != "v") {
    out.type = target::ParseSerializedType(type_part, types_);
  } else {
    out.type = types_.Void();
  }
  if (!HexDecode(std::string_view(r).substr(comma + 1), &out.bytes)) {
    ProtocolFail("bad call response bytes");
  }
  return out;
}

std::optional<dbg::VariableInfo> RemoteBackend::GetTargetVariable(const std::string& name) {
  if (auto it = var_cache_.find(name); it != var_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  std::string r = Request("qVar:" + HexName(name));
  if (StartsWith(r, "E")) {
    var_cache_[name] = std::nullopt;
    return std::nullopt;
  }
  size_t semi = r.find(';');
  uint64_t addr;
  if (!StartsWith(r, "V") || semi == std::string::npos ||
      !ParseHexU64(std::string_view(r).substr(1, semi - 1), &addr)) {
    ProtocolFail("bad variable response");
  }
  dbg::VariableInfo info;
  info.name = name;
  info.addr = addr;
  info.type = target::ParseSerializedType(r.substr(semi + 1), types_);
  var_cache_[name] = info;
  return info;
}

std::optional<dbg::FunctionInfo> RemoteBackend::GetTargetFunction(const std::string& name) {
  if (auto it = func_cache_.find(name); it != func_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  std::string r = Request("qFunc:" + HexName(name));
  if (StartsWith(r, "E")) {
    func_cache_[name] = std::nullopt;
    return std::nullopt;
  }
  size_t semi = r.find(';');
  uint64_t addr;
  if (!StartsWith(r, "F") || semi == std::string::npos ||
      !ParseHexU64(std::string_view(r).substr(1, semi - 1), &addr)) {
    ProtocolFail("bad function response");
  }
  dbg::FunctionInfo info;
  info.name = name;
  info.addr = addr;
  info.type = target::ParseSerializedType(r.substr(semi + 1), types_);
  func_cache_[name] = info;
  return info;
}

TypeRef RemoteBackend::QueryType(const std::string& command, const std::string& name) {
  std::string key = command + ":" + name;
  if (auto it = type_cache_.find(key); it != type_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kTypeLookup);
  std::string r = Request(command + ":" + HexName(name));
  TypeRef t = nullptr;
  if (!StartsWith(r, "E") && StartsWith(r, "T")) {
    t = target::ParseSerializedType(r.substr(1), types_);
  }
  type_cache_[key] = t;
  return t;
}

TypeRef RemoteBackend::GetTargetTypedef(const std::string& name) {
  return QueryType("qTypedef", name);
}

TypeRef RemoteBackend::GetTargetStruct(const std::string& tag) {
  return QueryType("qStruct", tag);
}

TypeRef RemoteBackend::GetTargetUnion(const std::string& tag) {
  return QueryType("qUnion", tag);
}

TypeRef RemoteBackend::GetTargetEnum(const std::string& tag) {
  return QueryType("qEnum", tag);
}

std::optional<dbg::EnumeratorInfo> RemoteBackend::GetTargetEnumerator(
    const std::string& name) {
  if (auto it = enum_cache_.find(name); it != enum_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  std::string r = Request("qEnumConst:" + HexName(name));
  if (!StartsWith(r, "C")) {
    enum_cache_[name] = std::nullopt;
    return std::nullopt;  // E00 (not found) or protocol-unsupported
  }
  size_t semi = r.find(';');
  uint64_t v;
  if (semi == std::string::npos || !ParseHexU64(std::string_view(r).substr(1, semi - 1), &v)) {
    ProtocolFail("bad enumerator response");
  }
  dbg::EnumeratorInfo info;
  info.value = static_cast<int64_t>(v);
  info.type = target::ParseSerializedType(r.substr(semi + 1), types_);
  enum_cache_[name] = info;
  return info;
}

size_t RemoteBackend::NumFrames() {
  if (num_frames_cache_.has_value()) {
    return *num_frames_cache_;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  std::string r = Request("qFrames");
  uint64_t n;
  if (!StartsWith(r, "N") || !ParseHexU64(std::string_view(r).substr(1), &n)) {
    ProtocolFail("bad frames response");
  }
  num_frames_cache_ = n;
  return n;
}

std::string RemoteBackend::FrameFunction(size_t frame) {
  if (auto it = frame_fn_cache_.find(frame); it != frame_fn_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  std::string r = Request("qFrameFn:" + HexU64(frame));
  if (!StartsWith(r, "F")) {
    ProtocolFail("bad frame-function response");
  }
  std::vector<uint8_t> bytes;
  if (!HexDecode(std::string_view(r).substr(1), &bytes)) {
    ProtocolFail("bad frame-function name");
  }
  std::string fn(bytes.begin(), bytes.end());
  frame_fn_cache_[frame] = fn;
  return fn;
}

std::vector<dbg::FrameVariable> RemoteBackend::FrameLocals(size_t frame) {
  if (auto it = frame_locals_cache_.find(frame); it != frame_locals_cache_.end()) {
    return it->second;
  }
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  std::string r = Request("qFrameLocals:" + HexU64(frame));
  if (!StartsWith(r, "L")) {
    ProtocolFail("bad frame-locals response");
  }
  std::vector<dbg::FrameVariable> out;
  for (std::string_view part : Split(std::string_view(r).substr(1), ';')) {
    if (part.empty()) {
      continue;
    }
    std::vector<std::string_view> fields = Split(part, ',');
    if (fields.size() != 3) {
      ProtocolFail("bad frame-local entry");
    }
    std::vector<uint8_t> name_bytes;
    uint64_t addr;
    if (!HexDecode(fields[0], &name_bytes) || !ParseHexU64(fields[1], &addr)) {
      ProtocolFail("bad frame-local fields");
    }
    dbg::FrameVariable v;
    v.name.assign(name_bytes.begin(), name_bytes.end());
    v.addr = addr;
    v.type = target::ParseSerializedType(std::string(fields[2]), types_);
    out.push_back(std::move(v));
  }
  frame_locals_cache_[frame] = out;
  return out;
}

}  // namespace duel::rsp
