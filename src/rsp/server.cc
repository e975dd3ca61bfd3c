#include "src/rsp/server.h"

#include "src/support/strings.h"
#include "src/target/ctype_io.h"

namespace duel::rsp {

namespace {

std::string HexName(std::string_view name) { return HexEncode(name.data(), name.size()); }

bool DecodeName(std::string_view hex, std::string* out) {
  std::vector<uint8_t> bytes;
  if (!HexDecode(hex, &bytes)) {
    return false;
  }
  out->assign(bytes.begin(), bytes.end());
  return true;
}

std::string ErrorResponse(const char* code, const std::string& message) {
  return std::string(code) + ":" + HexName(message);
}

// Parses "<hex>,<hex>" into two numbers.
bool ParsePair(std::string_view s, uint64_t* a, uint64_t* b) {
  size_t comma = s.find(',');
  if (comma == std::string_view::npos) {
    return false;
  }
  return ParseHexU64(s.substr(0, comma), a) && ParseHexU64(s.substr(comma + 1), b);
}

}  // namespace

std::string RspServer::Handle(const std::string& request) {
  requests_++;
  if (log_packets_) {
    LogPacket(/*is_request=*/true, request);
  }
  std::string response = HandleImpl(request);
  if (log_packets_) {
    LogPacket(/*is_request=*/false, response);
  }
  return response;
}

void RspServer::LogPacket(bool is_request, const std::string& payload) {
  if (packet_log_.size() >= kMaxLoggedPackets) {
    packet_log_.pop_front();
  }
  packet_log_.push_back(WirePacket{is_request, payload, obs::NowNs()});
}

std::string RspServer::HandleImpl(const std::string& request) {
  try {
    if (StartsWith(request, "m")) {
      uint64_t addr, len;
      if (!ParsePair(std::string_view(request).substr(1), &addr, &len)) {
        return "E03";
      }
      std::vector<uint8_t> buf(len);
      try {
        backend_->GetTargetBytes(addr, buf.data(), len);
      } catch (const MemoryFault&) {
        return "E01";
      }
      return HexEncode(buf.data(), buf.size());
    }
    if (StartsWith(request, "M")) {
      size_t colon = request.find(':');
      if (colon == std::string::npos) {
        return "E03";
      }
      uint64_t addr, len;
      if (!ParsePair(std::string_view(request).substr(1, colon - 1), &addr, &len)) {
        return "E03";
      }
      std::vector<uint8_t> bytes;
      if (!HexDecode(std::string_view(request).substr(colon + 1), &bytes) ||
          bytes.size() != len) {
        return "E03";
      }
      try {
        backend_->PutTargetBytes(addr, bytes.data(), bytes.size());
      } catch (const MemoryFault&) {
        return "E01";
      }
      return "OK";
    }
    if (StartsWith(request, "qValid:")) {
      uint64_t addr, len;
      if (!ParsePair(std::string_view(request).substr(7), &addr, &len)) {
        return "E03";
      }
      return backend_->ValidTargetBytes(addr, len) ? "OK" : "E01";
    }
    if (StartsWith(request, "qAlloc:")) {
      uint64_t size, align;
      if (!ParsePair(std::string_view(request).substr(7), &size, &align)) {
        return "E03";
      }
      return "A" + HexU64(backend_->AllocTargetSpace(size, align));
    }
    if (StartsWith(request, "qVar:")) {
      std::string name;
      if (!DecodeName(std::string_view(request).substr(5), &name)) {
        return "E03";
      }
      auto info = backend_->GetTargetVariable(name);
      if (!info.has_value()) {
        return "E00";
      }
      return "V" + HexU64(info->addr) + ";" + target::SerializeType(info->type);
    }
    if (StartsWith(request, "qFunc:")) {
      std::string name;
      if (!DecodeName(std::string_view(request).substr(6), &name)) {
        return "E03";
      }
      auto info = backend_->GetTargetFunction(name);
      if (!info.has_value()) {
        return "E00";
      }
      return "F" + HexU64(info->addr) + ";" + target::SerializeType(info->type);
    }
    if (StartsWith(request, "qTypedef:") || StartsWith(request, "qStruct:") ||
        StartsWith(request, "qUnion:") || StartsWith(request, "qEnum:")) {
      size_t colon = request.find(':');
      std::string kind = request.substr(0, colon);
      std::string name;
      if (!DecodeName(std::string_view(request).substr(colon + 1), &name)) {
        return "E03";
      }
      target::TypeRef t = nullptr;
      if (kind == "qTypedef") {
        t = backend_->GetTargetTypedef(name);
      } else if (kind == "qStruct") {
        t = backend_->GetTargetStruct(name);
      } else if (kind == "qUnion") {
        t = backend_->GetTargetUnion(name);
      } else {
        t = backend_->GetTargetEnum(name);
      }
      if (t == nullptr) {
        return "E00";
      }
      return "T" + target::SerializeType(t);
    }
    if (StartsWith(request, "qEnumConst:")) {
      std::string name;
      if (!DecodeName(std::string_view(request).substr(11), &name)) {
        return "E03";
      }
      auto e = backend_->GetTargetEnumerator(name);
      if (!e.has_value()) {
        return "E00";
      }
      return "C" + HexU64(static_cast<uint64_t>(e->value)) + ";" +
             target::SerializeType(e->type);
    }
    if (request == "qDuelSymEpoch") {
      return "S" + HexU64(backend_->SymbolEpoch());
    }
    if (request == "qFrames") {
      return "N" + HexU64(backend_->NumFrames());
    }
    if (StartsWith(request, "qFrameFn:")) {
      uint64_t n;
      if (!ParseHexU64(std::string_view(request).substr(9), &n)) {
        return "E03";
      }
      return "F" + HexName(backend_->FrameFunction(n));
    }
    if (StartsWith(request, "qFrameLocals:")) {
      uint64_t n;
      if (!ParseHexU64(std::string_view(request).substr(13), &n)) {
        return "E03";
      }
      std::string out = "L";
      for (const dbg::FrameVariable& v : backend_->FrameLocals(n)) {
        out += HexName(v.name) + "," + HexU64(v.addr) + "," + target::SerializeType(v.type) +
               ";";
      }
      return out;
    }
    if (StartsWith(request, "qDuelReadV:")) {
      // Vectored valid-prefix read: qDuelReadV:<addr>,<len>;<addr>,<len>;...
      // Reply is "V" + the per-range hex payloads joined with ';' — entry i is
      // the longest contiguously-readable prefix of range i (possibly empty).
      constexpr size_t kMaxRanges = 512;
      constexpr uint64_t kMaxRangeBytes = 1 << 20;
      std::vector<std::string_view> parts =
          Split(std::string_view(request).substr(11), ';');
      if (parts.size() > kMaxRanges) {
        return "E03";
      }
      std::string out = "V";
      bool first = true;
      for (std::string_view part : parts) {
        uint64_t addr, len;
        if (!ParsePair(part, &addr, &len) || len > kMaxRangeBytes) {
          return "E03";
        }
        if (!first) {
          out += ";";
        }
        first = false;
        std::vector<uint8_t> buf(len);
        size_t n = backend_->ReadTargetPrefix(addr, buf.data(), len);
        out += HexEncode(buf.data(), n);
      }
      return out;
    }
    if (StartsWith(request, "vCall:")) {
      // vCall:<name-hex>:<type>,<hexbytes>;<type>,<hexbytes>;...
      std::string_view rest = std::string_view(request).substr(6);
      size_t colon = rest.find(':');
      std::string name;
      if (!DecodeName(rest.substr(0, colon == std::string_view::npos ? rest.size() : colon),
                      &name)) {
        return "E03";
      }
      std::vector<target::RawDatum> args;
      if (colon != std::string_view::npos) {
        for (std::string_view part : Split(rest.substr(colon + 1), ';')) {
          if (part.empty()) {
            continue;
          }
          size_t comma = part.rfind(',');
          if (comma == std::string_view::npos) {
            return "E03";
          }
          target::RawDatum d;
          d.type = target::ParseSerializedType(std::string(part.substr(0, comma)),
                                               backend_->Types());
          if (!HexDecode(part.substr(comma + 1), &d.bytes)) {
            return "E03";
          }
          args.push_back(std::move(d));
        }
      }
      try {
        target::RawDatum ret = backend_->CallTargetFunc(name, args);
        if (ret.type == nullptr) {
          return "Rv,";
        }
        return "R" + target::SerializeType(ret.type) + "," +
               HexEncode(ret.bytes.data(), ret.bytes.size());
      } catch (const DuelError& e) {
        return ErrorResponse("E02", e.what());
      }
    }
  } catch (const DuelError& e) {
    return ErrorResponse("E04", e.what());
  }
  return "";  // unknown request: RSP convention is an empty response
}

}  // namespace duel::rsp
