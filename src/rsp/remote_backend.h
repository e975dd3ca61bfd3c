// RemoteBackend: the DUEL side of the remote protocol.
//
// Implements the narrow DebuggerBackend interface over an RSP transport, the
// way DUEL would attach to a remote debugger. Types arrive serialized and
// are rebuilt in a client-side TypeTable; memory and calls round-trip per
// request (experiment E8 measures this against the in-process SimBackend).
//
// Two client-side optimizations keep the wire traffic at O(blocks) instead
// of O(values):
//   - ReadTargetRanges maps a whole batch of valid-prefix reads (the access
//     layer's block fetches) onto one qDuelReadV packet; servers that don't
//     speak it answer with an empty/error reply, which latches a per-backend
//     fallback to the base-class per-range path.
//   - Symbol, type, and frame lookups are memoized (negative results too)
//     for the duration of one query epoch; BeginQueryEpoch() drops the memo
//     so a new query re-observes the target.
//   - SymbolEpoch() asks the server (qDuelSymEpoch) once per query epoch, so
//     cached plans notice symbols the target defined since they were built.
//     A server that doesn't speak it latches a fallback in which every query
//     epoch is a new symbol epoch.

#ifndef DUEL_RSP_REMOTE_BACKEND_H_
#define DUEL_RSP_REMOTE_BACKEND_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dbg/backend.h"
#include "src/rsp/transport.h"

namespace duel::rsp {

class RemoteBackend final : public dbg::DebuggerBackend {
 public:
  explicit RemoteBackend(Transport& transport) : transport_(&transport) {}

  void GetTargetBytes(target::Addr addr, void* out, size_t size) override;
  void PutTargetBytes(target::Addr addr, const void* in, size_t size) override;
  bool ValidTargetBytes(target::Addr addr, size_t size) override;
  target::Addr AllocTargetSpace(size_t size, size_t align) override;
  target::RawDatum CallTargetFunc(const std::string& name,
                                  std::span<const target::RawDatum> args) override;
  std::optional<dbg::VariableInfo> GetTargetVariable(const std::string& name) override;
  std::optional<dbg::FunctionInfo> GetTargetFunction(const std::string& name) override;
  target::TypeRef GetTargetTypedef(const std::string& name) override;
  target::TypeRef GetTargetStruct(const std::string& tag) override;
  target::TypeRef GetTargetUnion(const std::string& tag) override;
  target::TypeRef GetTargetEnum(const std::string& tag) override;
  std::optional<dbg::EnumeratorInfo> GetTargetEnumerator(const std::string& name) override;
  size_t NumFrames() override;
  std::string FrameFunction(size_t frame) override;
  std::vector<dbg::FrameVariable> FrameLocals(size_t frame) override;
  target::TypeTable& Types() override { return types_; }

  // One qDuelReadV wire packet for the whole batch (with automatic fallback
  // to the base class's per-range loop when the server doesn't support it).
  std::vector<std::vector<uint8_t>> ReadTargetRanges(
      std::span<const dbg::ReadRange> ranges) override;
  size_t ReadTargetPrefix(target::Addr addr, void* out, size_t size) override;

  // Drops the per-query memo caches (not the TypeTable: types are immutable
  // records and stay valid across queries).
  void BeginQueryEpoch() override;

  // The server's symbol epoch, memoized for the query epoch.
  uint64_t SymbolEpoch() override;

  bool vectored_supported() const { return vectored_supported_; }

 private:
  std::string Request(const std::string& payload);
  target::TypeRef QueryType(const std::string& command, const std::string& name);

  Transport* transport_;
  target::TypeTable types_;  // client-side type universe

  bool vectored_supported_ = true;  // latched off on first failed qDuelReadV
  bool sym_epoch_supported_ = true;  // latched off on first failed qDuelSymEpoch
  uint64_t sym_epoch_ = 0;           // last SymbolEpoch() answer
  bool sym_epoch_fresh_ = false;     // sym_epoch_ belongs to this query epoch

  // Per-epoch memo caches. Values are whatever the wire returned, including
  // "not found" — a repeated miss costs no round trip either.
  std::map<std::string, std::optional<dbg::VariableInfo>> var_cache_;
  std::map<std::string, std::optional<dbg::FunctionInfo>> func_cache_;
  std::map<std::string, std::optional<dbg::EnumeratorInfo>> enum_cache_;
  std::map<std::string, target::TypeRef> type_cache_;  // key: "<cmd>:<name>"
  std::optional<size_t> num_frames_cache_;
  std::map<size_t, std::string> frame_fn_cache_;
  std::map<size_t, std::vector<dbg::FrameVariable>> frame_locals_cache_;
};

}  // namespace duel::rsp

#endif  // DUEL_RSP_REMOTE_BACKEND_H_
