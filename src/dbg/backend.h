// The narrow two-way DUEL <-> debugger interface.
//
// This is the exact surface the paper defines (Implementation section):
//
//   duel_get_target_bytes / duel_put_target_bytes — copy n bytes to/from a
//     target address
//   duel_alloc_target_space — allocate n bytes in the target
//   duel_call_target_func — call a function in the target
//   duel_get_target_variable — value/type information for a symbol
//   duel_get_target_typedef/struct/union/enum — type information
//   plus miscellaneous functions: number of active frames, frame locals.
//
// DUEL calls nothing else. Any debugger that can implement this interface
// can host DUEL; this repo provides SimBackend (over a simulated debuggee)
// and rsp::RemoteBackend (over a gdbserver-style wire protocol).

#ifndef DUEL_DBG_BACKEND_H_
#define DUEL_DBG_BACKEND_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/support/obs/metrics.h"
#include "src/target/ctype.h"
#include "src/target/image.h"

namespace duel::dbg {

using target::Addr;
using target::RawDatum;
using target::TypeRef;

// One contiguous span of target memory, for vectored (multi-range) reads.
struct ReadRange {
  Addr addr = 0;
  size_t size = 0;
};

struct VariableInfo {
  std::string name;
  TypeRef type = nullptr;
  Addr addr = 0;
};

struct FunctionInfo {
  std::string name;
  TypeRef type = nullptr;
  Addr addr = 0;
};

struct FrameVariable {
  std::string name;
  TypeRef type = nullptr;
  Addr addr = 0;
};

// An enumeration constant (e.g. BLUE) resolved by name.
struct EnumeratorInfo {
  TypeRef type = nullptr;  // the enum type
  int64_t value = 0;
};

class DebuggerBackend {
 public:
  virtual ~DebuggerBackend() = default;

  // --- target data space ---
  // Both throw MemoryFault on invalid access.
  virtual void GetTargetBytes(Addr addr, void* out, size_t size) = 0;
  virtual void PutTargetBytes(Addr addr, const void* in, size_t size) = 0;
  virtual bool ValidTargetBytes(Addr addr, size_t size) = 0;
  virtual Addr AllocTargetSpace(size_t size, size_t align) = 0;

  // Bulk extensions used by dbg::MemoryAccess (the read-combining cache).
  // Both are expressed in terms of the three primitives above, so every
  // backend keeps working unmodified; rsp::RemoteBackend overrides
  // ReadTargetRanges with a single vectored wire request (qDuelReadV).
  //
  // ReadTargetPrefix copies the longest contiguously-valid prefix of
  // [addr, addr+size) into `out` and returns its length (0 when addr itself
  // is unreadable). It never throws.
  virtual size_t ReadTargetPrefix(Addr addr, void* out, size_t size);
  // ReadTargetRanges reads many ranges at once with prefix semantics:
  // result[i] holds the valid-prefix bytes of ranges[i] (possibly empty).
  virtual std::vector<std::vector<uint8_t>> ReadTargetRanges(
      std::span<const ReadRange> ranges);

  // Called by the access layer at the start of every query. Backends that
  // keep client-side caches (rsp::RemoteBackend caches symbol lookups, type
  // records and frame info) drop them here, so a query never observes state
  // from before its own epoch.
  virtual void BeginQueryEpoch() {}

  // Monotonic counter that moves whenever the symbol world may have changed:
  // new globals/functions, a frame push, new frame locals. Cached query
  // plans compare it to notice that their compile-time name bindings and
  // check verdicts are stale; it is the only target-side staleness signal
  // a plan has, so a constant would replay stale plans. A backend that
  // cannot observe symbol mutations moves it on every BeginQueryEpoch
  // (rsp::RemoteBackend does so when its server lacks qDuelSymEpoch).
  virtual uint64_t SymbolEpoch() = 0;

  // --- target execution ---
  virtual RawDatum CallTargetFunc(const std::string& name, std::span<const RawDatum> args) = 0;

  // --- symbols & types ---
  // Searches the current frame's locals, then globals (debugger scope rules).
  virtual std::optional<VariableInfo> GetTargetVariable(const std::string& name) = 0;
  virtual std::optional<FunctionInfo> GetTargetFunction(const std::string& name) = 0;
  virtual TypeRef GetTargetTypedef(const std::string& name) = 0;  // null if absent
  virtual TypeRef GetTargetStruct(const std::string& tag) = 0;
  virtual TypeRef GetTargetUnion(const std::string& tag) = 0;
  virtual TypeRef GetTargetEnum(const std::string& tag) = 0;
  // Searches every enum's enumerators (debuggers resolve BLUE to its enum).
  virtual std::optional<EnumeratorInfo> GetTargetEnumerator(const std::string& name) = 0;

  // --- miscellaneous (frames) ---
  virtual size_t NumFrames() = 0;
  virtual std::string FrameFunction(size_t frame) = 0;
  virtual std::vector<FrameVariable> FrameLocals(size_t frame) = 0;

  // The type table DUEL should build its own types in (pointer-to, array-of,
  // the int type of literals, ...). For SimBackend this is the image's table;
  // for RemoteBackend it is a client-side table fed by the wire protocol.
  virtual target::TypeTable& Types() = 0;

  // Observability: per-narrow-call counts always, latency/bytes histograms
  // and trace spans while enabled (see src/support/obs/metrics.h).
  obs::BackendInstr& instr() { return instr_; }

 protected:
  obs::BackendInstr instr_;
};

// Direct, in-process backend over a simulated debuggee image.
class SimBackend : public DebuggerBackend {
 public:
  explicit SimBackend(target::TargetImage& image) : image_(&image) {}

  void GetTargetBytes(Addr addr, void* out, size_t size) override;
  void PutTargetBytes(Addr addr, const void* in, size_t size) override;
  bool ValidTargetBytes(Addr addr, size_t size) override;
  Addr AllocTargetSpace(size_t size, size_t align) override;
  RawDatum CallTargetFunc(const std::string& name, std::span<const RawDatum> args) override;
  std::optional<VariableInfo> GetTargetVariable(const std::string& name) override;
  std::optional<FunctionInfo> GetTargetFunction(const std::string& name) override;
  TypeRef GetTargetTypedef(const std::string& name) override;
  TypeRef GetTargetStruct(const std::string& tag) override;
  TypeRef GetTargetUnion(const std::string& tag) override;
  TypeRef GetTargetEnum(const std::string& tag) override;
  std::optional<EnumeratorInfo> GetTargetEnumerator(const std::string& name) override;
  size_t NumFrames() override;
  std::string FrameFunction(size_t frame) override;
  std::vector<FrameVariable> FrameLocals(size_t frame) override;
  target::TypeTable& Types() override { return image_->types(); }
  uint64_t SymbolEpoch() override { return image_->symbols().version(); }

  target::TargetImage& image() { return *image_; }

 private:
  target::TargetImage* image_;
};

}  // namespace duel::dbg

#endif  // DUEL_DBG_BACKEND_H_
