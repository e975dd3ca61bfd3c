// The simulated target process: memory + type table + symbol table +
// native functions callable through the narrow interface.
//
// A TargetImage stands in for a live debuggee. Scenario builders populate
// it with globals, frames, and data structures; SimBackend exposes it
// through the 7-function DUEL↔debugger interface.

#ifndef DUEL_TARGET_IMAGE_H_
#define DUEL_TARGET_IMAGE_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/target/ctype.h"
#include "src/target/datum.h"
#include "src/target/memory.h"

namespace duel::target {

struct Variable {
  std::string name;
  TypeRef type = nullptr;
  Addr addr = 0;
};

struct FunctionSym {
  std::string name;
  TypeRef type = nullptr;  // kFunction
  Addr addr = 0;
};

// One active stack frame; frames are stored innermost-first.
struct Frame {
  std::string function;
  std::vector<Variable> locals;
};

class SymbolTable {
 public:
  void AddGlobal(Variable v) {
    globals_.push_back(std::move(v));
    ++version_;
  }
  void AddFunction(FunctionSym f) {
    functions_.push_back(std::move(f));
    ++version_;
  }

  // Pushes a new innermost frame.
  void PushFrame(const std::string& function);
  void AddFrameLocal(Variable v);  // into the innermost frame

  // Scope resolution: innermost frame locals first, then globals.
  const Variable* FindVariable(const std::string& name) const;
  const FunctionSym* FindFunction(const std::string& name) const;

  size_t NumFrames() const { return frames_.size(); }
  const Frame& GetFrame(size_t i) const { return frames_.at(i); }

  const std::vector<Variable>& globals() const { return globals_; }
  const std::vector<FunctionSym>& functions() const { return functions_; }

  // Bumped on every symbol/frame mutation; DebuggerBackend::SymbolEpoch()
  // surfaces it so cached query plans can notice stale name bindings.
  uint64_t version() const { return version_; }

 private:
  std::vector<Variable> globals_;
  std::vector<FunctionSym> functions_;
  std::vector<Frame> frames_;  // innermost first
  uint64_t version_ = 0;
};

class TargetImage {
 public:
  using NativeFn = std::function<RawDatum(TargetImage&, std::span<const RawDatum>)>;

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // Allocates and NUL-terminates `s` in target memory.
  Addr NewCString(const std::string& s);

  // Registers a native function and its function symbol.
  void RegisterFunction(const std::string& name, TypeRef fn_type, NativeFn fn);

  // Calls a registered native function; throws DuelError(kTarget) when
  // `name` is unknown.
  RawDatum Call(const std::string& name, std::span<const RawDatum> args);

  // Output accumulated by printf-style natives.
  std::string& output() { return output_; }
  const std::string& output() const { return output_; }
  std::string TakeOutput() {
    std::string out = std::move(output_);
    output_.clear();
    return out;
  }
  void AppendOutput(const std::string& s) { output_ += s; }

 private:
  Memory memory_;
  TypeTable types_;
  SymbolTable symbols_;
  std::map<std::string, NativeFn> natives_;
  std::string output_;
};

// Installs the standard native functions (printf, strlen, abs).
void InstallStandardFunctions(TargetImage& image);

}  // namespace duel::target

#endif  // DUEL_TARGET_IMAGE_H_
