#include "src/dbg/backend.h"

namespace duel::dbg {

void SimBackend::GetTargetBytes(Addr addr, void* out, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kGetBytes);
  if (instr_.enabled()) {
    instr_.RecordReadBytes(size);
  }
  image_->memory().Read(addr, out, size);
}

void SimBackend::PutTargetBytes(Addr addr, const void* in, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kPutBytes);
  if (instr_.enabled()) {
    instr_.RecordWriteBytes(size);
  }
  image_->memory().Write(addr, in, size);
}

bool SimBackend::ValidTargetBytes(Addr addr, size_t size) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kValidBytes);
  return image_->memory().Valid(addr, size);
}

Addr SimBackend::AllocTargetSpace(size_t size, size_t align) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kAllocSpace);
  return image_->memory().Allocate(size, align);
}

RawDatum SimBackend::CallTargetFunc(const std::string& name, std::span<const RawDatum> args) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kCallFunc);
  return image_->Call(name, args);
}

std::optional<VariableInfo> SimBackend::GetTargetVariable(const std::string& name) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  const target::Variable* v = image_->symbols().FindVariable(name);
  if (v == nullptr) {
    return std::nullopt;
  }
  return VariableInfo{v->name, v->type, v->addr};
}

std::optional<FunctionInfo> SimBackend::GetTargetFunction(const std::string& name) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  const target::FunctionSym* f = image_->symbols().FindFunction(name);
  if (f == nullptr) {
    return std::nullopt;
  }
  return FunctionInfo{f->name, f->type, f->addr};
}

TypeRef SimBackend::GetTargetTypedef(const std::string& name) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kTypeLookup);
  return image_->types().LookupTypedef(name);
}

TypeRef SimBackend::GetTargetStruct(const std::string& tag) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kTypeLookup);
  return image_->types().LookupStruct(tag);
}

TypeRef SimBackend::GetTargetUnion(const std::string& tag) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kTypeLookup);
  return image_->types().LookupUnion(tag);
}

TypeRef SimBackend::GetTargetEnum(const std::string& tag) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kTypeLookup);
  return image_->types().LookupEnum(tag);
}

std::optional<EnumeratorInfo> SimBackend::GetTargetEnumerator(const std::string& name) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kSymbolLookup);
  for (const auto& [tag, type] : image_->types().enums()) {
    for (const target::Enumerator& e : type->enumerators()) {
      if (e.name == name) {
        return EnumeratorInfo{type, e.value};
      }
    }
  }
  return std::nullopt;
}

size_t SimBackend::NumFrames() {
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  return image_->symbols().NumFrames();
}

std::string SimBackend::FrameFunction(size_t frame) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  return image_->symbols().GetFrame(frame).function;
}

std::vector<FrameVariable> SimBackend::FrameLocals(size_t frame) {
  obs::CallTimer timer(instr_, obs::NarrowCall::kFrames);
  std::vector<FrameVariable> out;
  for (const target::Variable& v : image_->symbols().GetFrame(frame).locals) {
    out.push_back(FrameVariable{v.name, v.type, v.addr});
  }
  return out;
}

}  // namespace duel::dbg
