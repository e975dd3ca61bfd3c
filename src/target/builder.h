// Fluent builder for populating a TargetImage: globals, frames, records,
// strings, and raw pokes. Scenario constructors use this to lay out the
// debuggee data structures the paper's examples query.

#ifndef DUEL_TARGET_BUILDER_H_
#define DUEL_TARGET_BUILDER_H_

#include <string>
#include <vector>

#include "src/target/image.h"

namespace duel::target {

class ImageBuilder;

// Collects members for a tagged struct/union, then completes it.
class RecordBuilder {
 public:
  RecordBuilder& Field(const std::string& name, TypeRef type);
  RecordBuilder& Bitfield(const std::string& name, TypeRef type, unsigned width);
  TypeRef Build();

 private:
  friend class ImageBuilder;
  RecordBuilder(TypeTable& types, TypeRef rec) : types_(&types), rec_(rec) {}

  TypeTable* types_;
  TypeRef rec_ = nullptr;
  std::vector<Member> members_;
};

class ImageBuilder {
 public:
  explicit ImageBuilder(TargetImage& image) : image_(&image) {}

  TargetImage& image() { return *image_; }
  TypeTable& types() { return image_->types(); }
  Memory& memory() { return image_->memory(); }

  // Type shorthands.
  TypeRef Int() { return types().Int(); }
  TypeRef UInt() { return types().UInt(); }
  TypeRef Char() { return types().Char(); }
  TypeRef Long() { return types().Long(); }
  TypeRef Float() { return types().Float(); }
  TypeRef Double() { return types().Double(); }
  TypeRef Ptr(TypeRef t) { return types().PointerTo(t); }
  TypeRef Arr(TypeRef t, size_t n) { return types().ArrayOf(t, n); }

  // Declares (or fetches) a possibly-incomplete tagged struct.
  TypeRef StructRef(const std::string& tag) { return types().DeclareStruct(tag); }

  RecordBuilder Struct(const std::string& tag) {
    return RecordBuilder(types(), types().DeclareStruct(tag));
  }
  RecordBuilder Union(const std::string& tag) {
    return RecordBuilder(types(), types().DeclareUnion(tag));
  }

  // Storage: allocates target memory (and registers a symbol for Global /
  // FrameLocal).
  Addr Global(const std::string& name, TypeRef type);
  Addr Alloc(TypeRef type);
  Addr String(const std::string& s) { return image_->NewCString(s); }

  // Frames (innermost last pushed).
  void PushFrame(const std::string& function) { image_->symbols().PushFrame(function); }
  Addr FrameLocal(const std::string& name, TypeRef type);

  // Address of member `name` of the record at `base`. Throws DuelError for
  // unknown members.
  Addr FieldAddr(Addr base, TypeRef rec, const std::string& name);

  // Raw pokes.
  void PokeI8(Addr a, int8_t v) { memory().WriteScalar(a, v); }
  void PokeI32(Addr a, int32_t v) { memory().WriteScalar(a, v); }
  void PokeI64(Addr a, int64_t v) { memory().WriteScalar(a, v); }
  void PokeU64(Addr a, uint64_t v) { memory().WriteScalar(a, v); }
  void PokeFloat(Addr a, float v) { memory().WriteScalar(a, v); }
  void PokeDouble(Addr a, double v) { memory().WriteScalar(a, v); }
  void PokePtr(Addr a, Addr v) { memory().WriteScalar(a, v); }

  // Writes `v` using the size of `type` (integers, enums, pointers).
  void PokeScalar(Addr a, TypeRef type, int64_t v);

 private:
  TargetImage* image_;
};

}  // namespace duel::target

#endif  // DUEL_TARGET_BUILDER_H_
