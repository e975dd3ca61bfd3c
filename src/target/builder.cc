#include "src/target/builder.h"

namespace duel::target {

RecordBuilder& RecordBuilder::Field(const std::string& name, TypeRef type) {
  Member m;
  m.name = name;
  m.type = type;
  members_.push_back(std::move(m));
  return *this;
}

RecordBuilder& RecordBuilder::Bitfield(const std::string& name, TypeRef type, unsigned width) {
  Member m;
  m.name = name;
  m.type = type;
  m.is_bitfield = true;
  m.bit_width = width;
  members_.push_back(std::move(m));
  return *this;
}

TypeRef RecordBuilder::Build() {
  types_->CompleteRecord(rec_, std::move(members_));
  return rec_;
}

Addr ImageBuilder::Global(const std::string& name, TypeRef type) {
  Addr a = Alloc(type);
  image_->symbols().AddGlobal({name, type, a});
  return a;
}

Addr ImageBuilder::Alloc(TypeRef type) {
  size_t size = type->size() > 0 ? type->size() : 1;
  return memory().Allocate(size, type->align());
}

Addr ImageBuilder::FrameLocal(const std::string& name, TypeRef type) {
  Addr a = Alloc(type);
  image_->symbols().AddFrameLocal({name, type, a});
  return a;
}

Addr ImageBuilder::FieldAddr(Addr base, TypeRef rec, const std::string& name) {
  const Member* m = rec->FindMember(name);
  if (m == nullptr) {
    throw DuelError(ErrorKind::kName,
                    "no member '" + name + "' in " + rec->ToString());
  }
  return base + m->offset;
}

void ImageBuilder::PokeScalar(Addr a, TypeRef type, int64_t v) {
  size_t size = type->size();
  if (size == 0 || size > 8) {
    throw DuelError(ErrorKind::kInternal,
                    "PokeScalar on non-scalar type " + type->ToString());
  }
  memory().Write(a, &v, size);  // little-endian truncation
}

}  // namespace duel::target
