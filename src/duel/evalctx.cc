#include "src/duel/evalctx.h"

#include <cstring>

#include "src/duel/apply.h"
#include "src/support/strings.h"

namespace duel {

using target::TypeKind;

void EvalContext::StepObserved(int node_id) {
  if (profiler_ != nullptr) {
    profiler_->OnStep(node_id);
  }
  if (governor_ != nullptr) {
    governor_->ChargeStep();
  }
  if (++counters_.eval_steps - query_steps_base_ > opts_.max_steps) {
    ThrowStepLimit();
  }
}

void EvalContext::ThrowStepLimit() const {
  throw DuelError(ErrorKind::kLimit,
                  StrPrintf("evaluation exceeded %llu steps (unbounded generator?)",
                            static_cast<unsigned long long>(opts_.max_steps)));
}

void EvalContext::LoadBytes(const Value& v, void* out, size_t n) {
  try {
    access_.GetBytes(v.addr(), out, n);
  } catch (MemoryFault& mf) {
    // Attach the offending operand's symbolic value, for the paper-style
    // "Illegal memory reference in x of x->y: x = lvalue 0x..." report.
    if (mf.symbolic_context().empty() && !v.sym().empty()) {
      mf.set_symbolic_context(v.sym().Text());
    }
    throw;
  }
}

namespace {

uint64_t MaskTo(uint64_t v, size_t size) {
  return size >= 8 ? v : v & ((1ull << (size * 8)) - 1);
}

}  // namespace

Scalar EvalContext::Load(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kRValue:
      return {v.type(), v.bits()};
    case Value::Kind::kFrame:
      return {v.type(), 0};
    case Value::Kind::kLValue:
      break;
  }
  TypeRef t = v.type();
  if (t->kind() == TypeKind::kArray || t->kind() == TypeKind::kFunction) {
    // Array-to-pointer and function-to-pointer decay.
    return {RvalueType(types(), t), v.addr()};
  }
  size_t n = t->size();
  if (v.is_bitfield()) {
    // Load the storage unit and extract the field.
    uint64_t unit = 0;
    LoadBytes(v, &unit, n);
    uint64_t raw = (unit >> v.bit_offset()) & ((v.bit_width() >= 64)
                                                   ? ~0ull
                                                   : ((1ull << v.bit_width()) - 1));
    if (t->IsSignedInteger() && v.bit_width() < 64 &&
        (raw & (1ull << (v.bit_width() - 1))) != 0) {
      raw |= ~((1ull << v.bit_width()) - 1);
    }
    return {t, MaskTo(raw, n)};
  }
  if (n <= 8) {
    uint64_t bits = 0;
    LoadBytes(v, &bits, n);
    return {t, bits};
  }
  return {t, Rvalue(v).bits()};  // an aggregate: loaded whole, as Rvalue does
}

Value EvalContext::Rvalue(const Value& v) {
  if (v.kind() != Value::Kind::kLValue) {
    return v;
  }
  TypeRef t = v.type();
  size_t n = t->size();
  if (n <= 8 || t->kind() == TypeKind::kArray) {
    Scalar s = Load(v);  // arrays decay
    return Value::RV(s.type, &s.bits, s.type->size(), v.sym());
  }
  auto* image = static_cast<uint8_t*>(arena_.Allocate(n));
  LoadBytes(v, image, n);
  return Value::RV(t, image, n, v.sym());
}

void Scalar::ThrowNotInteger(TypeRef type) { IntegerType(type).Throw(); }

uint64_t Scalar::U64() const {
  if (type->IsFloating()) {
    return static_cast<uint64_t>(F64());
  }
  return static_cast<uint64_t>(I64());
}

double Scalar::F64() const {
  if (type->kind() == TypeKind::kFloat) {
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  }
  if (type->kind() == TypeKind::kDouble) {
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  if (type->IsUnsignedInteger()) {
    return static_cast<double>(static_cast<uint64_t>(I64()));
  }
  return static_cast<double>(I64());
}

Addr Scalar::Ptr() const {
  if (type->kind() != TypeKind::kPointer) {
    throw DuelError(ErrorKind::kType, "expected a pointer, got " + type->ToString());
  }
  return bits;
}

int64_t EvalContext::ToI64(const Value& v) { return Load(v).I64(); }

uint64_t EvalContext::ToU64(const Value& v) { return Load(v).U64(); }

double EvalContext::ToF64(const Value& v) { return Load(v).F64(); }

Addr EvalContext::ToPtr(const Value& v) { return Load(v).Ptr(); }

bool EvalContext::Truthy(const Value& value) {
  Scalar s = Load(value);
  if (Typing t = ConditionType(types(), s.type); !t) {
    t.Throw();
  }
  if (s.type->IsFloating()) {
    return s.F64() != 0.0;
  }
  return s.bits != 0;
}

void EvalContext::Store(const Value& lv, const Value& rv) {
  if (Typing t = AssignType(types(), Op::kAssign, lv.type(), lv.is_lvalue(),
                                RvalueTypeOf(types(), rv)); !t) {
    std::string message = t.Message();
    if (t.fault() == TypeFault::kAssignRvalue && !lv.sym().empty()) {
      message += ": " + lv.sym().Text();
    }
    throw DuelError(ErrorKind::kType, message);
  }
  TypeRef t = lv.type();
  if (lv.is_bitfield()) {
    uint64_t unit = 0;
    size_t n = t->size();
    access_.GetBytes(lv.addr(), &unit, n);
    uint64_t mask = (lv.bit_width() >= 64 ? ~0ull : (1ull << lv.bit_width()) - 1)
                    << lv.bit_offset();
    uint64_t nv = (static_cast<uint64_t>(ToI64(rv)) << lv.bit_offset()) & mask;
    unit = (unit & ~mask) | nv;
    access_.PutBytes(lv.addr(), &unit, n);
    return;
  }
  if (t->IsRecord() || t->kind() == TypeKind::kArray) {
    Value v = Rvalue(rv);
    access_.PutBytes(lv.addr(), v.bytes().data(), v.bytes().size());
    return;
  }
  // Scalar conversions.
  uint8_t buf[8];
  size_t n = t->size();
  if (t->kind() == TypeKind::kFloat) {
    float f = static_cast<float>(ToF64(rv));
    std::memcpy(buf, &f, sizeof(f));
  } else if (t->kind() == TypeKind::kDouble) {
    double d = ToF64(rv);
    std::memcpy(buf, &d, sizeof(d));
  } else {
    int64_t x = t->kind() == TypeKind::kPointer ? static_cast<int64_t>(ToU64(rv)) : ToI64(rv);
    std::memcpy(buf, &x, 8);
  }
  access_.PutBytes(lv.addr(), buf, n);
}

std::optional<Value> EvalContext::LookupInScope(const WithScope& scope, const std::string& name) {
  const Value& s = scope.subject;
  if (s.is_frame()) {
    for (const dbg::FrameVariable& v : backend_->FrameLocals(s.frame_index())) {
      if (v.name == name) {
        return Value::LV(v.type, v.addr, MakeSym(name));
      }
    }
    return std::nullopt;
  }
  // Resolve the record base: a record lvalue/rvalue, or a pointer to record.
  TypeRef t = s.type();
  if (t == nullptr) {
    return std::nullopt;
  }
  TypeRef rec = t->kind() == TypeKind::kPointer ? t->target() : t;
  if (!rec->IsRecord()) {
    return std::nullopt;
  }
  const target::Member* m = rec->FindMember(name);
  if (m == nullptr) {
    return std::nullopt;
  }
  return MemberOf(s, rec, *m, name);
}

Value EvalContext::MemberOf(const Value& s, TypeRef rec, const target::Member& m,
                            std::string_view name) {
  if (s.type()->kind() == TypeKind::kPointer) {
    Addr base = ToPtr(s);  // loads the pointer; faults surface at *use* below
    if (base == 0) {
      throw MemoryFault(0, rec->size(), "null pointer dereference");
    }
    Addr maddr = base + m.offset;
    if (m.is_bitfield) {
      return Value::BitfieldLV(m.type, maddr, m.bit_offset, m.bit_width, MakeSym(name));
    }
    return Value::LV(m.type, maddr, MakeSym(name));
  }
  if (s.is_lvalue()) {
    Addr maddr = s.addr() + m.offset;
    if (m.is_bitfield) {
      return Value::BitfieldLV(m.type, maddr, m.bit_offset, m.bit_width, MakeSym(name));
    }
    return Value::LV(m.type, maddr, MakeSym(name));
  }
  // Record rvalue: slice the member out of the byte image.
  if (m.is_bitfield) {
    uint64_t unit = 0;
    std::memcpy(&unit, s.bytes().data() + m.offset, std::min<size_t>(m.type->size(), 8));
    uint64_t raw =
        (unit >> m.bit_offset) & ((m.bit_width >= 64) ? ~0ull : ((1ull << m.bit_width) - 1));
    return Value::Int(m.type, static_cast<int64_t>(raw), MakeSym(name));
  }
  return Value::RV(m.type, s.bytes().data() + m.offset, m.type->size(), MakeSym(name));
}

std::optional<Value> EvalContext::LookupName(const std::string& name) {
  counters_.name_lookups++;
  // 1. with-scopes, innermost first.
  for (size_t i = 0; i < scopes_.size(); ++i) {
    if (auto v = LookupInScope(scopes_.At(i), name)) {
      return v;
    }
  }
  // 2. aliases.
  if (const Value* a = aliases_.Find(name)) {
    // The alias may be rebound while this copy is still in use: its image
    // moves into the query arena.
    Value v = *a;
    v.set_sym(Sym::None());
    v = v.Rehome(arena_);
    v.set_sym(MakeSym(name));
    return v;
  }
  // 3. target variables (current frame, then globals — the backend applies
  //    debugger scope rules).
  if (auto info = backend_->GetTargetVariable(name)) {
    return Value::LV(info->type, info->addr, MakeSym(name));
  }
  // 4. target functions.
  if (auto fn = backend_->GetTargetFunction(name)) {
    return Value::LV(fn->type, fn->addr, MakeSym(name));
  }
  // 5. enumeration constants (BLUE resolves to its enum's value).
  if (auto e = backend_->GetTargetEnumerator(name)) {
    return Value::Int(e->type, e->value, MakeSym(name));
  }
  return std::nullopt;
}

Value EvalContext::Underscore(SourceRange range) {
  const WithScope* top = scopes_.Top();
  if (top == nullptr) {
    throw DuelError(ErrorKind::kName, "'_' used outside of a with scope ('.', '->', '-->')",
                    range);
  }
  return top->subject;
}

Value EvalContext::MemberAccess(const Value& subject, const std::string& name, bool deref,
                                SourceRange range) {
  WithScope scope{subject, deref};
  if (auto v = LookupInScope(scope, name)) {
    return *v;
  }
  TypeRef t = subject.type();
  throw DuelError(ErrorKind::kType,
                  "no member '" + name + "' in " + (t ? t->ToString() : "<frame>"), range);
}

TypeRef EvalContext::ResolveTypeSpec(const TypeSpec& spec, SourceRange range) {
  TypeRef base = nullptr;
  switch (spec.base) {
    case TypeSpec::Base::kVoid: base = types().Void(); break;
    case TypeSpec::Base::kBool: base = types().Bool(); break;
    case TypeSpec::Base::kChar: base = types().Char(); break;
    case TypeSpec::Base::kSChar: base = types().SChar(); break;
    case TypeSpec::Base::kUChar: base = types().UChar(); break;
    case TypeSpec::Base::kShort: base = types().Short(); break;
    case TypeSpec::Base::kUShort: base = types().UShort(); break;
    case TypeSpec::Base::kInt: base = types().Int(); break;
    case TypeSpec::Base::kUInt: base = types().UInt(); break;
    case TypeSpec::Base::kLong: base = types().Long(); break;
    case TypeSpec::Base::kULong: base = types().ULong(); break;
    case TypeSpec::Base::kLongLong: base = types().LongLong(); break;
    case TypeSpec::Base::kULongLong: base = types().ULongLong(); break;
    case TypeSpec::Base::kFloat: base = types().Float(); break;
    case TypeSpec::Base::kDouble: base = types().Double(); break;
    case TypeSpec::Base::kStruct:
      base = backend_->GetTargetStruct(spec.tag);
      if (base == nullptr) {
        throw DuelError(ErrorKind::kType, "unknown struct tag '" + spec.tag + "'", range);
      }
      break;
    case TypeSpec::Base::kUnion:
      base = backend_->GetTargetUnion(spec.tag);
      if (base == nullptr) {
        throw DuelError(ErrorKind::kType, "unknown union tag '" + spec.tag + "'", range);
      }
      break;
    case TypeSpec::Base::kEnum:
      base = backend_->GetTargetEnum(spec.tag);
      if (base == nullptr) {
        throw DuelError(ErrorKind::kType, "unknown enum tag '" + spec.tag + "'", range);
      }
      break;
    case TypeSpec::Base::kTypedef:
      base = backend_->GetTargetTypedef(spec.tag);
      if (base == nullptr) {
        throw DuelError(ErrorKind::kType, "unknown type name '" + spec.tag + "'", range);
      }
      break;
  }
  for (int i = 0; i < spec.pointer_depth; ++i) {
    base = types().PointerTo(base);
  }
  for (auto it = spec.array_dims.rbegin(); it != spec.array_dims.rend(); ++it) {
    base = types().ArrayOf(base, *it);
  }
  return base;
}

Addr EvalContext::InternString(const std::string& body) {
  auto it = interned_strings_.find(body);
  if (it != interned_strings_.end()) {
    return it->second;
  }
  Addr addr = access_.Alloc(body.size() + 1, 1);
  access_.PutBytes(addr, body.data(), body.size());
  uint8_t nul = 0;
  access_.PutBytes(addr + body.size(), &nul, 1);
  interned_strings_[body] = addr;
  return addr;
}

std::vector<std::string> AliasTable::Names() const {
  std::vector<std::string> out;
  out.reserve(aliases_.size());
  for (const auto& [name, value] : aliases_) {
    out.push_back(name);
  }
  return out;
}

}  // namespace duel
