#include "src/target/ctype.h"

#include <algorithm>

namespace duel::target {

namespace {

size_t AlignUp(size_t n, size_t a) { return (n + a - 1) / a * a; }

struct BasicLayout {
  size_t size;
  size_t align;
};

BasicLayout LayoutOf(TypeKind k) {
  switch (k) {
    case TypeKind::kVoid: return {0, 1};
    case TypeKind::kBool: return {1, 1};
    case TypeKind::kChar:
    case TypeKind::kSChar:
    case TypeKind::kUChar: return {1, 1};
    case TypeKind::kShort:
    case TypeKind::kUShort: return {2, 2};
    case TypeKind::kInt:
    case TypeKind::kUInt: return {4, 4};
    case TypeKind::kLong:
    case TypeKind::kULong:
    case TypeKind::kLongLong:
    case TypeKind::kULongLong: return {8, 8};
    case TypeKind::kFloat: return {4, 4};
    case TypeKind::kDouble: return {8, 8};
    default: return {0, 1};
  }
}

}  // namespace

const Member* Type::FindMember(const std::string& name) const {
  for (const Member& m : members_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string Type::BaseName() const {
  switch (kind_) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kBool: return "bool";
    case TypeKind::kChar: return "char";
    case TypeKind::kSChar: return "signed char";
    case TypeKind::kUChar: return "unsigned char";
    case TypeKind::kShort: return "short";
    case TypeKind::kUShort: return "unsigned short";
    case TypeKind::kInt: return "int";
    case TypeKind::kUInt: return "unsigned int";
    case TypeKind::kLong: return "long";
    case TypeKind::kULong: return "unsigned long";
    case TypeKind::kLongLong: return "long long";
    case TypeKind::kULongLong: return "unsigned long long";
    case TypeKind::kFloat: return "float";
    case TypeKind::kDouble: return "double";
    case TypeKind::kEnum: return "enum " + tag_;
    case TypeKind::kStruct: return "struct " + tag_;
    case TypeKind::kUnion: return "union " + tag_;
    default: return "?";
  }
}

std::string Type::Declare(const std::string& name) const {
  // The classic inside-out declarator walk: accumulate the declarator string
  // while descending through pointers/arrays/functions, parenthesizing a
  // pointer declarator whenever it binds against an array or function.
  std::string decl = name;
  const Type* t = this;
  for (;;) {
    switch (t->kind_) {
      case TypeKind::kPointer:
        decl = "*" + decl;
        t = t->target_;
        break;
      case TypeKind::kArray: {
        if (!decl.empty() && decl[0] == '*') {
          decl = "(" + decl + ")";
        }
        decl += "[" + std::to_string(t->array_count_) + "]";
        t = t->target_;
        break;
      }
      case TypeKind::kFunction: {
        if (!decl.empty() && decl[0] == '*') {
          decl = "(" + decl + ")";
        }
        std::string params;
        for (const Param& p : t->params_) {
          if (!params.empty()) {
            params += ", ";
          }
          params += p.type->Declare(p.name);
        }
        if (t->variadic_) {
          params += params.empty() ? "..." : ", ...";
        }
        decl += "(" + params + ")";
        t = t->return_type_;
        break;
      }
      default: {
        std::string base = t->BaseName();
        if (decl.empty()) {
          return base;
        }
        return base + " " + decl;
      }
    }
  }
}

bool TypeEquals(TypeRef a, TypeRef b) {
  if (a == b) {
    return true;
  }
  if (a == nullptr || b == nullptr || a->kind() != b->kind()) {
    return false;
  }
  switch (a->kind()) {
    case TypeKind::kPointer:
      return TypeEquals(a->target(), b->target());
    case TypeKind::kArray:
      return a->array_count() == b->array_count() && TypeEquals(a->target(), b->target());
    case TypeKind::kStruct:
    case TypeKind::kUnion:
    case TypeKind::kEnum:
      return a->tag() == b->tag();
    case TypeKind::kFunction: {
      if (a->variadic() != b->variadic() || a->params().size() != b->params().size() ||
          !TypeEquals(a->return_type(), b->return_type())) {
        return false;
      }
      for (size_t i = 0; i < a->params().size(); ++i) {
        if (!TypeEquals(a->params()[i].type, b->params()[i].type)) {
          return false;
        }
      }
      return true;
    }
    default:
      return true;  // basic kinds match by kind alone
  }
}

TypeTable::TypeTable() {
  for (int k = 0; k <= static_cast<int>(TypeKind::kDouble); ++k) {
    Type* t = New(static_cast<TypeKind>(k));
    BasicLayout l = LayoutOf(t->kind_);
    t->size_ = l.size;
    t->align_ = l.align;
    basics_[k] = t;
  }
}

Type* TypeTable::New(TypeKind k) {
  store_.push_back(std::unique_ptr<Type>(new Type(k)));
  store_.back()->table_ = this;
  return store_.back().get();
}

TypeRef TypeTable::Basic(TypeKind k) const {
  if (k > TypeKind::kDouble) {
    throw DuelError(ErrorKind::kInternal,
                    "Basic() called with a derived type kind");
  }
  return basics_[static_cast<int>(k)];
}

TypeRef TypeTable::PointerTo(TypeRef t) {
  const bool own = t != nullptr && t->table_ == this;
  if (own) {
    if (TypeRef hit = t->pointer_.load(std::memory_order_acquire)) {
      return hit;
    }
  }
  std::lock_guard<std::mutex> lock(derived_mu_);
  TypeRef& slot = pointers_[t];
  if (slot == nullptr) {
    Type* p = New(TypeKind::kPointer);
    p->size_ = 8;
    p->align_ = 8;
    p->target_ = t;
    slot = p;
  }
  if (own) {
    t->pointer_.store(slot, std::memory_order_release);
  }
  return slot;
}

TypeRef TypeTable::ArrayOf(TypeRef elem, size_t count) {
  std::lock_guard<std::mutex> lock(derived_mu_);
  TypeRef& slot = arrays_[{elem, count}];
  if (slot == nullptr) {
    Type* a = New(TypeKind::kArray);
    a->size_ = elem->size() * count;
    a->align_ = elem->align();
    a->target_ = elem;
    a->array_count_ = count;
    slot = a;
  }
  return slot;
}

TypeRef TypeTable::Function(TypeRef ret, std::vector<Param> params, bool variadic) {
  std::lock_guard<std::mutex> lock(derived_mu_);
  TypeRef& slot = functions_[{ret, params, variadic}];
  if (slot == nullptr) {
    Type* f = New(TypeKind::kFunction);
    f->size_ = 0;
    f->align_ = 1;
    f->return_type_ = ret;
    f->params_ = std::move(params);
    f->variadic_ = variadic;
    slot = f;
  }
  return slot;
}

TypeRef TypeTable::DeclareStruct(const std::string& tag) {
  Type*& slot = structs_[tag];
  if (slot == nullptr) {
    slot = New(TypeKind::kStruct);
    slot->complete_ = false;
    slot->tag_ = tag;
  }
  return slot;
}

TypeRef TypeTable::DeclareUnion(const std::string& tag) {
  Type*& slot = unions_[tag];
  if (slot == nullptr) {
    slot = New(TypeKind::kUnion);
    slot->complete_ = false;
    slot->tag_ = tag;
  }
  return slot;
}

void TypeTable::CompleteRecord(TypeRef rec, std::vector<Member> members) {
  if (rec == nullptr || !rec->IsRecord()) {
    throw DuelError(ErrorKind::kInternal, "CompleteRecord on a non-record type");
  }
  bool is_union = rec->kind() == TypeKind::kUnion;
  const auto& records = is_union ? unions_ : structs_;
  auto it = records.find(rec->tag());
  if (it == records.end() || it->second != rec) {
    throw DuelError(ErrorKind::kInternal, "CompleteRecord on another table's record");
  }
  Type* t = it->second;
  if (t->complete()) {
    throw DuelError(ErrorKind::kType,
                    "record '" + rec->tag() + "' is already complete");
  }
  size_t end = 0;       // bytes used so far (struct layout cursor)
  size_t align = 1;
  // Current bit-field allocation unit (struct only).
  bool in_unit = false;
  size_t unit_off = 0;
  size_t unit_size = 0;
  unsigned bit_pos = 0;
  for (Member& m : members) {
    size_t msize = m.type->size();
    size_t malign = m.type->align();
    align = std::max(align, malign);
    if (is_union) {
      m.offset = 0;
      m.bit_offset = m.is_bitfield ? 0 : m.bit_offset;
      end = std::max(end, msize);
      continue;
    }
    if (m.is_bitfield) {
      if (!in_unit || msize != unit_size || bit_pos + m.bit_width > unit_size * 8) {
        unit_off = AlignUp(end, malign);
        unit_size = msize;
        bit_pos = 0;
        in_unit = true;
        end = unit_off + unit_size;
      }
      m.offset = unit_off;
      m.bit_offset = bit_pos;
      bit_pos += m.bit_width;
    } else {
      in_unit = false;
      m.offset = AlignUp(end, malign);
      end = m.offset + msize;
    }
  }
  t->members_ = std::move(members);
  t->size_ = AlignUp(end, align);
  t->align_ = align;
  t->complete_ = true;
}

TypeRef TypeTable::DefineEnum(const std::string& tag, std::vector<Enumerator> enumerators) {
  TypeRef& slot = enums_[tag];
  if (slot == nullptr) {
    Type* e = New(TypeKind::kEnum);
    e->size_ = 4;
    e->align_ = 4;
    e->tag_ = tag;
    e->enumerators_ = std::move(enumerators);
    slot = e;
  }
  return slot;
}

void TypeTable::DefineTypedef(const std::string& name, TypeRef t) {
  typedefs_[name] = t;
}

TypeRef TypeTable::LookupStruct(const std::string& tag) const {
  auto it = structs_.find(tag);
  return it == structs_.end() ? nullptr : it->second;
}

TypeRef TypeTable::LookupUnion(const std::string& tag) const {
  auto it = unions_.find(tag);
  return it == unions_.end() ? nullptr : it->second;
}

TypeRef TypeTable::LookupEnum(const std::string& tag) const {
  auto it = enums_.find(tag);
  return it == enums_.end() ? nullptr : it->second;
}

TypeRef TypeTable::LookupTypedef(const std::string& name) const {
  auto it = typedefs_.find(name);
  return it == typedefs_.end() ? nullptr : it->second;
}

}  // namespace duel::target
