// C type system for the simulated target: LP64 layout, struct/union/enum
// declaration and completion, bit-field packing, derived-type interning,
// and classic C declarator printing.
//
// A `TypeTable` is the one owner of every type it creates: it keeps them in
// an append-only store and frees them only when the table itself dies, so a
// `TypeRef` is a plain `const Type*` that stays valid for the table's
// lifetime and copies for free. Types are immutable once complete; derived
// types are interned (so `PointerTo(Int())` is pointer-identical across
// calls). A table is the unit of "one debugger side" — the RSP client keeps
// its own table and reconstructs server types through ctype_io.h.

#ifndef DUEL_TARGET_CTYPE_H_
#define DUEL_TARGET_CTYPE_H_

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/support/error.h"

namespace duel::target {

class Type;
class TypeTable;
using TypeRef = const Type*;

enum class TypeKind {
  kVoid,
  kBool,  // kBool..kULongLong are the integer kinds, in one run (Type::IsInteger)
  kChar,
  kSChar,
  kUChar,
  kShort,
  kUShort,
  kInt,
  kUInt,
  kLong,
  kULong,
  kLongLong,
  kULongLong,
  kFloat,
  kDouble,
  kEnum,
  kPointer,
  kArray,
  kStruct,
  kUnion,
  kFunction,
};

// One member of a struct or union. `offset`/`bit_offset` are computed by
// TypeTable::CompleteRecord from declaration order; callers building member
// lists leave them zero.
struct Member {
  std::string name;
  TypeRef type = nullptr;
  size_t offset = 0;
  bool is_bitfield = false;
  unsigned bit_offset = 0;  // within the allocation unit at `offset`
  unsigned bit_width = 0;
};

struct Enumerator {
  std::string name;
  int64_t value = 0;
};

// One parameter of a function type. Ordered so function types can be
// interned on their parameter lists.
struct Param {
  std::string name;
  TypeRef type = nullptr;

  auto operator<=>(const Param&) const = default;
};

class Type {
 public:
  TypeKind kind() const { return kind_; }
  size_t size() const { return size_; }
  size_t align() const { return align_; }
  bool complete() const { return complete_; }

  // Record / enum tag ("symbol" of `struct symbol`).
  const std::string& tag() const { return tag_; }

  // Pointee for pointers, element type for arrays.
  TypeRef target() const { return target_; }
  size_t array_count() const { return array_count_; }

  const std::vector<Member>& members() const { return members_; }
  const Member* FindMember(const std::string& name) const;

  const std::vector<Enumerator>& enumerators() const { return enumerators_; }

  // Function types.
  TypeRef return_type() const { return return_type_; }
  const std::vector<Param>& params() const { return params_; }
  bool variadic() const { return variadic_; }

  // Kind tests, inline: the engine asks them for every value it reads.
  bool IsInteger() const { return kind_ >= TypeKind::kBool && kind_ <= TypeKind::kULongLong; }
  bool IsSignedInteger() const {
    switch (kind_) {
      case TypeKind::kChar:  // plain char is signed on this target
      case TypeKind::kSChar:
      case TypeKind::kShort:
      case TypeKind::kInt:
      case TypeKind::kLong:
      case TypeKind::kLongLong:
        return true;
      default:
        return false;
    }
  }
  bool IsUnsignedInteger() const { return IsInteger() && !IsSignedInteger(); }
  bool IsFloating() const { return kind_ == TypeKind::kFloat || kind_ == TypeKind::kDouble; }
  bool IsArithmetic() const {  // integer, floating, or enum
    return IsInteger() || IsFloating() || kind_ == TypeKind::kEnum;
  }
  bool IsScalar() const {  // arithmetic or pointer
    return IsArithmetic() || kind_ == TypeKind::kPointer;
  }
  bool IsRecord() const { return kind_ == TypeKind::kStruct || kind_ == TypeKind::kUnion; }

  // Classic C declarator rendering: Declare("x") on `int(*)[10]` gives
  // "int (*x)[10]". ToString() is Declare("").
  std::string Declare(const std::string& name) const;
  std::string ToString() const { return Declare(""); }

 private:
  friend class TypeTable;
  explicit Type(TypeKind k) : kind_(k) {}
  Type(const Type&) = delete;
  Type& operator=(const Type&) = delete;

  std::string BaseName() const;

  TypeKind kind_;
  size_t size_ = 0;
  size_t align_ = 1;
  bool complete_ = true;
  std::string tag_;
  TypeRef target_ = nullptr;
  size_t array_count_ = 0;
  std::vector<Member> members_;
  std::vector<Enumerator> enumerators_;
  TypeRef return_type_ = nullptr;
  std::vector<Param> params_;
  bool variadic_ = false;

  // The interned pointer to this type, published once by the owning table's
  // PointerTo (release) so later calls read it without the table's lock
  // (acquire). Array decay asks for it once per element.
  const TypeTable* table_ = nullptr;
  mutable std::atomic<TypeRef> pointer_{nullptr};
};

// Structural equality across tables: basics by kind, pointers/arrays/
// functions recursively, records and enums by kind + tag identity.
bool TypeEquals(TypeRef a, TypeRef b);

class TypeTable {
 public:
  TypeTable();

  TypeTable(const TypeTable&) = delete;
  TypeTable& operator=(const TypeTable&) = delete;

  // Basic types (LP64).
  TypeRef Void() const { return basics_[static_cast<int>(TypeKind::kVoid)]; }
  TypeRef Bool() const { return basics_[static_cast<int>(TypeKind::kBool)]; }
  TypeRef Char() const { return basics_[static_cast<int>(TypeKind::kChar)]; }
  TypeRef SChar() const { return basics_[static_cast<int>(TypeKind::kSChar)]; }
  TypeRef UChar() const { return basics_[static_cast<int>(TypeKind::kUChar)]; }
  TypeRef Short() const { return basics_[static_cast<int>(TypeKind::kShort)]; }
  TypeRef UShort() const { return basics_[static_cast<int>(TypeKind::kUShort)]; }
  TypeRef Int() const { return basics_[static_cast<int>(TypeKind::kInt)]; }
  TypeRef UInt() const { return basics_[static_cast<int>(TypeKind::kUInt)]; }
  TypeRef Long() const { return basics_[static_cast<int>(TypeKind::kLong)]; }
  TypeRef ULong() const { return basics_[static_cast<int>(TypeKind::kULong)]; }
  TypeRef LongLong() const { return basics_[static_cast<int>(TypeKind::kLongLong)]; }
  TypeRef ULongLong() const { return basics_[static_cast<int>(TypeKind::kULongLong)]; }
  TypeRef Float() const { return basics_[static_cast<int>(TypeKind::kFloat)]; }
  TypeRef Double() const { return basics_[static_cast<int>(TypeKind::kDouble)]; }

  // The basic type for `k`; throws DuelError(kInternal) for derived kinds.
  TypeRef Basic(TypeKind k) const;

  // Derived types (interned: repeated calls return the identical object).
  // These three are the only TypeTable mutations evaluation itself performs
  // (a remote session rebuilds function types on every query epoch), so they
  // are the only ones that are thread-safe: concurrent read-only queries of
  // the serve layer intern derived types while sharing one image under a
  // reader lock. Everything else (Declare/Define/Complete) still requires
  // external exclusion. PointerTo on one of this table's own types takes no
  // lock once that pointer type exists.
  TypeRef PointerTo(TypeRef t);
  TypeRef ArrayOf(TypeRef elem, size_t count);
  TypeRef Function(TypeRef ret, std::vector<Param> params, bool variadic);

  // Records: declare (or fetch) an incomplete tagged record, then complete
  // it with a member list. Completion computes offsets, bit-field packing,
  // size, and alignment; completing twice throws.
  TypeRef DeclareStruct(const std::string& tag);
  TypeRef DeclareUnion(const std::string& tag);
  void CompleteRecord(TypeRef rec, std::vector<Member> members);

  TypeRef DefineEnum(const std::string& tag, std::vector<Enumerator> enumerators);

  void DefineTypedef(const std::string& name, TypeRef t);

  // All lookups return nullptr when the tag/name is unknown.
  TypeRef LookupStruct(const std::string& tag) const;
  TypeRef LookupUnion(const std::string& tag) const;
  TypeRef LookupEnum(const std::string& tag) const;
  TypeRef LookupTypedef(const std::string& name) const;

  // Records map to the table's own mutable types (Type has no public
  // mutators, so only CompleteRecord can change one).
  const std::map<std::string, Type*>& structs() const { return structs_; }
  const std::map<std::string, Type*>& unions() const { return unions_; }
  const std::map<std::string, TypeRef>& enums() const { return enums_; }
  const std::map<std::string, TypeRef>& typedefs() const { return typedefs_; }

 private:
  // Appends a fresh type to the store. The caller holds derived_mu_ or the
  // table's external exclusion.
  Type* New(TypeKind k);

  std::vector<std::unique_ptr<Type>> store_;  // every type; never moved or freed early
  TypeRef basics_[15];
  mutable std::mutex derived_mu_;  // guards the runtime-interning maps and their appends
  std::map<TypeRef, TypeRef> pointers_;
  std::map<std::pair<TypeRef, size_t>, TypeRef> arrays_;
  std::map<std::tuple<TypeRef, std::vector<Param>, bool>, TypeRef> functions_;
  std::map<std::string, Type*> structs_;
  std::map<std::string, Type*> unions_;
  std::map<std::string, TypeRef> enums_;
  std::map<std::string, TypeRef> typedefs_;
};

}  // namespace duel::target

#endif  // DUEL_TARGET_CTYPE_H_
