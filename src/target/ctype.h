// C type system for the simulated target: LP64 layout, struct/union/enum
// declaration and completion, bit-field packing, pointer/array interning,
// and classic C declarator printing.
//
// Types are immutable once complete and are handed out as shared
// `TypeRef`s; a `TypeTable` owns every type it creates, interns derived
// types (so `PointerTo(Int())` is pointer-identical across calls), and is
// the unit of "one debugger side" — the RSP client keeps its own table and
// reconstructs server types through ctype_io.h.

#ifndef DUEL_TARGET_CTYPE_H_
#define DUEL_TARGET_CTYPE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/error.h"

namespace duel::target {

class Type;
using TypeRef = std::shared_ptr<const Type>;

enum class TypeKind {
  kVoid,
  kBool,
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
  TypeRef type;
  size_t offset = 0;
  bool is_bitfield = false;
  unsigned bit_offset = 0;  // within the allocation unit at `offset`
  unsigned bit_width = 0;
};

struct Enumerator {
  std::string name;
  int64_t value = 0;
};

// One parameter of a function type.
struct Param {
  std::string name;
  TypeRef type;
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
  const TypeRef& target() const { return target_; }
  size_t array_count() const { return array_count_; }

  const std::vector<Member>& members() const { return members_; }
  const Member* FindMember(const std::string& name) const;

  const std::vector<Enumerator>& enumerators() const { return enumerators_; }

  // Function types.
  const TypeRef& return_type() const { return return_type_; }
  const std::vector<Param>& params() const { return params_; }
  bool variadic() const { return variadic_; }

  bool IsInteger() const;
  bool IsSignedInteger() const;
  bool IsUnsignedInteger() const;
  bool IsFloating() const;
  bool IsArithmetic() const;  // integer, floating, or enum
  bool IsScalar() const;      // arithmetic or pointer
  bool IsRecord() const { return kind_ == TypeKind::kStruct || kind_ == TypeKind::kUnion; }

  // Classic C declarator rendering: Declare("x") on `int(*)[10]` gives
  // "int (*x)[10]". ToString() is Declare("").
  std::string Declare(const std::string& name) const;
  std::string ToString() const { return Declare(""); }

 private:
  friend class TypeTable;
  explicit Type(TypeKind k) : kind_(k) {}

  std::string BaseName() const;

  TypeKind kind_;
  size_t size_ = 0;
  size_t align_ = 1;
  bool complete_ = true;
  std::string tag_;
  TypeRef target_;
  size_t array_count_ = 0;
  std::vector<Member> members_;
  std::vector<Enumerator> enumerators_;
  TypeRef return_type_;
  std::vector<Param> params_;
  bool variadic_ = false;
};

// Structural equality across tables: basics by kind, pointers/arrays/
// functions recursively, records and enums by kind + tag identity.
bool TypeEquals(const TypeRef& a, const TypeRef& b);

class TypeTable {
 public:
  TypeTable();
  // Breaks the shared_ptr cycles of recursive records (`struct node { struct
  // node *next; }` reaches itself through its member list) so they are freed.
  ~TypeTable();

  TypeTable(const TypeTable&) = delete;
  TypeTable& operator=(const TypeTable&) = delete;

  // Basic types (LP64).
  const TypeRef& Void() const { return basics_[static_cast<int>(TypeKind::kVoid)]; }
  const TypeRef& Bool() const { return basics_[static_cast<int>(TypeKind::kBool)]; }
  const TypeRef& Char() const { return basics_[static_cast<int>(TypeKind::kChar)]; }
  const TypeRef& SChar() const { return basics_[static_cast<int>(TypeKind::kSChar)]; }
  const TypeRef& UChar() const { return basics_[static_cast<int>(TypeKind::kUChar)]; }
  const TypeRef& Short() const { return basics_[static_cast<int>(TypeKind::kShort)]; }
  const TypeRef& UShort() const { return basics_[static_cast<int>(TypeKind::kUShort)]; }
  const TypeRef& Int() const { return basics_[static_cast<int>(TypeKind::kInt)]; }
  const TypeRef& UInt() const { return basics_[static_cast<int>(TypeKind::kUInt)]; }
  const TypeRef& Long() const { return basics_[static_cast<int>(TypeKind::kLong)]; }
  const TypeRef& ULong() const { return basics_[static_cast<int>(TypeKind::kULong)]; }
  const TypeRef& LongLong() const { return basics_[static_cast<int>(TypeKind::kLongLong)]; }
  const TypeRef& ULongLong() const { return basics_[static_cast<int>(TypeKind::kULongLong)]; }
  const TypeRef& Float() const { return basics_[static_cast<int>(TypeKind::kFloat)]; }
  const TypeRef& Double() const { return basics_[static_cast<int>(TypeKind::kDouble)]; }

  // The basic type for `k`; throws DuelError(kInternal) for derived kinds.
  const TypeRef& Basic(TypeKind k) const;

  // Derived types (interned: repeated calls return the identical object).
  // These two are the only TypeTable mutations evaluation itself performs,
  // so they are the only ones that are thread-safe: concurrent read-only
  // queries of the serve layer intern pointer/array types while sharing one
  // image under a reader lock. Everything else (Declare/Define/Complete)
  // still requires external exclusion. PointerTo returns the table's own
  // interned reference, valid for the table's lifetime.
  const TypeRef& PointerTo(const TypeRef& t);
  TypeRef ArrayOf(const TypeRef& elem, size_t count);
  TypeRef Function(const TypeRef& ret, std::vector<Param> params, bool variadic);

  // Records: declare (or fetch) an incomplete tagged record, then complete
  // it with a member list. Completion computes offsets, bit-field packing,
  // size, and alignment; completing twice throws.
  TypeRef DeclareStruct(const std::string& tag);
  TypeRef DeclareUnion(const std::string& tag);
  void CompleteRecord(const TypeRef& rec, std::vector<Member> members);

  TypeRef DefineEnum(const std::string& tag, std::vector<Enumerator> enumerators);

  void DefineTypedef(const std::string& name, const TypeRef& t);

  // All lookups return nullptr when the tag/name is unknown.
  TypeRef LookupStruct(const std::string& tag) const;
  TypeRef LookupUnion(const std::string& tag) const;
  TypeRef LookupEnum(const std::string& tag) const;
  TypeRef LookupTypedef(const std::string& name) const;

  const std::map<std::string, TypeRef>& structs() const { return structs_; }
  const std::map<std::string, TypeRef>& unions() const { return unions_; }
  const std::map<std::string, TypeRef>& enums() const { return enums_; }
  const std::map<std::string, TypeRef>& typedefs() const { return typedefs_; }

 private:
  TypeRef basics_[15];
  mutable std::mutex derived_mu_;  // guards the two runtime-interning maps
  std::map<const Type*, TypeRef> pointers_;
  std::map<std::pair<const Type*, size_t>, TypeRef> arrays_;
  std::map<std::string, TypeRef> structs_;
  std::map<std::string, TypeRef> unions_;
  std::map<std::string, TypeRef> enums_;
  std::map<std::string, TypeRef> typedefs_;
};

}  // namespace duel::target

#endif  // DUEL_TARGET_CTYPE_H_
