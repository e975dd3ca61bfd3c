// Compact type serialization for the RSP wire protocol.
//
// SerializeType renders a type as a self-contained string; a record or
// enum definition is emitted in full on its first occurrence within the
// string and by tag reference afterwards, so recursive types (struct
// symbol { ... struct symbol *next; }) round-trip. ParseSerializedType
// reconstructs the type inside the client's own TypeTable and throws
// DuelError(kProtocol) on malformed input, including trailing junk.
//
// Grammar (no whitespace):
//   basic:   v b c a h s t i j l m x y f d
//   pointer: P<type>
//   array:   A<count>:<type>
//   struct:  S<taglen>:<tag>{<member>*}   definition (first occurrence)
//            S<taglen>:<tag>;             reference / incomplete
//   union:   U... (same shapes as struct)
//   enum:    E<taglen>:<tag>{(<len>:<name>=<value>;)*}  or  E<taglen>:<tag>;
//   member:  <len>:<name>[b<width>:]<type>
//   func:    F<ret>((<len>:<name><type>)*[V])

#ifndef DUEL_TARGET_CTYPE_IO_H_
#define DUEL_TARGET_CTYPE_IO_H_

#include <string>

#include "src/target/ctype.h"

namespace duel::target {

std::string SerializeType(TypeRef t);

TypeRef ParseSerializedType(const std::string& wire, TypeTable& table);

}  // namespace duel::target

#endif  // DUEL_TARGET_CTYPE_IO_H_
