#include "src/target/ctype_io.h"

#include <set>
#include <string>

#include "src/support/strings.h"

namespace duel::target {

namespace {

char BasicCode(TypeKind k) {
  switch (k) {
    case TypeKind::kVoid: return 'v';
    case TypeKind::kBool: return 'b';
    case TypeKind::kChar: return 'c';
    case TypeKind::kSChar: return 'a';
    case TypeKind::kUChar: return 'h';
    case TypeKind::kShort: return 's';
    case TypeKind::kUShort: return 't';
    case TypeKind::kInt: return 'i';
    case TypeKind::kUInt: return 'j';
    case TypeKind::kLong: return 'l';
    case TypeKind::kULong: return 'm';
    case TypeKind::kLongLong: return 'x';
    case TypeKind::kULongLong: return 'y';
    case TypeKind::kFloat: return 'f';
    case TypeKind::kDouble: return 'd';
    default: return 0;
  }
}

class Serializer {
 public:
  std::string Run(TypeRef t) {
    Emit(t);
    return out_;
  }

 private:
  void EmitTag(const std::string& tag) {
    out_ += std::to_string(tag.size()) + ":" + tag;
  }

  void Emit(TypeRef t) {
    if (char c = BasicCode(t->kind()); c != 0) {
      out_.push_back(c);
      return;
    }
    switch (t->kind()) {
      case TypeKind::kPointer:
        out_.push_back('P');
        Emit(t->target());
        break;
      case TypeKind::kArray:
        out_ += "A" + std::to_string(t->array_count()) + ":";
        Emit(t->target());
        break;
      case TypeKind::kStruct:
      case TypeKind::kUnion: {
        out_.push_back(t->kind() == TypeKind::kStruct ? 'S' : 'U');
        EmitTag(t->tag());
        std::string key = (t->kind() == TypeKind::kStruct ? "s:" : "u:") + t->tag();
        if (!t->complete() || !emitted_.insert(key).second) {
          out_.push_back(';');
          break;
        }
        out_.push_back('{');
        for (const Member& m : t->members()) {
          EmitTag(m.name);
          if (m.is_bitfield) {
            out_ += "b" + std::to_string(m.bit_width) + ":";
          }
          Emit(m.type);
        }
        out_.push_back('}');
        break;
      }
      case TypeKind::kEnum: {
        out_.push_back('E');
        EmitTag(t->tag());
        if (!emitted_.insert("e:" + t->tag()).second) {
          out_.push_back(';');
          break;
        }
        out_.push_back('{');
        for (const Enumerator& e : t->enumerators()) {
          EmitTag(e.name);
          out_ += "=" + std::to_string(e.value) + ";";
        }
        out_.push_back('}');
        break;
      }
      case TypeKind::kFunction: {
        out_.push_back('F');
        Emit(t->return_type());
        out_.push_back('(');
        for (const Param& p : t->params()) {
          EmitTag(p.name);
          Emit(p.type);
        }
        if (t->variadic()) {
          out_.push_back('V');
        }
        out_.push_back(')');
        break;
      }
      default:
        throw DuelError(ErrorKind::kInternal, "unserializable type " + t->ToString());
    }
  }

  std::string out_;
  std::set<std::string> emitted_;
};

class Parser {
 public:
  Parser(const std::string& wire, TypeTable& table) : wire_(wire), table_(table) {}

  TypeRef Run() {
    TypeRef t = ParseType();
    if (pos_ != wire_.size()) {
      throw Malformed("trailing junk after type");
    }
    return t;
  }

 private:
  DuelError Malformed(const std::string& what) const {
    return DuelError(ErrorKind::kProtocol,
                     StrPrintf("malformed serialized type at offset %zu: %s", pos_,
                               what.c_str()));
  }

  char Next() {
    if (pos_ >= wire_.size()) {
      throw Malformed("unexpected end of input");
    }
    return wire_[pos_++];
  }

  char Peek() const { return pos_ < wire_.size() ? wire_[pos_] : '\0'; }

  void Expect(char c) {
    if (Next() != c) {
      --pos_;
      throw Malformed(StrPrintf("expected '%c'", c));
    }
  }

  uint64_t ParseNumber() {
    bool neg = false;
    if (Peek() == '-') {
      neg = true;
      ++pos_;
    }
    if (!isdigit(static_cast<unsigned char>(Peek()))) {
      throw Malformed("expected a number");
    }
    uint64_t v = 0;
    while (isdigit(static_cast<unsigned char>(Peek()))) {
      v = v * 10 + static_cast<uint64_t>(Next() - '0');
    }
    return neg ? static_cast<uint64_t>(-static_cast<int64_t>(v)) : v;
  }

  std::string ParseTag() {
    size_t len = ParseNumber();
    Expect(':');
    if (pos_ + len > wire_.size()) {
      throw Malformed("name runs past end of input");
    }
    std::string s = wire_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  TypeRef ParseRecord(bool is_struct) {
    std::string tag = ParseTag();
    TypeRef rec = is_struct ? table_.DeclareStruct(tag) : table_.DeclareUnion(tag);
    char c = Next();
    if (c == ';') {
      return rec;
    }
    if (c != '{') {
      throw Malformed("expected '{' or ';' after record tag");
    }
    std::vector<Member> members;
    while (Peek() != '}') {
      Member m;
      m.name = ParseTag();
      if (Peek() == 'b') {
        ++pos_;
        m.is_bitfield = true;
        m.bit_width = static_cast<unsigned>(ParseNumber());
        Expect(':');
      }
      m.type = ParseType();
      members.push_back(std::move(m));
    }
    Expect('}');
    // A re-sent definition for a tag the client already completed is parsed
    // (to consume the input) but otherwise ignored.
    if (!rec->complete()) {
      table_.CompleteRecord(rec, std::move(members));
    }
    return rec;
  }

  TypeRef ParseEnum() {
    std::string tag = ParseTag();
    char c = Next();
    if (c == ';') {
      if (TypeRef e = table_.LookupEnum(tag)) {
        return e;
      }
      return table_.DefineEnum(tag, {});
    }
    if (c != '{') {
      throw Malformed("expected '{' or ';' after enum tag");
    }
    std::vector<Enumerator> enumerators;
    while (Peek() != '}') {
      Enumerator e;
      e.name = ParseTag();
      Expect('=');
      e.value = static_cast<int64_t>(ParseNumber());
      Expect(';');
      enumerators.push_back(std::move(e));
    }
    Expect('}');
    return table_.DefineEnum(tag, std::move(enumerators));
  }

  TypeRef ParseType() {
    char c = Next();
    switch (c) {
      case 'v': return table_.Void();
      case 'b': return table_.Bool();
      case 'c': return table_.Char();
      case 'a': return table_.SChar();
      case 'h': return table_.UChar();
      case 's': return table_.Short();
      case 't': return table_.UShort();
      case 'i': return table_.Int();
      case 'j': return table_.UInt();
      case 'l': return table_.Long();
      case 'm': return table_.ULong();
      case 'x': return table_.LongLong();
      case 'y': return table_.ULongLong();
      case 'f': return table_.Float();
      case 'd': return table_.Double();
      case 'P': return table_.PointerTo(ParseType());
      case 'A': {
        size_t count = ParseNumber();
        Expect(':');
        return table_.ArrayOf(ParseType(), count);
      }
      case 'S': return ParseRecord(/*is_struct=*/true);
      case 'U': return ParseRecord(/*is_struct=*/false);
      case 'E': return ParseEnum();
      case 'F': {
        TypeRef ret = ParseType();
        Expect('(');
        std::vector<Param> params;
        bool variadic = false;
        while (Peek() != ')') {
          if (Peek() == 'V') {
            ++pos_;
            variadic = true;
            break;
          }
          Param p;
          p.name = ParseTag();
          p.type = ParseType();
          params.push_back(std::move(p));
        }
        Expect(')');
        return table_.Function(ret, std::move(params), variadic);
      }
      default:
        --pos_;
        throw Malformed(StrPrintf("unknown type code '%c'", c));
    }
  }

  const std::string& wire_;
  TypeTable& table_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeType(TypeRef t) { return Serializer().Run(t); }

TypeRef ParseSerializedType(const std::string& wire, TypeTable& table) {
  return Parser(wire, table).Run();
}

}  // namespace duel::target
