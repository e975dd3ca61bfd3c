#include "src/scenarios/scenario_file.h"

#include <fstream>
#include <set>
#include <map>
#include <sstream>

#include "src/duel/lexer.h"
#include "src/support/strings.h"
#include "src/target/builder.h"

namespace duel::scenarios {

namespace {

using target::Addr;
using target::ImageBuilder;
using target::TypeKind;
using target::TypeRef;

// A parsed initializer, applied in a second pass so `&name` can reference
// variables declared later in the file.
struct Init {
  enum class Kind { kInt, kFloat, kString, kAddrOf, kList };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double f = 0;
  std::string s;  // string body or referenced name
  std::vector<Init> list;
  size_t offset = 0;  // source offset, for diagnostics
};

struct PendingInit {
  Addr addr;
  TypeRef type = nullptr;
  Init init;
};

class ScenarioParser {
 public:
  ScenarioParser(target::TargetImage& image, const std::string& source)
      : image_(&image), builder_(image), source_(&source) {
    tokens_ = Lexer(source).LexAll();
  }

  void Run() {
    while (!At(Tok::kEnd)) {
      ParseItem();
    }
    ApplyInits();
  }

 private:
  // --- token plumbing -------------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(Tok t) const { return Cur().kind == t; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool Accept(Tok t) {
    if (At(t)) {
      Advance();
      return true;
    }
    return false;
  }
  void Expect(Tok t) {
    if (!Accept(t)) {
      Fail(StrPrintf("expected '%s', got '%s'", TokName(t), TokName(Cur().kind)));
    }
  }
  [[noreturn]] void Fail(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < Cur().range.begin && i < source_->size(); ++i) {
      if ((*source_)[i] == '\n') {
        ++line;
      }
    }
    throw DuelError(ErrorKind::kParse,
                    StrPrintf("scenario line %zu: %s", line, message.c_str()), Cur().range);
  }

  std::string ExpectIdent() {
    if (!At(Tok::kIdent)) {
      Fail("expected an identifier");
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  // --- grammar ---------------------------------------------------------------

  void ParseItem() {
    if (At(Tok::kKwStruct) || At(Tok::kKwUnion)) {
      // `struct tag {` is a definition; `struct tag name` declares a variable.
      size_t save = pos_;
      bool is_union = At(Tok::kKwUnion);
      Advance();
      std::string tag = ExpectIdent();
      if (At(Tok::kLBrace)) {
        ParseRecordDef(tag, is_union);
        return;
      }
      pos_ = save;
      ParseVarDef(/*in_frame=*/false);
      return;
    }
    if (At(Tok::kKwEnum)) {
      size_t save = pos_;
      Advance();
      std::string tag = ExpectIdent();
      if (At(Tok::kLBrace)) {
        ParseEnumDef(tag);
        return;
      }
      pos_ = save;
      ParseVarDef(false);
      return;
    }
    if (At(Tok::kIdent) && Cur().text == "frame") {
      ParseFrameDef();
      return;
    }
    ParseVarDef(false);
  }

  void ParseRecordDef(const std::string& tag, bool is_union) {
    Expect(Tok::kLBrace);
    std::vector<target::Member> members;
    while (!Accept(Tok::kRBrace)) {
      TypeRef base = ParseTypeBase();
      do {
        TypeRef t = base;
        while (Accept(Tok::kStar)) {
          t = builder_.Ptr(t);
        }
        target::Member m;
        m.name = ExpectIdent();
        while (Accept(Tok::kLBracket)) {
          if (!At(Tok::kIntLit)) {
            Fail("expected an array dimension");
          }
          t = builder_.Arr(t, static_cast<size_t>(Cur().int_value));
          Advance();
          Expect(Tok::kRBracket);
        }
        if (Accept(Tok::kColon)) {
          if (!At(Tok::kIntLit)) {
            Fail("expected a bit-field width");
          }
          m.is_bitfield = true;
          m.bit_width = static_cast<unsigned>(Cur().int_value);
          Advance();
        }
        m.type = t;
        members.push_back(std::move(m));
      } while (Accept(Tok::kComma));
      Expect(Tok::kSemi);
    }
    TypeRef rec = is_union ? image_->types().DeclareUnion(tag)
                           : image_->types().DeclareStruct(tag);
    if (rec->complete()) {
      Fail("record '" + tag + "' defined twice");
    }
    image_->types().CompleteRecord(rec, std::move(members));
  }

  void ParseEnumDef(const std::string& tag) {
    Expect(Tok::kLBrace);
    std::vector<target::Enumerator> enums;
    int64_t next = 0;
    while (!Accept(Tok::kRBrace)) {
      target::Enumerator e;
      e.name = ExpectIdent();
      if (Accept(Tok::kAssign)) {
        bool neg = Accept(Tok::kMinus);
        if (!At(Tok::kIntLit)) {
          Fail("expected an enumerator value");
        }
        e.value = static_cast<int64_t>(Cur().int_value);
        if (neg) {
          e.value = -e.value;
        }
        Advance();
      } else {
        e.value = next;
      }
      next = e.value + 1;
      enums.push_back(std::move(e));
      if (!Accept(Tok::kComma) && !At(Tok::kRBrace)) {
        Fail("expected ',' or '}' in enum");
      }
    }
    image_->types().DefineEnum(tag, std::move(enums));
  }

  TypeRef ParseTypeBase() {
    if (Accept(Tok::kKwStruct)) {
      return image_->types().DeclareStruct(ExpectIdent());
    }
    if (Accept(Tok::kKwUnion)) {
      return image_->types().DeclareUnion(ExpectIdent());
    }
    if (Accept(Tok::kKwEnum)) {
      std::string tag = ExpectIdent();
      TypeRef e = image_->types().LookupEnum(tag);
      if (e == nullptr) {
        Fail("unknown enum '" + tag + "'");
      }
      return e;
    }
    bool is_unsigned = false;
    bool any = false;
    int longs = 0;
    bool saw_char = false, saw_short = false, saw_float = false, saw_double = false;
    for (;;) {
      if (Accept(Tok::kKwUnsigned)) {
        is_unsigned = any = true;
      } else if (Accept(Tok::kKwSigned)) {
        any = true;
      } else if (Accept(Tok::kKwChar)) {
        saw_char = any = true;
      } else if (Accept(Tok::kKwShort)) {
        saw_short = any = true;
      } else if (Accept(Tok::kKwInt)) {
        any = true;
      } else if (Accept(Tok::kKwLong)) {
        longs++;
        any = true;
      } else if (Accept(Tok::kKwFloat)) {
        saw_float = any = true;
      } else if (Accept(Tok::kKwDouble)) {
        saw_double = any = true;
      } else {
        break;
      }
    }
    if (!any) {
      Fail("expected a type");
    }
    target::TypeTable& tt = image_->types();
    if (saw_float) return tt.Float();
    if (saw_double) return tt.Double();
    if (saw_char) return is_unsigned ? tt.UChar() : tt.Char();
    if (saw_short) return is_unsigned ? tt.UShort() : tt.Short();
    if (longs >= 2) return is_unsigned ? tt.ULongLong() : tt.LongLong();
    if (longs == 1) return is_unsigned ? tt.ULong() : tt.Long();
    return is_unsigned ? tt.UInt() : tt.Int();
  }

  void ParseVarDef(bool in_frame) {
    TypeRef base = ParseTypeBase();
    do {
      TypeRef t = base;
      while (Accept(Tok::kStar)) {
        t = builder_.Ptr(t);
      }
      std::string name = ExpectIdent();
      while (Accept(Tok::kLBracket)) {
        if (!At(Tok::kIntLit)) {
          Fail("expected an array dimension");
        }
        t = builder_.Arr(t, static_cast<size_t>(Cur().int_value));
        Advance();
        Expect(Tok::kRBracket);
      }
      if (!t->complete()) {
        Fail("variable '" + name + "' has incomplete type " + t->ToString());
      }
      // Frame locals may shadow globals and each other across frames; only
      // same-scope duplicates are errors. `&name` references resolve to
      // globals (the unqualified namespace).
      std::string scoped = in_frame ? current_frame_ + "::" + name : name;
      if (declared_.count(scoped) != 0) {
        Fail("duplicate variable '" + name + "'");
      }
      declared_.insert(scoped);
      Addr addr = in_frame ? builder_.FrameLocal(name, t) : builder_.Global(name, t);
      if (!in_frame) {
        addresses_[name] = addr;
      }
      if (Accept(Tok::kAssign)) {
        PendingInit p;
        p.addr = addr;
        p.type = t;
        p.init = ParseInit();
        pending_.push_back(std::move(p));
      }
    } while (Accept(Tok::kComma));
    Accept(Tok::kSemi);  // optional terminator
  }

  void ParseFrameDef() {
    Advance();  // 'frame'
    std::string fn = ExpectIdent();
    builder_.PushFrame(fn);
    current_frame_ = fn;
    Expect(Tok::kLBrace);
    while (!Accept(Tok::kRBrace)) {
      ParseVarDef(/*in_frame=*/true);
    }
    current_frame_.clear();
  }

  Init ParseInit() {
    Init init;
    init.offset = Cur().range.begin;
    if (Accept(Tok::kLBrace)) {
      init.kind = Init::Kind::kList;
      if (!Accept(Tok::kRBrace)) {
        do {
          init.list.push_back(ParseInit());
        } while (Accept(Tok::kComma));
        Expect(Tok::kRBrace);
      }
      return init;
    }
    if (Accept(Tok::kAmp)) {
      init.kind = Init::Kind::kAddrOf;
      init.s = ExpectIdent();
      return init;
    }
    bool neg = Accept(Tok::kMinus);
    if (At(Tok::kIntLit) || At(Tok::kCharLit)) {
      init.kind = Init::Kind::kInt;
      init.i = static_cast<int64_t>(Cur().int_value);
      if (neg) {
        init.i = -init.i;
      }
      Advance();
      return init;
    }
    if (At(Tok::kFloatLit)) {
      init.kind = Init::Kind::kFloat;
      init.f = neg ? -Cur().float_value : Cur().float_value;
      Advance();
      return init;
    }
    if (At(Tok::kStringLit)) {
      if (neg) {
        Fail("cannot negate a string");
      }
      init.kind = Init::Kind::kString;
      init.s = Cur().text;
      Advance();
      return init;
    }
    Fail("expected an initializer (number, 'c', \"string\", &name, or {...})");
  }

  // --- second pass: apply initializers ----------------------------------------

  [[noreturn]] void FailInit(const Init& init, const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < init.offset && i < source_->size(); ++i) {
      if ((*source_)[i] == '\n') {
        ++line;
      }
    }
    throw DuelError(ErrorKind::kParse,
                    StrPrintf("scenario line %zu: %s", line, message.c_str()));
  }

  void ApplyInits() {
    for (const PendingInit& p : pending_) {
      Apply(p.addr, p.type, p.init);
    }
  }

  void Apply(Addr addr, TypeRef type, const Init& init) {
    switch (type->kind()) {
      case TypeKind::kPointer:
        ApplyPointer(addr, type, init);
        return;
      case TypeKind::kArray:
        ApplyArray(addr, type, init);
        return;
      case TypeKind::kStruct:
      case TypeKind::kUnion:
        ApplyRecord(addr, type, init);
        return;
      default:
        ApplyScalar(addr, type, init);
        return;
    }
  }

  void ApplyScalar(Addr addr, TypeRef type, const Init& init) {
    if (init.kind == Init::Kind::kFloat || type->IsFloating()) {
      double v = init.kind == Init::Kind::kFloat ? init.f
                 : init.kind == Init::Kind::kInt ? static_cast<double>(init.i)
                                                 : 0;
      if (init.kind == Init::Kind::kString || init.kind == Init::Kind::kAddrOf ||
          init.kind == Init::Kind::kList) {
        FailInit(init, "bad initializer for " + type->ToString());
      }
      if (type->kind() == TypeKind::kFloat) {
        builder_.PokeFloat(addr, static_cast<float>(v));
      } else if (type->kind() == TypeKind::kDouble) {
        builder_.PokeDouble(addr, v);
      } else {
        builder_.PokeScalar(addr, type, static_cast<int64_t>(v));
      }
      return;
    }
    if (init.kind != Init::Kind::kInt) {
      FailInit(init, "bad initializer for " + type->ToString());
    }
    builder_.PokeScalar(addr, type, init.i);
  }

  void ApplyPointer(Addr addr, TypeRef type, const Init& init) {
    switch (init.kind) {
      case Init::Kind::kInt:
        builder_.PokePtr(addr, static_cast<Addr>(init.i));
        return;
      case Init::Kind::kString:
        if (type->target()->kind() != TypeKind::kChar) {
          FailInit(init, "string initializer needs a char *");
        }
        builder_.PokePtr(addr, builder_.String(init.s));
        return;
      case Init::Kind::kAddrOf: {
        auto it = addresses_.find(init.s);
        if (it == addresses_.end()) {
          FailInit(init, "unknown variable '&" + init.s + "'");
        }
        builder_.PokePtr(addr, it->second);
        return;
      }
      default:
        FailInit(init, "bad pointer initializer");
    }
  }

  void ApplyArray(Addr addr, TypeRef type, const Init& init) {
    TypeRef elem = type->target();
    if (init.kind == Init::Kind::kString && elem->kind() == TypeKind::kChar) {
      if (init.s.size() + 1 > type->array_count()) {
        FailInit(init, "string does not fit the char array");
      }
      for (size_t i = 0; i < init.s.size(); ++i) {
        builder_.PokeI8(addr + i, static_cast<int8_t>(init.s[i]));
      }
      builder_.PokeI8(addr + init.s.size(), 0);
      return;
    }
    if (init.kind != Init::Kind::kList) {
      FailInit(init, "array initializer needs {...}");
    }
    if (init.list.size() > type->array_count()) {
      FailInit(init, StrPrintf("too many initializers (%zu) for %s", init.list.size(),
                               type->ToString().c_str()));
    }
    for (size_t i = 0; i < init.list.size(); ++i) {
      Apply(addr + i * elem->size(), elem, init.list[i]);
    }
  }

  void ApplyRecord(Addr addr, TypeRef type, const Init& init) {
    if (init.kind != Init::Kind::kList) {
      FailInit(init, "record initializer needs {...}");
    }
    // Unions initialize their first member only.
    size_t max_members = type->kind() == TypeKind::kUnion ? 1 : type->members().size();
    if (init.list.size() > max_members) {
      FailInit(init, "too many initializers for " + type->ToString());
    }
    for (size_t i = 0; i < init.list.size(); ++i) {
      const target::Member& m = type->members()[i];
      if (m.is_bitfield) {
        FailInit(init, "bit-field members cannot be brace-initialized");
      }
      Apply(addr + m.offset, m.type, init.list[i]);
    }
  }

  target::TargetImage* image_;
  ImageBuilder builder_;
  const std::string* source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::map<std::string, Addr> addresses_;
  std::set<std::string> declared_;
  std::string current_frame_;
  std::vector<PendingInit> pending_;
};

}  // namespace

void LoadScenario(target::TargetImage& image, const std::string& source) {
  ScenarioParser(image, source).Run();
}

namespace {

// --- DumpScenario ------------------------------------------------------------

class ScenarioDumper {
 public:
  explicit ScenarioDumper(const target::TargetImage& image) : image_(&image) {
    // Map [addr, addr+size) of every named variable for &name round-trips.
    for (const target::Variable& v : image.symbols().globals()) {
      spans_.push_back({v.addr, v.addr + v.type->size(), v.name});
    }
    for (size_t f = 0; f < image.symbols().NumFrames(); ++f) {
      for (const target::Variable& v : image.symbols().GetFrame(f).locals) {
        spans_.push_back({v.addr, v.addr + v.type->size(), v.name});
      }
    }
  }

  std::string Run() {
    out_ += "## scenario snapshot (generated by DumpScenario)\n";
    EmitTypeDefs();
    for (const target::Variable& v : image_->symbols().globals()) {
      EmitVariable(v, /*indent=*/"");
    }
    // Frames were pushed innermost-first; emit outermost first so reloading
    // reproduces the same order (the last `frame` becomes innermost).
    for (size_t f = image_->symbols().NumFrames(); f-- > 0;) {
      const target::Frame& frame = image_->symbols().GetFrame(f);
      out_ += "frame " + frame.function + " {\n";
      for (const target::Variable& v : frame.locals) {
        EmitVariable(v, "  ");
      }
      out_ += "}\n";
    }
    return out_;
  }

 private:
  struct Span {
    Addr begin;
    Addr end;
    std::string name;
  };

  void EmitTypeDefs() {
    // Emit records in dependency order (by-value members first); pointers
    // may forward-reference.
    std::set<std::string> emitted;
    std::vector<std::pair<std::string, TypeRef>> records;
    for (const auto& [tag, t] : image_->types().enums()) {
      out_ += "enum " + tag + " { ";
      bool first = true;
      for (const target::Enumerator& e : t->enumerators()) {
        if (!first) {
          out_ += ", ";
        }
        first = false;
        out_ += e.name + " = " + StrPrintf("%lld", static_cast<long long>(e.value));
      }
      out_ += " }\n";
    }
    for (const auto& [tag, t] : image_->types().structs()) {
      if (t->complete()) {
        records.emplace_back(tag, t);
      }
    }
    for (const auto& [tag, t] : image_->types().unions()) {
      if (t->complete()) {
        records.emplace_back(tag, t);
      }
    }
    bool progress = true;
    while (!records.empty() && progress) {
      progress = false;
      for (auto it = records.begin(); it != records.end();) {
        bool ready = true;
        for (const target::Member& m : it->second->members()) {
          if (m.type->IsRecord() && emitted.count(m.type->tag()) == 0) {
            ready = false;  // by-value member of a not-yet-emitted record
            break;
          }
        }
        if (ready) {
          EmitRecordDef(it->first, it->second);
          emitted.insert(it->first);
          it = records.erase(it);
          progress = true;
        } else {
          ++it;
        }
      }
    }
  }

  void EmitRecordDef(const std::string& tag, TypeRef t) {
    out_ += (t->kind() == TypeKind::kUnion ? "union " : "struct ") + tag + " { ";
    for (const target::Member& m : t->members()) {
      out_ += m.type->Declare(m.name);
      if (m.is_bitfield) {
        out_ += StrPrintf(" : %u", m.bit_width);
      }
      out_ += "; ";
    }
    out_ += "}\n";
  }

  void EmitVariable(const target::Variable& v, const std::string& indent) {
    out_ += indent + v.type->Declare(v.name) + " = " + InitFor(v.type, v.addr) + "\n";
  }

  const Span* FindSpan(Addr p) const {
    for (const Span& s : spans_) {
      if (p == s.begin) {
        return &s;
      }
    }
    return nullptr;
  }

  std::string InitFor(TypeRef t, Addr addr) {
    const target::Memory& mem = image_->memory();
    switch (t->kind()) {
      case TypeKind::kPointer: {
        Addr p = mem.ReadScalar<Addr>(addr);
        if (p == 0) {
          return "0";
        }
        if (const Span* s = FindSpan(p)) {
          return "&" + s->name;
        }
        if (t->target()->kind() == TypeKind::kChar) {
          std::string str;
          bool trunc = false;
          if (mem.ReadCString(p, 256, &str, &trunc) && !trunc) {
            return "\"" + EscapeString(str) + "\"";
          }
        }
        return StrPrintf("%llu", static_cast<unsigned long long>(p));
      }
      case TypeKind::kArray: {
        TypeRef elem = t->target();
        if (elem->kind() == TypeKind::kChar) {
          std::string str;
          bool trunc = false;
          if (mem.ReadCString(addr, t->array_count(), &str, &trunc) && !trunc &&
              str.size() + 1 <= t->array_count()) {
            return "\"" + EscapeString(str) + "\"";
          }
        }
        std::string out = "{ ";
        for (size_t i = 0; i < t->array_count(); ++i) {
          if (i != 0) {
            out += ", ";
          }
          out += InitFor(elem, addr + i * elem->size());
        }
        return out + " }";
      }
      case TypeKind::kStruct: {
        std::string out = "{ ";
        bool first = true;
        for (const target::Member& m : t->members()) {
          if (m.is_bitfield) {
            return "{ }";  // bit-fields cannot be brace-initialized; skip all
          }
          if (!first) {
            out += ", ";
          }
          first = false;
          out += InitFor(m.type, addr + m.offset);
        }
        return out + " }";
      }
      case TypeKind::kUnion: {
        if (t->members().empty() || t->members()[0].is_bitfield) {
          return "{ }";
        }
        return "{ " + InitFor(t->members()[0].type, addr) + " }";
      }
      case TypeKind::kFloat: {
        float f = mem.ReadScalar<float>(addr);
        std::string text = FormatDouble(f);
        return text.find('.') == std::string::npos && text.find('e') == std::string::npos
                   ? text + ".0"
                   : text;
      }
      case TypeKind::kDouble: {
        double d = mem.ReadScalar<double>(addr);
        std::string text = FormatDouble(d);
        return text.find('.') == std::string::npos && text.find('e') == std::string::npos
                   ? text + ".0"
                   : text;
      }
      default: {
        // Integers (and enums) by width, sign-extended.
        uint64_t bits = 0;
        mem.Read(addr, &bits, t->size());
        if (t->IsSignedInteger() || t->kind() == TypeKind::kEnum) {
          int64_t v = static_cast<int64_t>(bits << (64 - 8 * t->size())) >>
                      (64 - 8 * t->size());
          return StrPrintf("%lld", static_cast<long long>(v));
        }
        return StrPrintf("%llu", static_cast<unsigned long long>(bits));
      }
    }
  }

  const target::TargetImage* image_;
  std::vector<Span> spans_;
  std::string out_;
};

}  // namespace

std::string DumpScenario(const target::TargetImage& image) {
  return ScenarioDumper(image).Run();
}

void LoadScenarioFile(target::TargetImage& image, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw DuelError(ErrorKind::kTarget, "cannot open scenario file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  LoadScenario(image, buffer.str());
}

}  // namespace duel::scenarios
