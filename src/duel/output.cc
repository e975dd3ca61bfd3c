#include "src/duel/output.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/support/strings.h"

namespace duel {

using target::TypeKind;

namespace {

// What a line writes between a value's symbolic and its text.
constexpr std::string_view kValueSep = " = ";

constexpr int kMaxDepth = 3;
constexpr size_t kMaxArrayElems = 10;

// A window of target bytes a string is read into: on the stack unless the
// display cap asks for more.
class ReadWindow {
 public:
  explicit ReadWindow(size_t n) {
    if (n > sizeof(stack_)) {
      heap_.resize(n);
    }
  }
  char* data() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  char stack_[256];
  std::string heap_;
};

// The longest text of a scalar other than a string or an enumerator's name.
constexpr size_t kScalarChars = 32;

char* WriteWord(char* out, std::string_view w) {
  std::memcpy(out, w.data(), w.size());
  return out + w.size();
}

char* WriteHexAddr(char* out, uint64_t p) {
  out[0] = '0';
  out[1] = 'x';
  return std::to_chars(out + 2, out + kScalarChars, p, 16).ptr;
}

// The most characters WriteQuoted writes for at most `shown` characters: the
// quotes, each character escaped (4 at most) and "..." after the closing one.
size_t QuotedRoom(size_t shown) { return 4 * shown + 5; }

// Writes at `out` the quoted, escaped characters of `buf[0, n)` up to a NUL,
// and at most `shown` of them; "..." follows the closing quote when no NUL
// ends them. Returns the end.
char* WriteQuoted(char* out, const char* buf, size_t n, size_t shown) {
  *out++ = '"';
  for (size_t i = 0; i < n; ++i) {
    if (buf[i] == '\0') {
      *out++ = '"';
      return out;
    }
    if (i == shown) {
      break;
    }
    out = WriteEscapedChar(out, buf[i]);
  }
  return WriteWord(out, "\"...");
}

// Appends what `write` writes at the pointer it is given (at most `room`
// characters), returning its end.
template <typename Write>
void AppendWritten(std::string& out, size_t room, Write write) {
  const size_t at = out.size();
  out.resize(at + room);
  char* const start = out.data();
  out.resize(static_cast<size_t>(write(start + at) - start));
}

char* WriteCharPointer(EvalContext& ctx, Addr p, char* out, bool reads_charged) {
  if (p == 0) {
    return WriteWord(out, "0x0");
  }
  // One chunked valid-prefix read instead of a ValidTargetBytes+GetTargetBytes
  // pair per character. cap+1 bytes so a string of exactly cap chars can still
  // prove its terminating NUL.
  const size_t cap = ctx.opts().max_string_display;
  ReadWindow buf(cap + 1);
  const size_t n = reads_charged ? ctx.access().ReadRun(p, buf.data(), cap + 1)
                                 : ctx.access().GetBytesPrefix(p, buf.data(), cap + 1);
  if (n == 0) {
    return WriteHexAddr(out, p);  // unreadable: show the raw pointer
  }
  return WriteQuoted(out, buf.data(), n, cap);
}

bool IsString(TypeRef t) {
  return t->kind() == TypeKind::kPointer && t->target()->kind() == TypeKind::kChar;
}

void AppendRecursive(EvalContext& ctx, const Value& v, int depth, std::string& out);

void AppendRecord(EvalContext& ctx, const Value& v, int depth, std::string& out) {
  if (depth >= kMaxDepth) {
    out += "{...}";
    return;
  }
  out += '{';
  bool first = true;
  for (const target::Member& m : v.type()->members()) {
    Value mv;
    if (v.is_lvalue()) {
      mv = m.is_bitfield
               ? Value::BitfieldLV(m.type, v.addr() + m.offset, m.bit_offset, m.bit_width,
                                   Sym::None())
               : Value::LV(m.type, v.addr() + m.offset, Sym::None());
    } else {
      mv = Value::RV(m.type, v.bytes().data() + m.offset, m.type->size(), Sym::None());
    }
    if (!first) {
      out += ", ";
    }
    first = false;
    out += m.name;
    out += " = ";
    AppendRecursive(ctx, mv, depth + 1, out);
  }
  out += '}';
}

void AppendArray(EvalContext& ctx, const Value& v, int depth, std::string& out) {
  if (depth >= kMaxDepth) {
    out += "{...}";
    return;
  }
  TypeRef t = v.type();
  TypeRef elem = t->target();
  size_t n = t->array_count();
  // char arrays display as strings (one chunked valid-prefix read).
  if (elem->kind() == TypeKind::kChar && v.is_lvalue()) {
    const size_t cap = std::min(n, ctx.opts().max_string_display);
    ReadWindow buf(cap);
    const size_t m = ctx.access().GetBytesPrefix(v.addr(), buf.data(), cap);
    AppendWritten(out, QuotedRoom(m), [&](char* p) { return WriteQuoted(p, buf.data(), m, m); });
    return;
  }
  out += '{';
  size_t show = std::min(n, kMaxArrayElems);
  for (size_t i = 0; i < show; ++i) {
    Value ev = v.is_lvalue()
                   ? Value::LV(elem, v.addr() + i * elem->size(), Sym::None())
                   : Value::RV(elem, v.bytes().data() + i * elem->size(), elem->size(),
                               Sym::None());
    if (i != 0) {
      out += ", ";
    }
    AppendRecursive(ctx, ev, depth + 1, out);
  }
  if (show < n) {
    out += ", ...";
  }
  out += '}';
}

void AppendRecursive(EvalContext& ctx, const Value& v, int depth, std::string& out) {
  if (v.is_frame()) {
    out += "frame #";
    AppendDecimal(out, static_cast<uint64_t>(v.frame_index()));
    out += ' ';
    out += ctx.backend().FrameFunction(v.frame_index());
    return;
  }
  TypeRef t = v.type();
  if (t == nullptr) {
    out += "<no value>";
    return;
  }
  if (t->kind() == TypeKind::kArray) {
    AppendArray(ctx, v, depth, out);
    return;
  }
  if (t->IsRecord()) {
    AppendRecord(ctx, v, depth, out);
    return;
  }
  const uint64_t bits = ctx.Load(v).bits;
  AppendWritten(out, ScalarRoom(ctx, t), [&](char* p) { return WriteScalar(ctx, t, bits, p); });
}

}  // namespace

char* WriteScalar(EvalContext& ctx, TypeRef t, uint64_t bits, char* out, bool reads_charged) {
  const Scalar s{t, bits};
  char* const end = out + kScalarChars;
  switch (t->kind()) {
    case TypeKind::kVoid:
      return WriteWord(out, "void");
    case TypeKind::kBool:
      return WriteWord(out, s.I64() != 0 ? "true" : "false");
    case TypeKind::kChar:
    case TypeKind::kSChar:
    case TypeKind::kUChar: {
      out[0] = '\'';
      char* last = WriteEscapedChar(out + 1, static_cast<char>(s.I64()));
      *last = '\'';
      return last + 1;
    }
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      return WriteDouble(out, s.F64());
    case TypeKind::kEnum: {
      const int64_t x = s.I64();  // its enumerator's name, else its number
      for (const target::Enumerator& e : t->enumerators()) {
        if (e.value == x) {
          return WriteWord(out, e.name);
        }
      }
      return std::to_chars(out, end, x).ptr;
    }
    case TypeKind::kPointer:
      return IsString(t) ? WriteCharPointer(ctx, s.Ptr(), out, reads_charged)
                         : WriteHexAddr(out, s.Ptr());
    case TypeKind::kFunction:
      return WriteWord(out, "<function>");
    default:
      return t->IsUnsignedInteger() ? std::to_chars(out, end, s.U64()).ptr
                                    : std::to_chars(out, end, s.I64()).ptr;
  }
}

size_t ScalarRoom(const EvalContext& ctx, TypeRef t) {
  size_t room = kScalarChars;
  if (IsString(t)) {
    room = std::max(room, QuotedRoom(ctx.opts().max_string_display));
  } else if (t->kind() == TypeKind::kEnum) {
    for (const target::Enumerator& e : t->enumerators()) {
      room = std::max(room, e.name.size());
    }
  }
  return room;
}

uint64_t ScalarReadBytes(const EvalContext& ctx, TypeRef t, uint64_t bits) {
  return IsString(t) && bits != 0 ? ctx.opts().max_string_display + 1 : 0;
}

void AppendValue(EvalContext& ctx, const Value& v, std::string& out) {
  AppendRecursive(ctx, v, 0, out);
}

std::string FormatValue(EvalContext& ctx, const Value& v) {
  std::string out;
  AppendValue(ctx, v, out);
  return out;
}

char* OpenValue(char* line, char* sym_end) {
  return sym_end == line ? sym_end : WriteWord(sym_end, kValueSep);
}

size_t OpenValue(std::string& line) {
  const size_t sym_len = line.size();
  if (sym_len != 0) {
    line += kValueSep;
  }
  return sym_len;
}

void PushLine(std::vector<std::string>& lines, std::vector<uint32_t>& spans,
              std::string_view line, size_t sym_len) {
  const size_t value_at = sym_len + kValueSep.size();
  const bool once = sym_len != 0 && line.size() - value_at == sym_len &&
                    line.compare(value_at, sym_len, line.substr(0, sym_len)) == 0;
  spans.push_back(static_cast<uint32_t>(sym_len));
  lines.emplace_back(once ? line.substr(value_at) : line);
}

std::string FormatError(const DuelError& e) {
  if (e.kind() == ErrorKind::kMemory) {
    const auto* mf = dynamic_cast<const MemoryFault*>(&e);
    std::string line = "Illegal memory reference";
    if (!e.symbolic_context().empty()) {
      line += " in " + e.symbolic_context();
    }
    line += ": ";
    if (mf != nullptr) {
      line += e.symbolic_context().empty()
                  ? std::string(e.what())
                  : StrPrintf("%s = lvalue 0x%llx", e.symbolic_context().c_str(),
                              static_cast<unsigned long long>(mf->addr()));
    } else {
      line += e.what();
    }
    return line + ".";
  }
  std::string out = std::string(ErrorKindName(e.kind())) + ": " + e.what();
  if (!e.symbolic_context().empty()) {
    out += " (in " + e.symbolic_context() + ")";
  }
  return out;
}

}  // namespace duel
