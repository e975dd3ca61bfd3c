#include "src/duel/output.h"

#include <charconv>
#include <vector>

#include "src/support/strings.h"

namespace duel {

using target::TypeKind;

namespace {

// An integer's decimal text, without a format string.
template <typename T>
std::string Decimal(T v) {
  char buf[24];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

constexpr int kMaxDepth = 3;
constexpr size_t kMaxArrayElems = 10;

std::string FormatRecursive(EvalContext& ctx, const Value& v, int depth);

std::string FormatCharPointer(EvalContext& ctx, Addr p) {
  if (p == 0) {
    return "0x0";
  }
  std::string hexp = StrPrintf("0x%llx", static_cast<unsigned long long>(p));
  // One chunked valid-prefix read instead of a ValidTargetBytes+GetTargetBytes
  // pair per character. cap+1 bytes so a string of exactly cap chars can still
  // prove its terminating NUL.
  size_t cap = ctx.opts().max_string_display;
  std::vector<char> buf(cap + 1);
  size_t n = ctx.access().GetBytesPrefix(p, buf.data(), cap + 1);
  if (n == 0) {
    return hexp;  // unreadable: show the raw pointer
  }
  std::string out;
  out.reserve(cap + 16);
  bool truncated = true;  // no NUL within the readable window
  for (size_t i = 0; i < n && i <= cap; ++i) {
    if (buf[i] == '\0') {
      truncated = false;
      break;
    }
    if (i == cap) {
      break;
    }
    out += EscapeChar(buf[i]);
  }
  return "\"" + out + (truncated ? "\"..." : "\"");
}

std::string FormatRecord(EvalContext& ctx, const Value& v, int depth) {
  if (depth >= kMaxDepth) {
    return "{...}";
  }
  TypeRef t = v.type();
  std::vector<std::string> fields;
  for (const target::Member& m : t->members()) {
    Value mv;
    if (v.is_lvalue()) {
      mv = m.is_bitfield
               ? Value::BitfieldLV(m.type, v.addr() + m.offset, m.bit_offset, m.bit_width,
                                   Sym::None())
               : Value::LV(m.type, v.addr() + m.offset, Sym::None());
    } else {
      mv = Value::RV(m.type, v.bytes().data() + m.offset, m.type->size(), Sym::None());
    }
    fields.push_back(m.name + " = " + FormatRecursive(ctx, mv, depth + 1));
  }
  return "{" + Join(fields, ", ") + "}";
}

std::string FormatArray(EvalContext& ctx, const Value& v, int depth) {
  if (depth >= kMaxDepth) {
    return "{...}";
  }
  TypeRef t = v.type();
  TypeRef elem = t->target();
  size_t n = t->array_count();
  // char arrays display as strings (one chunked valid-prefix read).
  if (elem->kind() == TypeKind::kChar && v.is_lvalue()) {
    size_t cap = std::min(n, ctx.opts().max_string_display);
    std::vector<char> buf(cap);
    size_t m = ctx.access().GetBytesPrefix(v.addr(), buf.data(), cap);
    std::string out;
    for (size_t i = 0; i < m; ++i) {
      if (buf[i] == '\0') {
        return "\"" + out + "\"";
      }
      out += EscapeChar(buf[i]);
    }
    return "\"" + out + "\"...";
  }
  std::vector<std::string> elems;
  size_t show = std::min(n, kMaxArrayElems);
  for (size_t i = 0; i < show; ++i) {
    Value ev = v.is_lvalue()
                   ? Value::LV(elem, v.addr() + i * elem->size(), Sym::None())
                   : Value::RV(elem, v.bytes().data() + i * elem->size(), elem->size(),
                               Sym::None());
    elems.push_back(FormatRecursive(ctx, ev, depth + 1));
  }
  if (show < n) {
    elems.push_back("...");
  }
  return "{" + Join(elems, ", ") + "}";
}

std::string FormatRecursive(EvalContext& ctx, const Value& v, int depth) {
  if (v.is_frame()) {
    return StrPrintf("frame #%zu %s", v.frame_index(),
                     ctx.backend().FrameFunction(v.frame_index()).c_str());
  }
  TypeRef t = v.type();
  if (t == nullptr) {
    return "<no value>";
  }
  if (t->kind() == TypeKind::kArray) {
    return FormatArray(ctx, v, depth);
  }
  if (t->IsRecord()) {
    return FormatRecord(ctx, v, depth);
  }
  Value r = ctx.Rvalue(v);
  switch (t->kind()) {
    case TypeKind::kVoid:
      return "void";
    case TypeKind::kBool:
      return ctx.ToI64(r) != 0 ? "true" : "false";
    case TypeKind::kChar:
    case TypeKind::kSChar:
    case TypeKind::kUChar: {
      int64_t c = ctx.ToI64(r);
      return StrPrintf("'%s'", EscapeChar(static_cast<char>(c)).c_str());
    }
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      return FormatDouble(ctx.ToF64(r));
    case TypeKind::kEnum: {
      int64_t x = ctx.ToI64(r);
      for (const target::Enumerator& e : t->enumerators()) {
        if (e.value == x) {
          return e.name;
        }
      }
      return Decimal(x);
    }
    case TypeKind::kPointer: {
      Addr p = ctx.ToPtr(r);
      if (t->target()->kind() == TypeKind::kChar) {
        return FormatCharPointer(ctx, p);
      }
      return StrPrintf("0x%llx", static_cast<unsigned long long>(p));
    }
    case TypeKind::kFunction:
      return "<function>";
    default: {
      if (t->IsUnsignedInteger()) {
        return Decimal(ctx.ToU64(r));
      }
      return Decimal(ctx.ToI64(r));
    }
  }
}

}  // namespace

std::string FormatValue(EvalContext& ctx, const Value& v) {
  return FormatRecursive(ctx, v, 0);
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
