#include "src/target/image.h"

#include <cstdlib>

#include "src/support/strings.h"

namespace duel::target {

void SymbolTable::PushFrame(const std::string& function) {
  Frame f;
  f.function = function;
  frames_.insert(frames_.begin(), std::move(f));  // innermost first
  ++version_;
}

void SymbolTable::AddFrameLocal(Variable v) {
  if (frames_.empty()) {
    throw DuelError(ErrorKind::kInternal, "frame local added with no active frame");
  }
  frames_.front().locals.push_back(std::move(v));
  ++version_;
}

const Variable* SymbolTable::FindVariable(const std::string& name) const {
  if (!frames_.empty()) {
    for (const Variable& v : frames_.front().locals) {
      if (v.name == name) {
        return &v;
      }
    }
  }
  for (const Variable& v : globals_) {
    if (v.name == name) {
      return &v;
    }
  }
  return nullptr;
}

const FunctionSym* SymbolTable::FindFunction(const std::string& name) const {
  for (const FunctionSym& f : functions_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

Addr TargetImage::NewCString(const std::string& s) {
  Addr a = memory_.Allocate(s.size() + 1, 1);
  memory_.Write(a, s.data(), s.size());
  uint8_t nul = 0;
  memory_.Write(a + s.size(), &nul, 1);
  return a;
}

void TargetImage::RegisterFunction(const std::string& name, TypeRef fn_type, NativeFn fn) {
  natives_[name] = std::move(fn);
  FunctionSym sym;
  sym.name = name;
  sym.type = fn_type;
  sym.addr = 0xf0000000 + natives_.size() * 0x10;  // fake code address
  symbols_.AddFunction(std::move(sym));
}

RawDatum TargetImage::Call(const std::string& name, std::span<const RawDatum> args) {
  auto it = natives_.find(name);
  if (it == natives_.end()) {
    throw DuelError(ErrorKind::kTarget, "call to unknown target function '" + name + "'");
  }
  return it->second(*this, args);
}

namespace {

constexpr size_t kMaxStringRead = 1 << 20;

std::string ReadString(const TargetImage& image, Addr addr) {
  std::string s;
  bool trunc = false;
  if (!image.memory().ReadCString(addr, kMaxStringRead, &s, &trunc)) {
    throw MemoryFault(addr, 1, StrPrintf("bad string pointer 0x%llx passed to target function",
                                         static_cast<unsigned long long>(addr)));
  }
  return s;
}

// A restricted printf interpreter: reads the format string from target
// memory and consumes one datum per conversion. Flags/width/precision are
// forwarded to the host printf with a normalized length modifier.
std::string FormatPrintf(TargetImage& image, std::span<const RawDatum> args) {
  if (args.empty()) {
    throw DuelError(ErrorKind::kTarget, "printf requires a format string");
  }
  std::string fmt = ReadString(image, static_cast<Addr>(DatumToU64(args[0])));
  std::string out;
  size_t next_arg = 1;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i]);
      continue;
    }
    size_t start = i++;
    // flags, width, precision
    while (i < fmt.size() && (std::strchr("-+ #0", fmt[i]) != nullptr)) i++;
    while (i < fmt.size() && isdigit(static_cast<unsigned char>(fmt[i]))) i++;
    if (i < fmt.size() && fmt[i] == '.') {
      i++;
      while (i < fmt.size() && isdigit(static_cast<unsigned char>(fmt[i]))) i++;
    }
    // length modifiers are parsed and dropped; we renormalize below
    while (i < fmt.size() && (fmt[i] == 'l' || fmt[i] == 'h' || fmt[i] == 'z')) i++;
    if (i >= fmt.size()) {
      throw DuelError(ErrorKind::kTarget, "printf: dangling conversion in format");
    }
    char conv = fmt[i];
    if (conv == '%') {
      out.push_back('%');
      continue;
    }
    // Spec without the length modifier, e.g. "%-8.2".
    std::string spec = fmt.substr(start, i - start);
    spec.erase(std::remove_if(spec.begin(), spec.end(),
                              [](char c) { return c == 'l' || c == 'h' || c == 'z'; }),
               spec.end());
    if (next_arg >= args.size()) {
      throw DuelError(ErrorKind::kTarget, "printf: not enough arguments for format");
    }
    const RawDatum& d = args[next_arg++];
    switch (conv) {
      case 'd':
      case 'i':
        out += StrPrintf((spec + "lld").c_str(), static_cast<long long>(DatumToI64(d)));
        break;
      case 'u':
      case 'o':
      case 'x':
      case 'X':
        out += StrPrintf((spec + "ll" + conv).c_str(),
                         static_cast<unsigned long long>(DatumToU64(d)));
        break;
      case 'c':
        out += StrPrintf((spec + "c").c_str(), static_cast<int>(DatumToI64(d)));
        break;
      case 'p':
        out += StrPrintf((spec + "llx").c_str(),
                         static_cast<unsigned long long>(DatumToU64(d)));
        break;
      case 'f':
      case 'e':
      case 'g':
      case 'F':
      case 'E':
      case 'G':
        out += StrPrintf((spec + conv).c_str(), DatumToF64(d));
        break;
      case 's':
        out += StrPrintf((spec + "s").c_str(),
                         ReadString(image, static_cast<Addr>(DatumToU64(d))).c_str());
        break;
      default:
        throw DuelError(ErrorKind::kTarget,
                        StrPrintf("printf: unsupported conversion '%%%c'", conv));
    }
  }
  return out;
}

}  // namespace

void InstallStandardFunctions(TargetImage& image) {
  TypeTable& tt = image.types();
  TypeRef charp = tt.PointerTo(tt.Char());

  image.RegisterFunction(
      "printf", tt.Function(tt.Int(), {{"fmt", charp}}, true),
      [](TargetImage& img, std::span<const RawDatum> args) {
        std::string s = FormatPrintf(img, args);
        img.AppendOutput(s);
        return MakeScalarDatum<int32_t>(img.types().Int(),
                                        static_cast<int32_t>(s.size()));
      });

  image.RegisterFunction(
      "strlen", tt.Function(tt.ULong(), {{"s", charp}}, false),
      [](TargetImage& img, std::span<const RawDatum> args) {
        if (args.empty()) {
          throw DuelError(ErrorKind::kTarget, "strlen requires an argument");
        }
        std::string s = ReadString(img, static_cast<Addr>(DatumToU64(args[0])));
        return MakeScalarDatum<uint64_t>(img.types().ULong(), s.size());
      });

  image.RegisterFunction(
      "abs", tt.Function(tt.Int(), {{"x", tt.Int()}}, false),
      [](TargetImage& img, std::span<const RawDatum> args) {
        if (args.empty()) {
          throw DuelError(ErrorKind::kTarget, "abs requires an argument");
        }
        int64_t v = DatumToI64(args[0]);
        return MakeScalarDatum<int32_t>(img.types().Int(),
                                        static_cast<int32_t>(v < 0 ? -v : v));
      });
}

}  // namespace duel::target
