// Shared evaluation context: backend access, aliases, the with-stack,
// rvalue/lvalue plumbing, name resolution, type-spec resolution, and fuel.
// The evaluation engine (eval.h) runs over it; the session owns one per
// debugging session, so aliases and counters persist across queries.

#ifndef DUEL_DUEL_EVALCTX_H_
#define DUEL_DUEL_EVALCTX_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>

#include "src/dbg/access.h"
#include "src/dbg/backend.h"
#include "src/duel/ast.h"
#include "src/duel/scope.h"
#include "src/duel/value.h"
#include "src/support/counters.h"
#include "src/support/governor.h"
#include "src/support/obs/profile.h"

namespace duel {

class Annotations;  // sema.h: per-node side table produced by the analyze stage (check.h)

struct EvalOptions {
  enum class SymMode {
    kOff,  // no symbolic values computed (E3 ablation)
    kOn,   // eager symbolic values (the original's behaviour)
  };
  SymMode sym_mode = SymMode::kOn;

  // Fuel: generator resumptions per query before the evaluation is aborted.
  // Protects against runaways like `1..` driven to completion.
  uint64_t max_steps = 50'000'000;

  // Extension: detect cycles during --> expansion (the original did not).
  bool cycle_detect = true;

  // Bound on values a single --> node will expand (safety net when cycle
  // detection is off).
  uint64_t max_expand_nodes = 10'000'000;

  // Route target-memory traffic through the read-combining block cache
  // (dbg::MemoryAccess). Off = every read/write hits the backend directly,
  // byte-for-byte the original behaviour; the E4-style ablation flips this.
  bool data_cache = true;

  // Cap on chars read when displaying char* values.
  size_t max_string_display = 80;
};

// An operand read as a scalar: the type it has as an rvalue and its first
// eight bytes, zero-extended. The readouts convert like C and apply the
// same typing rules as EvalContext's To* functions.
struct Scalar {
  TypeRef type = nullptr;
  uint64_t bits = 0;

  int64_t I64() const {  // any scalar (IntegerType)
    if (type == nullptr || !type->IsScalar()) {
      ThrowNotInteger(type);
    }
    if (type->IsFloating()) {
      return static_cast<int64_t>(F64());
    }
    uint64_t v = bits;
    size_t size = type->size();
    if ((type->IsSignedInteger() || type->kind() == target::TypeKind::kEnum) && size < 8) {
      uint64_t sign_bit = 1ull << (size * 8 - 1);
      if (v & sign_bit) {
        v |= ~((sign_bit << 1) - 1);
      }
    }
    return static_cast<int64_t>(v);
  }
  uint64_t U64() const;
  double F64() const;
  Addr Ptr() const;      // pointers only

 private:
  [[noreturn]] static void ThrowNotInteger(TypeRef type);  // IntegerType's fault
};

class EvalContext {
 public:
  EvalContext(dbg::DebuggerBackend& backend, EvalOptions opts)
      : backend_(&backend), access_(backend), opts_(opts) {
    access_.set_enabled(opts_.data_cache);
  }

  dbg::DebuggerBackend& backend() { return *backend_; }

  // The cached data path. All target-byte traffic (loads, stores, validity
  // probes, allocs, calls) goes through here; symbol/type/frame lookups keep
  // using backend() directly.
  dbg::MemoryAccess& access() { return access_; }

  // Starts a fresh per-query epoch: re-syncs the cache toggle with opts(),
  // drops all cached blocks, and lets the backend reset its own client-side
  // caches. Call once at the top of every top-level evaluation.
  // Also rewinds the value arena: values of the previous query die here.
  void BeginQuery() {
    access_.set_enabled(opts_.data_cache);
    access_.BeginQuery();
    arena_.Rewind();
    query_steps_base_ = counters_.eval_steps;
  }

  // The data half of BeginQuery: re-syncs the cache toggle and drops cached
  // data blocks, leaving the backend's client-side symbol caches intact.
  // The session uses this when the symbol view was already refreshed at the
  // top of the query (before the analyze stage), so its lookups stay
  // memoized into evaluation.
  void BeginQueryData() {
    access_.set_enabled(opts_.data_cache);
    access_.BeginQueryData();
    arena_.Rewind();
    query_steps_base_ = counters_.eval_steps;
  }
  const EvalOptions& opts() const { return opts_; }
  EvalOptions& opts() { return opts_; }
  AliasTable& aliases() { return aliases_; }
  ScopeStack& scopes() { return scopes_; }
  EvalCounters& counters() { return counters_; }
  target::TypeTable& types() { return backend_->Types(); }

  // Where this query's symbolic records and aggregate rvalue images live
  // (value.h): rewound by BeginQuery/BeginQueryData.
  Arena& arena() { return arena_; }

  bool sym_on() const { return opts_.sym_mode != EvalOptions::SymMode::kOff; }
  Sym MakeSym(std::string_view text, int prec = kPrecPrimary) {
    if (!sym_on()) {
      return Sym::None();
    }
    counters_.symbolic_builds++;
    return Sym::Plain(arena_, text, prec);
  }

  // Fuel accounting. Burns one unit of evaluation fuel and, when a profiler
  // is attached, attributes the step to `node_id` (the dense Node::id; -1 =
  // unattributed). Throws DuelError(kLimit) once the steps taken since the
  // last BeginQuery/BeginQueryData exceed max_steps; counters().eval_steps
  // itself stays cumulative.
  void Step(int node_id = -1) {
    if (profiler_ != nullptr || (governor_ != nullptr && governor_->armed())) {
      StepObserved(node_id);
    } else if (++counters_.eval_steps - query_steps_base_ > opts_.max_steps) {
      ThrowStepLimit();
    }
  }

  // `steps` Steps plus `read_bytes` bytes of governed target reads, charged
  // at once, when that is indistinguishable from charging them one by one:
  // neither max_steps nor a governor budget would trip inside them. Returns
  // false, charging nothing, otherwise; the caller then charges single
  // steps. A cancel request or a passed deadline still throws, as at any
  // step. Only for a caller with no profiler attached, which attributes
  // each step to its node.
  bool StepBulk(uint64_t steps, uint64_t read_bytes) {
    assert(profiler_ == nullptr);
    ExecGovernor* reads = access_.governor();
    if (counters_.eval_steps - query_steps_base_ + steps > opts_.max_steps ||
        (governor_ != nullptr && !governor_->StepsFit(steps)) ||
        (reads != nullptr && !reads->ReadBytesFit(read_bytes))) {
      return false;
    }
    if (governor_ != nullptr) {
      governor_->ChargeSteps(steps);
    }
    if (reads != nullptr) {
      reads->ChargeReadBytes(read_bytes);
    }
    counters_.eval_steps += steps;
    return true;
  }

  // Per-node profiler hook (owned by the session; may be null).
  void set_profiler(obs::NodeProfiler* p) { profiler_ = p; }
  obs::NodeProfiler* profiler() const { return profiler_; }

  // Per-query execution governor (owned by the session / serve layer; may be
  // null). When attached and armed, every Step is a cooperative checkpoint:
  // a tripped deadline, step budget, or cancel request aborts the query with
  // DuelError(kCancel). Attach to access() separately for the byte budget.
  void set_governor(ExecGovernor* g) { governor_ = g; }
  ExecGovernor* governor() const { return governor_; }

  // The analyze stage's side table for the tree currently being executed
  // (owned by the session's CompiledQuery; set for the duration of one
  // execute stage). Null when an engine is driven without a plan — the
  // helpers in eval_util.cc then fall back to fully dynamic resolution.
  void set_annotations(const Annotations* a) { annotations_ = a; }
  const Annotations* annotations() const { return annotations_; }

  // --- value plumbing -------------------------------------------------------

  // Converts to an rvalue: loads lvalues from target memory (including
  // bit-fields), decays arrays to pointers and functions to themselves.
  Value Rvalue(const Value& v);

  // Assigns rv (converted to lv's type) into the storage of lvalue lv.
  void Store(const Value& lv, const Value& rv);

  // An operand as a Scalar (below). Loads lvalues exactly as Rvalue does
  // (same reads, same faults) without building a Value.
  Scalar Load(const Value& v);

  // Scalar readouts (load lvalue first if needed).
  int64_t ToI64(const Value& v);
  uint64_t ToU64(const Value& v);
  double ToF64(const Value& v);
  Addr ToPtr(const Value& v);
  bool Truthy(const Value& v);

  // --- names ----------------------------------------------------------------

  // Full DUEL name resolution: with-scopes (innermost first), aliases, then
  // target variables via the debugger interface; functions last. Returns
  // nullopt when the name is unknown.
  std::optional<Value> LookupName(const std::string& name);

  // The innermost with-subject (`_`); throws if no with is active.
  Value Underscore(SourceRange range);

  // Member lookup within one with-scope; nullopt if the scope has no such
  // member. Used by LookupName and by -> member access.
  std::optional<Value> LookupInScope(const WithScope& scope, const std::string& name);

  // Member `m` of `record`, reached through `subject`: the record itself (an
  // lvalue's member lvalue, or an rvalue's slice) or a pointer to it, which
  // is loaded (a null one faults). LookupInScope once it found the member;
  // the engine calls it directly for a member-bound name (sema.h).
  Value MemberOf(const Value& subject, TypeRef record, const target::Member& m,
                 std::string_view name);

  // Member access for e1.name / e1->name when e1 is a record or pointer to
  // record. Throws DuelError(kType) on non-records, MemoryFault on bad
  // pointers. `deref` selects the -> form.
  Value MemberAccess(const Value& subject, const std::string& name, bool deref,
                     SourceRange range);

  // --- types ----------------------------------------------------------------

  // Resolves a syntactic type-name against the debugger's type tables.
  TypeRef ResolveTypeSpec(const TypeSpec& spec, SourceRange range);

  // Interns a string literal in target space, once per distinct body (the
  // paper's duel_alloc_target_space path). Keyed by content, not by AST
  // node: plans cache their trees across queries, and node addresses can be
  // recycled, so identity of bytes is the only stable key.
  Addr InternString(const std::string& body);

 private:
  // Step with a profiler or an armed governor to tell.
  void StepObserved(int node_id);
  [[noreturn]] void ThrowStepLimit() const;

  // Value bytes read from target memory, with the operand's symbolic
  // attached to any fault.
  void LoadBytes(const Value& v, void* out, size_t n);

  std::map<std::string, Addr> interned_strings_;
  dbg::DebuggerBackend* backend_;
  dbg::MemoryAccess access_;
  EvalOptions opts_;
  Arena arena_;
  AliasTable aliases_;
  ScopeStack scopes_;
  EvalCounters counters_;
  uint64_t query_steps_base_ = 0;  // counters_.eval_steps when the query began
  obs::NodeProfiler* profiler_ = nullptr;
  ExecGovernor* governor_ = nullptr;
  const Annotations* annotations_ = nullptr;
};

}  // namespace duel

#endif  // DUEL_DUEL_EVALCTX_H_
