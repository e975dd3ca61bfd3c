// EvalEngine::Eval: the paper's explicit state-machine evaluator.
//
// "To implement this version of eval, state information is added to each
// node, and a distinguished value, NOVALUE, signals the end of a sequence of
// values. The state field of a node is a non-negative integer that indicates
// the progress of the evaluation of that node. ... After NOVALUE is
// returned, the next call to eval re-evaluates the node."
//
// Differences from the paper's C sketch: NOVALUE is std::nullopt; per-node
// state lives in a side table indexed by node id (the AST stays immutable);
// and goto-label resumption is written as phase switches. Invariants kept on
// every return path: (1) a node that returns nullopt has reset itself and
// its descendants, and (2) the global name-resolution stack is exactly as it
// was at entry (scopes are re-pushed on re-entry — see kWith).

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <string_view>

#include "src/duel/eval.h"
#include "src/duel/eval_util.h"
#include "src/duel/output.h"
#include "src/support/strings.h"

namespace duel {

namespace {

using target::TypeKind;

// Charges one evaluation step attributed to `n`, stamping the node's source
// range onto any limit/cancel error so governor trips carry a span even
// though EvalContext::Step itself only sees the dense node id. set_range is
// first-writer-wins, so errors that already carry a more precise inner span
// pass through unchanged.
void Charge(EvalContext& ctx, const Node& n) {
  try {
    ctx.Step(n.id);
  } catch (DuelError& e) {
    e.set_range(n.range);
    throw;
  }
}

// The `{e}` display override: the value's formatted text becomes its
// symbolic. Reductions and `sizeof e` give their results the same symbolic,
// so an expression built on one still re-parses: `#/x[..10] + 1` prints as
// `10+1 = 11`, not `+1 = 11`.
Value ValueAsSym(EvalContext& ctx, Value v) {
  if (ctx.sym_on()) {
    v.set_sym(Sym::Plain(ctx.arena(), FormatValue(ctx, v)));
  }
  return v;
}

// Whether two array or pointer values are the same base: the same lvalue, or
// the same rvalue address.
bool SameBase(const Value& a, const Value& b) {
  if (a.kind() != b.kind() || a.type() != b.type()) {
    return false;
  }
  return a.is_lvalue() ? a.addr() == b.addr() : a.bits() == b.bits();
}

}  // namespace

// --- filter scans --------------------------------------------------------------
//
// `b[range] op? c` with a constant `c`, in a plan that writes no target
// memory and a session whose data cache is on. The element-at-a-time path
// sets the scan up (the index node holds its base, the range its bounds) and
// handles whatever the scan leaves to it: the range's end, a new base, an
// element outside the readable run. In between, the scan reads elements a
// block run at a time, compares them with the comparison typed once, and
// charges each element exactly the steps, applies and read bytes that path
// would: index 1, range 2, constant 1, then constant 1 more for an element
// that fails. It charges them in bulk or not at all: with a profiler
// attached, or a budget that would trip inside the bulk, the element path
// takes the elements itself. Only the symbolic of the element it yields is
// built.

bool EvalEngine::SetUpScan(FilterScan& scan, Op cmp, const Value& base, const Value& rhs) {
  EvalContext& ctx = *ctx_;
  TypeRef t = base.type();
  if (t == nullptr || rhs.is_lvalue() || rhs.type() == nullptr) {
    return false;
  }
  scan.run_n = 0;
  if (t->kind() == TypeKind::kArray && base.is_lvalue()) {
    scan.first = base.addr();  // decays without a read
    scan.read_bytes = 0;
  } else if (t->kind() == TypeKind::kPointer) {
    scan.read_bytes = 0;
    scan.first = base.bits();
    if (base.is_lvalue()) {
      // Each element's index step loads the pointer again; nothing in the
      // plan can change it.
      uint64_t bits = 0;
      scan.read_bytes = t->size();
      if (ctx.access().ReadRun(base.addr(), &bits, t->size()) != t->size()) {
        return false;
      }
      scan.first = bits;
    }
  } else {
    return false;
  }
  TypeRef elem = t->target();
  if (!elem->IsScalar() || elem->size() == 0 || elem->size() > 8) {
    return false;
  }
  Scalar c = ctx.Load(rhs);
  Typing compare = ComparisonType(ctx.types(), cmp, elem, c.type);
  if (!compare || !scan.compare.Set(cmp, elem, compare.type(), c)) {
    return false;  // the element path raises the type error, or compares
  }
  scan.base = base;
  scan.elem = elem;
  scan.read_bytes += elem->size();
  return true;
}

std::optional<Value> EvalEngine::ScanFilter(const Node& n, NodeState& st) {
  EvalContext& ctx = *ctx_;
  const Node& index = *n.kids[0];
  const Node& rhs = *n.kids[1];
  if (index.op != Op::kIndex || !ctx.access().enabled() || ctx.profiler() != nullptr) {
    return std::nullopt;
  }
  const Node& range = *index.kids[1];
  if (range.op != Op::kTo && range.op != Op::kToPrefix) {
    return std::nullopt;
  }
  const Annotations* notes = ctx.annotations();
  const NodeInfo* c = notes == nullptr ? nullptr : notes->Get(rhs.id);
  if (c == nullptr || !c->constant || notes->mutates_target) {
    return std::nullopt;
  }
  NodeState& is = StateOf(index);
  NodeState& rs = StateOf(range);
  if (is.phase != 1 || rs.phase != (range.op == Op::kTo ? 2 : 1) || rs.i > rs.hi) {
    return std::nullopt;  // not in the range's steady state
  }
  if (st.extra == nullptr) {
    st.extra = std::make_unique<Extra>();
  }
  if (st.extra->scan == nullptr) {
    st.extra->scan = std::make_unique_for_overwrite<FilterScan>();
  }
  FilterScan& scan = *st.extra->scan;
  if (scan.element_path) {
    return std::nullopt;
  }
  LineSink* print = &n == root_ ? sink_ : nullptr;
  const Op cmp = Info(n.op).base;
  if (scan.elem == nullptr || !SameBase(scan.base, is.value)) {
    scan.elem = nullptr;
    if (!SetUpScan(scan, cmp, is.value, c->value)) {
      return std::nullopt;
    }
    scan.prefix.clear();
    if (print != nullptr && ctx.sym_on()) {
      AppendIndexOpen(scan.prefix, scan.base.sym());
    }
  }
  const size_t esize = scan.elem->size();
  int64_t* fold = FoldOf(n);
  for (;;) {
    if (rs.i > rs.hi) {
      return std::nullopt;  // the range's end
    }
    if (static_cast<uint64_t>(rs.i) - static_cast<uint64_t>(scan.run_lo) >= scan.run_n) {
      uint64_t count = std::min<uint64_t>(static_cast<uint64_t>(rs.hi) - static_cast<uint64_t>(rs.i),
                                          FilterScan::kRunBytes / esize - 1) +
                       1;
      Addr addr = scan.first + static_cast<uint64_t>(rs.i) * esize;
      size_t bytes = static_cast<size_t>(count) * esize;
      scan.run_lo = rs.i;
      scan.run_n = addr + bytes < addr ? 0 : ctx.access().ReadRun(addr, scan.run, bytes) / esize;
      if (scan.run_n == 0) {
        return std::nullopt;  // unreadable: the element path reports it
      }
    }
    // The elements from rs.i to the run's end or the range's, whichever is
    // first: a run read for an earlier range of the same base may reach past
    // this one's end.
    const size_t at = static_cast<size_t>(rs.i - scan.run_lo);
    const size_t end = static_cast<size_t>(
        std::min<uint64_t>(scan.run_n, static_cast<uint64_t>(rs.hi - scan.run_lo) + 1));
    if (fold != nullptr) {
      // Counted, not yielded: a pass also charges the 2 steps of the call
      // that would resume the filter after yielding it (its own, and its
      // constant's exhaustion).
      const uint64_t taken = end - at;
      const uint64_t passes = scan.compare.CountPasses(scan.run, at, end);
      if (!Bulk(n, 5 * taken + passes, taken * scan.read_bytes)) {
        scan.element_path = true;
        return std::nullopt;
      }
      ctx.counters().applies += 2 * taken;
      rs.i += static_cast<int64_t>(taken);
      *fold += static_cast<int64_t>(passes);
      continue;
    }
    if (print != nullptr && print->spans->size() < print->max_values) {
      if (!PrintRun(n, scan, rs, at, end, *print)) {
        scan.element_path = true;
        return std::nullopt;
      }
      continue;
    }
    // Compare up to the first element that passes.
    const size_t k = scan.compare.FirstPass(scan.run, at, end);
    const bool pass = k < end;
    const uint64_t fails = k - at;
    const uint64_t taken = fails + (pass ? 1 : 0);
    if (!Bulk(n, 5 * fails + (pass ? 4 : 0), taken * scan.read_bytes)) {
      // A budget trips inside these elements: the element path takes them,
      // and every element after them, charging single steps up to the trip.
      scan.element_path = true;
      return std::nullopt;
    }
    ctx.counters().applies += 2 * taken;
    rs.i += static_cast<int64_t>(taken);
    if (pass) {
      const int64_t i = rs.i - 1;
      st.value = IndexedLvalue(ctx, scan.base, MakeIntValue(ctx, i), scan.elem,
                               scan.first + static_cast<uint64_t>(i) * esize);
      st.phase = 1;
      StateOf(rhs).phase = 1;  // yielded its value; the next call exhausts it
      return st.value;
    }
  }
}

// A printed scan (INTERNALS "Printed scans"): at the root of a `duel`
// command, a pass is written as its line instead of being yielded. It charges
// what the fold does, 5 steps per element and 1 more per pass (the call that
// would resume the filter after yielding it), plus the read bytes the drive
// loop's printing would charge: the element reloaded and, for a char*, its
// string's window. The line is the drive loop's, built with the same
// OpenValue and PushLine: the base's symbolic by ComposeIndex's rule, the
// index, and the value from the scalar printer, with no symbolic built per
// pass.

bool EvalEngine::PrintRun(const Node& n, FilterScan& scan, NodeState& rs, size_t at, size_t end,
                          LineSink& sink) {
  EvalContext& ctx = *ctx_;
  const size_t esize = scan.elem->size();
  auto bits_at = [&scan, esize](size_t k) {
    uint64_t bits = 0;
    std::memcpy(&bits, scan.run + k * esize, esize);
    return bits;
  };
  // The passes it prints: all of the run's, or the first `room`, cutting the
  // run after the last of them (the next pass is yielded, past the limit).
  const size_t room = sink.max_values - sink.spans->size();
  size_t passes = 0;
  uint64_t shown_bytes = 0;
  size_t k = at;
  while (passes < room && (k = scan.compare.FirstPass(scan.run, k, end)) < end) {
    shown_bytes += esize + ScalarReadBytes(ctx, scan.elem, bits_at(k));
    ++passes;
    ++k;
  }
  const size_t cut = passes == room ? k : end;
  const uint64_t taken = cut - at;
  if (!Bulk(n, 5 * taken + passes, taken * scan.read_bytes + shown_bytes)) {
    return false;
  }
  ctx.counters().applies += 2 * taken;
  ctx.counters().values_produced += passes;
  sink.written += passes;
  rs.i += static_cast<int64_t>(taken);

  // Room for the lines, when they have none left: as many as the run's pass
  // rate projects over the rest of the range, an eighth more, and at least
  // half as many again as they had. Doubling from empty would copy and touch
  // the lines of a long scan about twice.
  if (sink.spans->size() + passes > sink.spans->capacity()) {
    const double rest = static_cast<double>(rs.hi - rs.i + 1);
    const double rate = static_cast<double>(passes) / static_cast<double>(taken);
    const double ahead = static_cast<double>(passes) + 1.125 * rate * rest;
    const size_t want =
        sink.spans->size() + static_cast<size_t>(std::min(ahead, static_cast<double>(room)));
    const size_t grown = std::max(want, sink.spans->capacity() * 3 / 2);
    sink.spans->reserve(grown);
    sink.lines->reserve(grown);
  }
  // Each line is written in scan.line, made long enough for any of them
  // once per run: the prefix, an index and "]", " = " and the value's text.
  constexpr size_t kIndexChars = 24;
  const bool sym = ctx.sym_on();
  std::string& line = scan.line;
  line.assign(scan.prefix);
  line.resize(scan.prefix.size() + kIndexChars + ScalarRoom(ctx, scan.elem));
  char* const start = line.data();
  for (k = at; passes > 0; --passes, ++k) {
    k = scan.compare.FirstPass(scan.run, k, cut);
    char* p = start + scan.prefix.size();
    if (sym) {
      p = std::to_chars(p, p + 20, scan.run_lo + static_cast<int64_t>(k)).ptr;
      *p++ = ']';
    }
    const size_t sym_len = static_cast<size_t>(p - start);
    p = WriteScalar(ctx, scan.elem, bits_at(k), OpenValue(start, p), /*reads_charged=*/true);
    PushLine(*sink.lines, *sink.spans, std::string_view(start, static_cast<size_t>(p - start)),
             sym_len);
  }
  return true;
}

bool EvalEngine::Bulk(const Node& n, uint64_t steps, uint64_t read_bytes) {
  try {
    return ctx_->StepBulk(steps, read_bytes);
  } catch (DuelError& e) {
    e.set_range(n.range);
    throw;
  }
}

// --- compiled walks -------------------------------------------------------------
//
// `e --> body` whose body the analyze stage compiled (sema.h WalkPlan): child
// pointers of the record each node opens, named by member-bound names. In a
// plan that writes no target memory and a session whose data cache is on,
// with no profiler attached, a walk from a pointer root to that record reads
// each node's bytes from the block cache once and takes its children from
// them: no scope push, no name resolution, no values in flight. It charges
// exactly what the generic path would, in the same order: the pop, then the
// body's steps as the plan lists them, the read bytes of every pointer load
// (the node's own pointer when it is an lvalue, once for the readability
// check and once per child looked up, and each child pointer at admission),
// and each admission against max_expand_nodes. So budgets trip at the same
// step with the same error. An unreadable node ends its path silently.

const WalkPlan* EvalEngine::CompiledWalkOf(const Node& n) {
  EvalContext& ctx = *ctx_;
  const NodeInfo* info = NodeInfoFor(ctx, n);
  if (info == nullptr || info->walk == nullptr || !ctx.access().enabled() ||
      ctx.profiler() != nullptr || ctx.annotations()->mutates_target ||
      info->walk->record->size() > CompiledWalk::kRunBytes) {
    return nullptr;
  }
  return info->walk;
}

// The kName and kAlternate cases of Eval, as the body replays them: the call
// charges `b`; a name yields its value once and is exhausted by the next
// call; `,` drives its left operand dry and then its right.
bool EvalEngine::ReplayBodyCall(const Node& b, std::vector<uint8_t>& phase,
                                std::vector<CompiledWalk::Step>& steps, int& yielded) {
  uint8_t& ph = phase[static_cast<size_t>(b.id)];
  steps.push_back({&b, -1});
  if (b.op == Op::kName) {
    if (ph == 0) {
      ph = 1;
      steps.back().child = yielded++;
      return true;
    }
    ph = 0;
    return false;
  }
  if (ph == 0) {
    if (ReplayBodyCall(*b.kids[0], phase, steps, yielded)) {
      return true;
    }
    ph = 1;
  }
  if (ReplayBodyCall(*b.kids[1], phase, steps, yielded)) {
    return true;
  }
  ph = 0;
  return false;
}

void EvalEngine::StartWalk(CompiledWalk& w, const Value& u) {
  EvalContext& ctx = *ctx_;
  w.nodes.clear();
  w.head = 0;
  w.seen.Clear();
  w.expanded = 0;
  w.run_n = 0;
  // ExpandAdmit, keeping the root's pointer.
  CountExpansion(ctx, w.expanded);
  const Addr p = ctx.ToPtr(u);
  if (AdmitNode(ctx, w.seen, p)) {
    w.root = u;
    w.nodes.push_back({0, p, Sym(), -1});
  }
}

std::optional<Value> EvalEngine::NextOfWalk(const Node& n, CompiledWalk& w) {
  EvalContext& ctx = *ctx_;
  int64_t* fold = FoldOf(n);
  const bool compose = fold == nullptr && ctx.sym_on();
  while (w.head < w.nodes.size()) {
    Charge(ctx, n);
    CompiledWalk::Pending e;
    if (n.op == Op::kBfs) {
      e = w.nodes[w.head++];
      if (w.head >= 1024 && 2 * w.head >= w.nodes.size()) {
        w.nodes.erase(w.nodes.begin(), w.nodes.begin() + static_cast<ptrdiff_t>(w.head));
        w.head = 0;  // the queue's taken half, dropped at most once per its length
      }
    } else {
      e = w.nodes.back();
      w.nodes.pop_back();
    }
    if (!ExpandNode(n, w, e, compose)) {
      continue;  // invalid pointer terminates this path silently
    }
    if (fold == nullptr) {
      return e.child < 0 ? w.root : Value::LV(w.plan->children[e.child].type, e.field, e.sym);
    }
    ++*fold;
    Charge(ctx, n);  // the call that would resume the walk after yielding it
  }
  return std::nullopt;
}

bool EvalEngine::ExpandNode(const Node& n, CompiledWalk& w, const CompiledWalk::Pending& e,
                            bool compose) {
  EvalContext& ctx = *ctx_;
  const WalkPlan& plan = *w.plan;
  ExecGovernor* reads = ctx.access().governor();
  const bool root = e.child < 0;
  // What loading the node's own pointer charges: its size, if it is stored.
  const uint64_t self_read =
      root ? (w.root.is_lvalue() ? w.root.type()->size() : 0) : plan.children[e.child].type->size();
  if (reads != nullptr && self_read != 0) {
    reads->ChargeReadBytes(self_read);
  }
  const uint8_t* bytes = NodeBytes(w, e.node, plan.record->size());
  if (bytes == nullptr) {
    return false;
  }
  const Sym& sym = root ? w.root.sym() : e.sym;
  w.kids.clear();
  for (const CompiledWalk::Step& step : w.steps) {
    Charge(ctx, *step.node);
    if (step.child < 0) {
      continue;
    }
    const WalkPlan::Child& c = plan.children[step.child];
    if (reads != nullptr && self_read != 0) {
      reads->ChargeReadBytes(self_read);  // the member lookup loads the node's pointer
    }
    CountExpansion(ctx, w.expanded);
    if (reads != nullptr) {
      reads->ChargeReadBytes(c.type->size());  // admission loads the child pointer
    }
    uint64_t p = 0;
    std::memcpy(&p, bytes + c.offset, c.type->size());
    if (!AdmitNode(ctx, w.seen, p)) {
      continue;
    }
    w.kids.push_back(
        {e.node + c.offset, p,
         compose ? ComposeWithSym(ctx, sym, true, Sym::Plain(ctx.arena(), c.name)) : Sym(),
         step.child});
  }
  if (n.op == Op::kBfs) {
    w.nodes.insert(w.nodes.end(), w.kids.begin(), w.kids.end());
  } else {
    w.nodes.insert(w.nodes.end(), w.kids.rbegin(), w.kids.rend());
  }
  return true;
}

const uint8_t* EvalEngine::NodeBytes(CompiledWalk& w, Addr addr, size_t size) {
  const Addr last = addr + size - 1;
  if (last < addr) {
    return nullptr;
  }
  if (addr >= w.run_addr && last < w.run_addr + w.run_n) {
    return w.run + (addr - w.run_addr);
  }
  // Read the aligned run the node lies in: the nodes of a list or tree laid
  // out near each other are mostly in it, and the block cache fetches its
  // missing blocks in one request. A node across the run's end is read on
  // its own.
  dbg::MemoryAccess& access = ctx_->access();
  const Addr window = addr & ~Addr{CompiledWalk::kRunBytes - 1};
  const bool aligned = last - window < CompiledWalk::kRunBytes;
  w.run_addr = aligned ? window : addr;
  w.run_n = access.ReadRun(w.run_addr, w.run, aligned ? CompiledWalk::kRunBytes : size);
  if (addr - w.run_addr + size <= w.run_n) {
    return w.run + (addr - w.run_addr);
  }
  // The cache reads valid prefixes of blocks; the generic path asks the
  // backend (ValidBytes), which can also vouch for bytes past an invalid
  // start of their block.
  w.run_n = 0;
  if (!access.ValidBytes(addr, size)) {
    return nullptr;
  }
  access.backend().GetTargetBytes(addr, w.run, size);
  w.run_addr = addr;
  w.run_n = size;
  return w.run;
}

std::optional<Value> EvalEngine::Eval(const Node& n) {
  EvalContext& ctx = *ctx_;
  Charge(ctx, n);
  NodeState& st = StateOf(n);

  // A materialized literal or a constant-folded subtree: one value, then
  // NOVALUE (and the restart rule re-arms it).
  if (const NodeInfo* info = NodeInfoFor(ctx, n); info != nullptr && info->constant) {
    if (st.phase == 0) {
      st.phase = 1;
      return info->value;
    }
    st.phase = 0;
    return std::nullopt;
  }

  // Generic operator families are sequenced by one block per family (the
  // operator table's OpFamily, ast.h); only structured operators reach the op
  // switch below.
  switch (Info(n.op).family) {
    case OpFamily::kMapUnary: {
      if (auto u = Eval(*n.kids[0])) {
        return ApplyUnaryClass(ctx, n, *u);
      }
      return std::nullopt;
    }
    case OpFamily::kBinaryProduct: {
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          st.value = *u;
          st.phase = 1;
        }
        if (auto v = Eval(*n.kids[1])) {
          return ApplyBinaryClass(ctx, n, st.value, *v);
        }
        st.phase = 0;
      }
    }
    case OpFamily::kFilter: {
      Op cmp = Info(n.op).base;
      for (;;) {
        if (st.phase == 0) {
          if (auto hit = ScanFilter(n, st)) {
            return hit;
          }
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          st.value = *u;
          st.phase = 1;
        }
        while (auto v = Eval(*n.kids[1])) {
          if (ApplyComparison(ctx, cmp, st.value, *v, n.range)) {
            return st.value;  // yields its left operand
          }
        }
        st.phase = 0;
      }
    }
    case OpFamily::kStructured:
      break;
  }

  switch (n.op) {
    // --- leaves: produce one value, then NOVALUE --------------------------
    case Op::kIntConst:
    case Op::kCharConst:
    case Op::kFloatConst:
      if (st.phase == 0) {
        st.phase = 1;
        return ConstValue(ctx, n);
      }
      st.phase = 0;
      return std::nullopt;
    case Op::kStringConst:
      if (st.phase == 0) {
        st.phase = 1;
        return StringValue(ctx, n);
      }
      st.phase = 0;
      return std::nullopt;
    case Op::kName:
      if (st.phase == 0) {
        st.phase = 1;
        return NameValue(ctx, n);
      }
      st.phase = 0;
      return std::nullopt;
    case Op::kUnderscore:
      if (st.phase == 0) {
        st.phase = 1;
        Value u = ctx.Underscore(n.range);
        u.set_sym(u.sym().AsSubject());
        return u;
      }
      st.phase = 0;
      return std::nullopt;
    case Op::kSizeofType:
      if (st.phase == 0) {
        st.phase = 1;
        return SizeofTypeValue(ctx, n);
      }
      st.phase = 0;
      return std::nullopt;
    case Op::kDecl:
      ExecDecl(ctx, n);
      return std::nullopt;

    // --- one-operand passthroughs ------------------------------------------
    case Op::kBrace: {
      if (auto u = Eval(*n.kids[0])) {
        return ValueAsSym(ctx, *u);
      }
      return std::nullopt;
    }
    case Op::kDefine: {
      if (auto u = Eval(*n.kids[0])) {
        ctx.aliases().Set(n.text, *u);
        Value out = *u;
        out.set_sym(ctx.MakeSym(n.text));
        return out;
      }
      return std::nullopt;
    }
    case Op::kIndexAlias: {
      if (auto u = Eval(*n.kids[0])) {
        ctx.aliases().Set(n.text, MakeIntValue(ctx, static_cast<int64_t>(st.counter)));
        st.counter++;
        return u;
      }
      st.counter = 0;
      return std::nullopt;
    }
    case Op::kSizeofExpr: {
      if (st.phase == 0) {
        auto u = Eval(*n.kids[0]);
        if (!u.has_value()) {
          return std::nullopt;
        }
        ResetSubtree(*n.kids[0]);  // only the first value's type matters
        // No decay: sizeof of an array lvalue is the whole array size.
        st.phase = 1;
        return ValueAsSym(ctx, Value::Int(ctx.types().ULong(),
                                          static_cast<int64_t>(u->type() ? u->type()->size() : 0),
                                          Sym::None()));
      }
      st.phase = 0;
      return std::nullopt;
    }

    // --- ranges ------------------------------------------------------------
    case Op::kTo: {
      for (;;) {
        switch (st.phase) {
          case 0: {
            auto u = Eval(*n.kids[0]);
            if (!u.has_value()) {
              st.phase = 0;
              return std::nullopt;
            }
            st.lo = ctx.ToI64(*u);
            st.phase = 1;
            break;
          }
          case 1: {
            auto v = Eval(*n.kids[1]);
            if (!v.has_value()) {
              st.phase = 0;
              break;
            }
            st.hi = ctx.ToI64(*v);
            st.i = st.lo;
            st.phase = 2;
            break;
          }
          default:
            if (st.i <= st.hi) {
              Charge(ctx, n);
              return MakeIntValue(ctx, st.i++);
            }
            st.phase = 1;
            break;
        }
      }
    }
    case Op::kToPrefix: {
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          st.hi = ctx.ToI64(*u) - 1;
          st.i = 0;
          st.phase = 1;
        }
        if (st.i <= st.hi) {
          Charge(ctx, n);
          return MakeIntValue(ctx, st.i++);
        }
        st.phase = 0;
      }
    }
    case Op::kToOpen: {
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          st.i = ctx.ToI64(*u);
          st.phase = 1;
        }
        Charge(ctx, n);
        return MakeIntValue(ctx, st.i++);
      }
    }

    // --- alternation / imply / sequence --------------------------------------
    case Op::kAlternate: {
      if (st.phase == 0) {
        if (auto u = Eval(*n.kids[0])) {
          return u;
        }
        st.phase = 1;
      }
      if (auto v = Eval(*n.kids[1])) {
        return v;
      }
      st.phase = 0;
      return std::nullopt;
    }
    case Op::kImply: {
      for (;;) {
        if (st.phase == 0) {
          if (!Eval(*n.kids[0]).has_value()) {
            return std::nullopt;
          }
          st.phase = 1;
        }
        if (auto v = Eval(*n.kids[1])) {
          return v;
        }
        st.phase = 0;
      }
    }
    case Op::kSequence: {
      if (st.phase == 0) {
        Drain(*n.kids[0]);
        st.phase = 1;
      }
      if (auto v = Eval(*n.kids[1])) {
        return v;
      }
      st.phase = 0;
      return std::nullopt;
    }
    case Op::kDiscard:
      Drain(*n.kids[0]);
      return std::nullopt;

    // --- binary operators (the paper's bin0/bin1 scheme) ----------------------
    // --- logical / conditional ---------------------------------------------------
    case Op::kAndAnd: {
      for (;;) {
        if (st.phase == 0) {
          for (;;) {
            auto u = Eval(*n.kids[0]);
            if (!u.has_value()) {
              return std::nullopt;
            }
            if (ctx.Truthy(*u)) {
              break;
            }
          }
          st.phase = 1;
        }
        if (auto v = Eval(*n.kids[1])) {
          return v;
        }
        st.phase = 0;
      }
    }
    case Op::kOrOr: {
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          if (ctx.Truthy(*u)) {
            return u;  // stay in phase 0: next call pulls the next u
          }
          st.phase = 1;
        }
        if (auto v = Eval(*n.kids[1])) {
          return v;
        }
        st.phase = 0;
      }
    }
    case Op::kIf:
    case Op::kCond: {
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          if (ctx.Truthy(*u)) {
            st.phase = 1;
          } else if (n.kids.size() > 2) {
            st.phase = 2;
          } else {
            continue;  // no else: this condition value produces nothing
          }
        }
        const Node& branch = st.phase == 1 ? *n.kids[1] : *n.kids[2];
        if (auto v = Eval(branch)) {
          return v;
        }
        st.phase = 0;
      }
    }
    case Op::kWhile: {
      for (;;) {
        if (st.phase == 0) {
          if (!CondHolds(*n.kids[0])) {
            st.phase = 0;
            return std::nullopt;
          }
          st.phase = 1;
        }
        if (auto v = Eval(*n.kids[1])) {
          return v;
        }
        st.phase = 0;
      }
    }
    case Op::kFor: {
      for (;;) {
        switch (st.phase) {
          case 0:
            Drain(*n.kids[0]);  // init
            st.phase = 1;
            break;
          case 1:
            if (!CondHolds(*n.kids[1])) {
              st.phase = 0;
              return std::nullopt;
            }
            st.phase = 2;
            break;
          case 2:
            if (auto v = Eval(*n.kids[3])) {
              return v;
            }
            st.phase = 3;
            break;
          default:
            Drain(*n.kids[2]);  // step
            st.phase = 1;
            break;
        }
      }
    }

    // --- with / expansion -----------------------------------------------------
    case Op::kWith:
    case Op::kArrowWith: {
      bool arrow = n.op == Op::kArrowWith;
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            return std::nullopt;
          }
          st.value = *u;
          st.phase = 1;
        }
        // Re-push the scope saved across calls; pop before every return.
        ctx.scopes().Push(WithScope{st.value, arrow});
        std::optional<Value> v;
        try {
          v = Eval(*n.kids[1]);
        } catch (...) {
          ctx.scopes().Pop();
          throw;
        }
        ctx.scopes().Pop();
        if (v.has_value()) {
          return ComposeWithResult(ctx, st.value, arrow, *v);
        }
        st.phase = 0;
      }
    }
    case Op::kDfs:
    case Op::kBfs: {
      bool bfs = n.op == Op::kBfs;
      for (;;) {
        if (st.phase == 0) {
          auto u = Eval(*n.kids[0]);
          if (!u.has_value()) {
            st.extra.reset();
            return std::nullopt;
          }
          const WalkPlan* plan = CompiledWalkOf(n);
          if (plan != nullptr && u->type() != nullptr &&
              u->type()->kind() == TypeKind::kPointer && u->type()->target() == plan->record) {
            if (st.extra == nullptr) {
              st.extra = std::make_unique<Extra>();
            }
            if (st.extra->walk == nullptr) {
              st.extra->walk = std::make_unique_for_overwrite<CompiledWalk>();
              CompiledWalk& w = *st.extra->walk;
              w.plan = plan;
              std::vector<uint8_t> phase(states_.size(), 0);
              int yielded = 0;
              while (ReplayBodyCall(*n.kids[1], phase, w.steps, yielded)) {
              }
            }
            StartWalk(*st.extra->walk, *u);
          } else {
            st.extra = std::make_unique<Extra>();
            if (ExpandAdmit(ctx, st.extra->expand, *u)) {
              st.extra->expand.pending.push_back(*u);
            }
          }
          st.phase = 1;
        }
        if (CompiledWalk* w = st.extra->walk.get()) {
          if (auto x = NextOfWalk(n, *w)) {
            return x;
          }
          st.phase = 0;
          continue;
        }
        ExpandState& ex = st.extra->expand;
        while (!ex.pending.empty()) {
          Charge(ctx, n);
          Value x;
          if (bfs) {
            x = ex.pending.front();
            ex.pending.pop_front();
          } else {
            x = ex.pending.back();
            ex.pending.pop_back();
          }
          if (!ExpandReadable(ctx, x)) {
            continue;  // invalid pointer terminates this path silently
          }
          std::vector<Value>& children = ex.children;
          children.clear();
          ctx.scopes().Push(ExpandScope(x));
          try {
            while (auto w = Eval(*n.kids[1])) {
              // Admission reads the value, never its symbolic: compose only
              // the children that are kept.
              if (ExpandAdmit(ctx, ex, *w)) {
                children.push_back(ComposeWithResult(ctx, x, true, *w));
              }
            }
          } catch (const MemoryFault&) {
            ResetSubtree(*n.kids[1]);  // abandoned mid-drive
          } catch (...) {
            ctx.scopes().Pop();
            throw;
          }
          ctx.scopes().Pop();
          if (bfs) {
            for (const Value& c : children) {
              ex.pending.push_back(c);
            }
          } else {
            for (auto it = children.rbegin(); it != children.rend(); ++it) {
              ex.pending.push_back(*it);
            }
          }
          return x;
        }
        st.phase = 0;
      }
    }

    // --- sequence operators -----------------------------------------------------
    case Op::kSelect: {
      if (st.extra == nullptr) {
        st.extra = std::make_unique<Extra>();
      }
      Extra& ex = *st.extra;
      for (;;) {
        auto iv = Eval(*n.kids[1]);
        if (!iv.has_value()) {
          if (!ex.exhausted) {
            ResetSubtree(*n.kids[0]);  // sequence abandoned mid-drive
          }
          st.extra.reset();
          return std::nullopt;
        }
        int64_t want = ctx.ToI64(*iv);
        if (want < 0) {
          continue;
        }
        while (!ex.exhausted && ex.cache.size() <= static_cast<uint64_t>(want)) {
          if (auto v = Eval(*n.kids[0])) {
            ex.cache.push_back(*v);
          } else {
            ex.exhausted = true;
          }
        }
        if (static_cast<uint64_t>(want) < ex.cache.size()) {
          Value out = ex.cache[static_cast<size_t>(want)];
          if (ctx.sym_on()) {
            out.set_sym(out.sym().SelectedAt(ctx.arena(), static_cast<uint64_t>(want)));
          }
          return out;
        }
      }
    }
    case Op::kUntil: {
      bool match = UntilMatchMode(*n.kids[1]);
      auto u = Eval(*n.kids[0]);
      if (!u.has_value()) {
        return std::nullopt;
      }
      bool stop;
      if (match) {
        stop = UntilEquals(ctx, *u, *n.kids[1]);
      } else {
        stop = false;
        ctx.scopes().Push(ExpandScope(*u));
        try {
          while (auto p = Eval(*n.kids[1])) {
            if (ctx.Truthy(*p)) {
              stop = true;
              ResetSubtree(*n.kids[1]);
              break;
            }
          }
        } catch (...) {
          ctx.scopes().Pop();
          throw;
        }
        ctx.scopes().Pop();
      }
      if (stop) {
        ResetSubtree(*n.kids[0]);
        return std::nullopt;
      }
      return u;
    }

    // --- reductions ------------------------------------------------------------
    case Op::kCount: {
      if (st.phase == 0) {
        int64_t count = 0;
        {
          FoldInto fold(*this, *n.kids[0], count);
          while (Eval(*n.kids[0]).has_value()) {
            ++count;
          }
        }
        st.phase = 1;
        return ValueAsSym(ctx, Value::Int(ctx.types().Int(), count, Sym::None()));
      }
      st.phase = 0;
      return std::nullopt;
    }
    case Op::kSum: {
      if (st.phase == 0) {
        // The total's symbolic is its printed value, so the running sum
        // composes none.
        std::optional<Value> acc;
        while (auto u = Eval(*n.kids[0])) {
          if (!acc.has_value()) {
            acc = ctx.Rvalue(*u);
          } else {
            acc = ApplyArith(ctx, Op::kAdd, *acc, *u, n.range);
          }
        }
        st.phase = 1;
        return ValueAsSym(ctx, acc.has_value() ? *acc
                                               : Value::Int(ctx.types().Int(), 0, Sym::None()));
      }
      st.phase = 0;
      return std::nullopt;
    }
    case Op::kAll:
    case Op::kAny: {
      if (st.phase == 0) {
        bool is_all = n.op == Op::kAll;
        int64_t result = is_all ? 1 : 0;
        while (auto u = Eval(*n.kids[0])) {
          bool t = ctx.Truthy(*u);
          if (is_all && !t) {
            result = 0;
            ResetSubtree(*n.kids[0]);
            break;
          }
          if (!is_all && t) {
            result = 1;
            ResetSubtree(*n.kids[0]);
            break;
          }
        }
        st.phase = 1;
        return ValueAsSym(ctx, Value::Int(ctx.types().Int(), result, Sym::None()));
      }
      st.phase = 0;
      return std::nullopt;
    }
    case Op::kSeqEq: {
      if (st.phase == 0) {
        int64_t equal = 1;
        for (;;) {
          auto u = Eval(*n.kids[0]);
          auto v = Eval(*n.kids[1]);
          if (!u.has_value() || !v.has_value()) {
            if (u.has_value() != v.has_value()) {
              equal = 0;
              ResetSubtree(u.has_value() ? *n.kids[0] : *n.kids[1]);
            }
            break;
          }
          if (!ApplyComparison(ctx, Op::kEq, *u, *v, n.range)) {
            equal = 0;
            ResetSubtree(*n.kids[0]);
            ResetSubtree(*n.kids[1]);
            break;
          }
        }
        st.phase = 1;
        return ValueAsSym(ctx, Value::Int(ctx.types().Int(), equal, Sym::None()));
      }
      st.phase = 0;
      return std::nullopt;
    }

    // --- calls ---------------------------------------------------------------
    case Op::kCall: {
      const Node& callee = *n.kids[0];
      if (callee.op != Op::kName) {
        throw DuelError(ErrorKind::kType, "only direct calls of named functions are supported",
                        n.range);
      }
      if (callee.text == "frames" && n.kids.size() == 1 &&
          !ctx.backend().GetTargetFunction("frames").has_value()) {
        size_t frames = ctx.backend().NumFrames();
        if (st.counter < frames) {
          size_t i = st.counter++;
          return Value::FrameHandle(i, ctx.MakeSym(StrPrintf("frame(%zu)", i), kPrecPostfix));
        }
        st.counter = 0;
        return std::nullopt;
      }
      size_t nargs = n.kids.size() - 1;
      if (st.phase == 0) {
        st.extra = std::make_unique<Extra>();
        st.extra->args.resize(nargs);
        for (size_t i = 0; i < nargs; ++i) {
          auto u = Eval(*n.kids[i + 1]);
          if (!u.has_value()) {
            for (size_t j = 0; j < nargs; ++j) {
              ResetSubtree(*n.kids[j + 1]);
            }
            st.extra.reset();
            return std::nullopt;  // some argument has an empty sequence
          }
          st.extra->args[i] = *u;
        }
        st.phase = 1;
        return CallTarget(ctx, callee.text, st.extra->args, n.range);
      }
      // Advance the rightmost argument that still has values (odometer).
      for (size_t i = nargs; i-- > 0;) {
        if (auto u = Eval(*n.kids[i + 1])) {
          st.extra->args[i] = *u;
          bool ok = true;
          for (size_t j = i + 1; j < nargs; ++j) {
            auto v = Eval(*n.kids[j + 1]);
            if (!v.has_value()) {
              ok = false;  // a restarted generator came up empty
              break;
            }
            st.extra->args[j] = *v;
          }
          if (!ok) {
            break;
          }
          return CallTarget(ctx, callee.text, st.extra->args, n.range);
        }
      }
      st.phase = 0;
      st.extra.reset();
      return std::nullopt;
    }

    default:
      break;  // generic families were handled by the OpFamily dispatch
  }
  throw DuelError(ErrorKind::kInternal, StrPrintf("unhandled op %s", OpName(n.op)));
}

std::unique_ptr<EvalEngine> MakeEngine(EngineKind /*kind*/, EvalContext& ctx) {
  return std::make_unique<EvalEngine>(ctx);
}

}  // namespace duel
