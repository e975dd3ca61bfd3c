// The evaluation engine: the paper's explicit state machine.
//
// DUEL's evaluator produces one value per call ("Each call to eval produces
// one of the values"). "To implement this version of eval, state information
// is added to each node, and a distinguished value, NOVALUE, signals the end
// of a sequence of values." EvalEngine is that scheme: per-node state/value
// slots, resumed by re-entering Eval() (eval_sm.cc). The paper notes "more
// efficient implementations of generators are possible [14]"; EXPERIMENTS.md
// E5 measured one built on language-level generators and found it slower on
// every shape, so this is the only engine.

#ifndef DUEL_DUEL_EVAL_H_
#define DUEL_DUEL_EVAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/duel/apply.h"
#include "src/duel/ast.h"
#include "src/duel/eval_util.h"
#include "src/duel/evalctx.h"
#include "src/duel/value.h"

namespace duel {

class EvalEngine {
 public:
  explicit EvalEngine(EvalContext& ctx) : ctx_(&ctx) {}

  // Prepares evaluation of `root` (which must outlive the run). `num_nodes`
  // is ParseResult::num_nodes, used to size per-node state tables.
  void Start(const Node& root, int num_nodes) {
    root_ = &root;
    states_.clear();
    states_.resize(static_cast<size_t>(num_nodes));
  }

  // Produces the next value of the root expression, or nullopt when the
  // sequence is exhausted. Throws DuelError on evaluation errors.
  std::optional<Value> Next() {
    if (root_ == nullptr) {
      return std::nullopt;
    }
    return Eval(*root_);
  }

  // Where a printed root scan writes the lines of the values it does not
  // yield: the `duel` command's result (Session::DriveCore).
  struct LineSink {
    std::vector<std::string>* lines = nullptr;
    std::vector<uint32_t>* spans = nullptr;
    // Lines are written while fewer than this many values have been; the
    // value past it is yielded, so the caller can mark the result cut short.
    size_t max_values = 0;
    uint64_t written = 0;  // values written here, not yielded
  };
  // While `sink` is set, a root `b[range] op? c` that the filter scan takes
  // writes the lines of its passes into it a block run at a time, and yields
  // only what it leaves to the element path (INTERNALS "Printed scans").
  // The caller must print each yielded value itself, by the same rule.
  void PrintInto(LineSink* sink) { sink_ = sink; }

 private:
  // A filter scan's set-up and its current block run (eval_sm.cc).
  struct FilterScan {
    // The base value the set-up was made for (the index node's saved left
    // operand), and what it says: element 0's address, the element type,
    // the comparison typed for a run of its elements, and the bytes each
    // element-at-a-time step would charge to the read budget.
    Value base;
    Addr first = 0;
    TypeRef elem = nullptr;
    RunComparison compare;
    uint64_t read_bytes = 0;
    // Elements [run_lo, run_lo + run_n) of that base, copied from the block
    // cache in one read. Allocated for overwrite: the run is written before
    // it is read.
    static constexpr size_t kRunBytes = 4096;
    int64_t run_lo = 0;
    size_t run_n = 0;
    alignas(8) uint8_t run[kRunBytes];
    // Set when a bulk charge did not fit a budget: the rest of the scan is
    // the element path's, up to the trip.
    bool element_path = false;
    // A printed scan's symbolic text before each element's index (`x[`),
    // and the line it writes each pass into.
    std::string prefix;
    std::string line;
  };

  // A compiled walk's state (eval_sm.cc "Compiled walks"), made for the
  // first root its node walks compiled and reset for each later one.
  // Allocated for overwrite, as FilterScan is.
  struct CompiledWalk {
    // One step the body's evaluation charges, in order: `node` is charged,
    // and when `child` is not -1 that child of the plan is then read.
    struct Step {
      const Node* node = nullptr;
      int child = -1;
    };
    // A node still to expand: the address of the pointer that reached it
    // (its value's lvalue), the node's address, and its symbolic.
    struct Pending {
      Addr field = 0;
      Addr node = 0;
      Sym sym;
      int child = -1;  // which plan child reached it; -1 for the root
    };
    const WalkPlan* plan = nullptr;
    std::vector<Step> steps;       // the body's, derived once from its nodes
    // The walk from the current root.
    Value root;                    // yielded as itself
    std::vector<Pending> nodes;    // stack (dfs) or queue from `head` (bfs)
    size_t head = 0;
    std::vector<Pending> kids;     // the node being expanded; reused across nodes
    KeySet seen;                   // cycle-detection keys
    uint64_t expanded = 0;
    // The last run read: bytes [run_addr, run_addr + run_n), an aligned
    // kRunBytes window of target memory (or one node across a window's end).
    static constexpr size_t kRunBytes = 1024;
    Addr run_addr = 0;
    size_t run_n = 0;
    alignas(8) uint8_t run[kRunBytes];
  };

  // Heavyweight per-node state, allocated only for the ops that need it.
  struct Extra {
    // select
    std::vector<Value> cache;
    bool exhausted = false;
    // dfs / bfs
    ExpandState expand;
    std::unique_ptr<CompiledWalk> walk;  // set while the current root walks compiled
    // call
    std::vector<Value> args;
    // filter
    std::unique_ptr<FilterScan> scan;
  };

  struct NodeState {
    int phase = 0;
    Value value;       // the paper's n->value: saved left-operand value
    int64_t lo = 0;    // range iteration
    int64_t hi = 0;
    int64_t i = 0;
    uint64_t counter = 0;
    std::unique_ptr<Extra> extra;
  };

  std::optional<Value> Eval(const Node& n);

  // The filter scan: `b[range] op? c` past its range's set-up. Returns the
  // next element that passes, leaving every node's state as the
  // element-at-a-time path would, or nullopt when that path must take the
  // next element (see INTERNALS "Filter scans"). When `n` is folded into a
  // count, it adds the passes to the count instead and yields none.
  std::optional<Value> ScanFilter(const Node& n, NodeState& st);
  // Fills `scan` for the base `base` and the constant `rhs`; false when the
  // scan does not apply to them.
  bool SetUpScan(FilterScan& scan, Op cmp, const Value& base, const Value& rhs);
  // Prints the passes among the run's elements [at, end) into `sink`, or as
  // many as it has room for, and moves the range `rs` past the last element
  // it took. False, taking none, when their bulk charge does not fit.
  bool PrintRun(const Node& n, FilterScan& scan, NodeState& rs, size_t at, size_t end,
                LineSink& sink);
  // EvalContext::StepBulk, attributing a cancel to `n` as Charge does.
  bool Bulk(const Node& n, uint64_t steps, uint64_t read_bytes);

  // The compiled walk (INTERNALS "Compiled walks"). StartWalk resets `w`
  // for the root `u` and admits it. NextOfWalk returns `n`'s next node, read
  // straight from target bytes, or nullopt when the walk from this root is
  // done; when `n` is folded into a count, it counts the nodes instead and
  // yields none.
  void StartWalk(CompiledWalk& w, const Value& u);
  std::optional<Value> NextOfWalk(const Node& n, CompiledWalk& w);
  // Expands node `e`: reads its children and queues the admitted ones.
  // False, with nothing queued, when the node's bytes are unreadable.
  bool ExpandNode(const Node& n, CompiledWalk& w, const CompiledWalk::Pending& e, bool compose);
  // The `size` bytes at `addr`, from the walk's block run (read anew when
  // they are not in it), or null when they are not all readable.
  const uint8_t* NodeBytes(CompiledWalk& w, Addr addr, size_t size);
  // `n`'s compiled walk plan when this session and plan may run it, else null.
  const WalkPlan* CompiledWalkOf(const Node& n);
  // One eval call of a walk body's node `b`, replayed without evaluating:
  // appends the steps it charges to `steps`, numbering the names in the
  // order they yield in `yielded`, and returns whether it yields. `phase`
  // stands for NodeState::phase per node id. Driving the body dry this way
  // gives CompiledWalk::steps.
  static bool ReplayBodyCall(const Node& b, std::vector<uint8_t>& phase,
                             std::vector<CompiledWalk::Step>& steps, int& yielded);

  // While alive, the count `#/` keeps in `count` takes what its operand
  // `kid` folds: a filter scan's passes and a compiled walk's nodes, which
  // are then not yielded (see INTERNALS "Folded counts").
  class FoldInto {
   public:
    FoldInto(EvalEngine& engine, const Node& kid, int64_t& count)
        : engine_(&engine), node_(engine.fold_node_), count_(engine.fold_count_) {
      engine.fold_node_ = &kid;
      engine.fold_count_ = &count;
    }
    ~FoldInto() {
      engine_->fold_node_ = node_;
      engine_->fold_count_ = count_;
    }
    FoldInto(const FoldInto&) = delete;
    FoldInto& operator=(const FoldInto&) = delete;

   private:
    EvalEngine* engine_;
    const Node* node_;
    int64_t* count_;
  };
  // The count `n`'s values fold into, or null when they are yielded.
  int64_t* FoldOf(const Node& n) const { return &n == fold_node_ ? fold_count_ : nullptr; }

  NodeState& StateOf(const Node& n) { return states_[static_cast<size_t>(n.id)]; }

  void Reset(const Node& n) { StateOf(n) = NodeState(); }

  void ResetSubtree(const Node& n) {
    Reset(n);
    for (const NodePtr& k : n.kids) {
      ResetSubtree(*k);
    }
  }

  // Drives a child to exhaustion, discarding values.
  void Drain(const Node& n) {
    while (Eval(n).has_value()) {
    }
  }

  // Drives a condition child: returns false (and resets the child) as soon
  // as a zero value appears; true if all values were non-zero.
  bool CondHolds(const Node& n) {
    while (auto u = Eval(n)) {
      if (!ctx_->Truthy(*u)) {
        ResetSubtree(n);
        return false;
      }
    }
    return true;
  }

  EvalContext* ctx_;
  const Node* root_ = nullptr;
  std::vector<NodeState> states_;
  const Node* fold_node_ = nullptr;  // FoldInto's operand and count
  int64_t* fold_count_ = nullptr;
  LineSink* sink_ = nullptr;  // PrintInto's
};

// One-value enum and factory kept only because the benchmark harness
// (perfbench/src/world.cc) still calls MakeEngine(options().engine, ctx);
// delete both with the next benchmark change.
enum class EngineKind { kStateMachine };

std::unique_ptr<EvalEngine> MakeEngine(EngineKind kind, EvalContext& ctx);

}  // namespace duel

#endif  // DUEL_DUEL_EVAL_H_
