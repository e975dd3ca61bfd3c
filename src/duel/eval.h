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
#include <vector>

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

 private:
  // A filter scan's set-up and its current block run (eval_sm.cc).
  struct FilterScan {
    // The base value the set-up was made for (the index node's saved left
    // operand), and what it says: element 0's address, the element type,
    // the comparison type, the constant as a Scalar, and the bytes each
    // element-at-a-time step would charge to the read budget.
    Value base;
    Addr first = 0;
    TypeRef elem = nullptr;
    TypeRef compare_type = nullptr;
    Scalar rhs;
    uint64_t read_bytes = 0;
    // Elements [run_lo, run_lo + run_n) of that base, copied from the block
    // cache in one read.
    static constexpr size_t kRunBytes = 4096;
    int64_t run_lo = 0;
    size_t run_n = 0;
    alignas(8) uint8_t run[kRunBytes + 8];
    // Set when a bulk charge did not fit a budget: the rest of the scan is
    // the element path's, up to the trip.
    bool element_path = false;
  };

  // Heavyweight per-node state, allocated only for the ops that need it.
  struct Extra {
    // select
    std::vector<Value> cache;
    bool exhausted = false;
    // dfs / bfs
    ExpandState expand;
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
  // next element (see INTERNALS "Filter scans").
  std::optional<Value> ScanFilter(const Node& n, NodeState& st);
  // Fills `scan` for the base `base` and the constant `rhs`; false when the
  // scan does not apply to them.
  bool SetUpScan(FilterScan& scan, Op cmp, const Value& base, const Value& rhs);

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
};

// One-value enum and factory kept only because the benchmark harness
// (perfbench/src/world.cc) still calls MakeEngine(options().engine, ctx);
// delete both with the next benchmark change.
enum class EngineKind { kStateMachine };

std::unique_ptr<EvalEngine> MakeEngine(EngineKind kind, EvalContext& ctx);

}  // namespace duel

#endif  // DUEL_DUEL_EVAL_H_
