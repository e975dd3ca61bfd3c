// Per-AST-node profiler.
//
// The eval engine calls EvalContext::Step(node_id) once per generator
// resumption; when a profiler is attached, each step is attributed to the
// operator node being resumed, and the wall-clock time between consecutive
// steps is attributed to the node of the step that initiated the interval.
// The sum of per-node steps therefore equals the EvalCounters::eval_steps
// delta for the query exactly; times are an approximation of self time.
//
// The profiler is AST-agnostic: it indexes by the dense `Node::id` and
// knows nothing about the AST. The session renders the heat view by pairing
// these slots with the parsed tree.

#ifndef DUEL_SUPPORT_OBS_PROFILE_H_
#define DUEL_SUPPORT_OBS_PROFILE_H_

#include <cstdint>
#include <vector>

#include "src/support/obs/trace.h"

namespace duel::obs {

class NodeProfiler {
 public:
  struct Slot {
    uint64_t steps = 0;
    uint64_t time_ns = 0;
  };

  // Arms the profiler for a tree of `num_nodes` nodes (ids 0..num_nodes-1).
  // One extra slot absorbs steps with no node attribution (id < 0).
  void Begin(int num_nodes) {
    slots_.assign(static_cast<size_t>(num_nodes) + 1, Slot{});
    active_ = true;
    last_slot_ = -1;
    last_ns_ = NowNs();
  }

  // Flushes the trailing time interval; the profile is then stable.
  void End() {
    Flush(NowNs());
    active_ = false;
    last_slot_ = -1;
  }

  bool active() const { return active_; }

  void OnStep(int node_id) {
    if (!active_ || slots_.empty()) {
      return;
    }
    size_t slot = node_id >= 0 && node_id + 1 < static_cast<int>(slots_.size())
                      ? static_cast<size_t>(node_id)
                      : slots_.size() - 1;
    uint64_t now = NowNs();
    Flush(now);
    slots_[slot].steps++;
    last_slot_ = static_cast<int>(slot);
    last_ns_ = now;
  }

  const std::vector<Slot>& slots() const { return slots_; }

  uint64_t total_steps() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.steps;
    }
    return total;
  }

 private:
  void Flush(uint64_t now) {
    if (last_slot_ >= 0 && static_cast<size_t>(last_slot_) < slots_.size()) {
      slots_[static_cast<size_t>(last_slot_)].time_ns += now - last_ns_;
    }
  }

  std::vector<Slot> slots_;
  bool active_ = false;
  int last_slot_ = -1;
  uint64_t last_ns_ = 0;
};

}  // namespace duel::obs

#endif  // DUEL_SUPPORT_OBS_PROFILE_H_
