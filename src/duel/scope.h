// Aliases and the name-resolution stack.
//
// Aliases are created by `a := e` and by DUEL declarations (`int i;`). The
// name-resolution stack holds the scopes opened by `with` (the `.`, `->`,
// `-->` operators): inside `x->(...)`, the fields of *x are visible as
// ordinary identifiers and `_` denotes the with-subject itself.

#ifndef DUEL_DUEL_SCOPE_H_
#define DUEL_DUEL_SCOPE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/duel/value.h"

namespace duel {

// An alias outlives the query that defined it, so each entry re-homes its
// value's symbolic and rvalue image into an arena of its own.
class AliasTable {
 public:
  void Set(const std::string& name, const Value& v) {
    Entry fresh;
    fresh.value = v.Rehome(fresh.store);
    aliases_[name] = std::move(fresh);
    ++version_;
  }
  const Value* Find(const std::string& name) const {
    auto it = aliases_.find(name);
    return it == aliases_.end() ? nullptr : &it->second.value;
  }
  bool Has(const std::string& name) const { return aliases_.count(name) != 0; }
  void Clear() {
    if (!aliases_.empty()) {
      ++version_;
    }
    aliases_.clear();
  }
  size_t size() const { return aliases_.size(); }
  std::vector<std::string> Names() const;

  // Bumped on every mutation. The plan cache uses this as a fast path: a
  // cached plan whose bound names could be shadowed by a new alias only
  // needs re-checking when the version moved (see Session::PlanIsValid).
  uint64_t version() const { return version_; }

 private:
  struct Entry {
    Value value;
    Arena store{256};  // allocated only for values that point at records
  };

  std::map<std::string, Entry> aliases_;
  uint64_t version_ = 0;
};

// One scope opened by `with`: the subject value whose members become
// visible. `deref` records whether member access goes through a pointer
// (the `->`/`-->` forms) or directly into a record (the `.` form).
struct WithScope {
  Value subject;
  bool deref = false;
};

class ScopeStack {
 public:
  void Push(const WithScope& s) { scopes_.push_back(s); }
  void Pop() { scopes_.pop_back(); }
  bool empty() const { return scopes_.empty(); }
  size_t size() const { return scopes_.size(); }

  // Innermost first.
  const WithScope& At(size_t i_from_top) const {
    return scopes_[scopes_.size() - 1 - i_from_top];
  }
  const WithScope* Top() const { return scopes_.empty() ? nullptr : &scopes_.back(); }

 private:
  std::vector<WithScope> scopes_;
};

// RAII guard: every suspension of a generator must leave the global
// name-resolution stack exactly as it was at entry, so scope pushes are
// always guarded.
class ScopedWith {
 public:
  ScopedWith(ScopeStack& stack, const WithScope& s) : stack_(&stack) { stack_->Push(s); }
  ~ScopedWith() {
    if (stack_ != nullptr) {
      stack_->Pop();
    }
  }
  ScopedWith(const ScopedWith&) = delete;
  ScopedWith& operator=(const ScopedWith&) = delete;

 private:
  ScopeStack* stack_;
};

}  // namespace duel

#endif  // DUEL_DUEL_SCOPE_H_
