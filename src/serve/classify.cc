#include "src/serve/classify.h"

namespace duel::serve {

QueryClass Classify(const CompiledQuery& plan) {
  if (plan.parsed.root != nullptr && MutatesTarget(*plan.parsed.root)) {
    return QueryClass::kMutating;
  }
  return QueryClass::kReadOnly;
}

}  // namespace duel::serve
