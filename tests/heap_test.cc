// The heap-arena scenario and the heap-doctor query patterns.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class HeapTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  HeapTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

TEST_P(HeapTest, CleanHeapWalksToTheEnd) {
  scenarios::HeapSpec spec;
  spec.chunk_count = 10;
  scenarios::BuildHeap(fx_.image(), spec);
  std::string count = fx_.One(
      "struct chunk *p; int n; p = (struct chunk *)arena; n = 0;"
      " while ((char *)p < arena_end)"
      "  (n = n + 1; p = (struct chunk *)((char *)p + p->size)) ; {n}");
  EXPECT_EQ(count, "10");
}

TEST_P(HeapTest, FreeListsAreConsistent) {
  scenarios::HeapSpec spec;
  spec.chunk_count = 20;
  scenarios::BuildHeap(fx_.image(), spec);
  // Every chunk on bin b's list has bin == b and used == 0.
  EXPECT_EQ(fx_.One("#/(b := ..4 => bins[b]-->fd->(bin !=? b))"), "0");
  EXPECT_EQ(fx_.One("#/(bins[..4]-->fd->used ==? 1)"), "0");
  // Free counts per bin sum to the total free count.
  std::string total = fx_.One("#/(bins[..4]-->fd)");
  EXPECT_GT(std::stoi(total), 0);
}

TEST_P(HeapTest, CorruptionIsLocalizable) {
  scenarios::HeapSpec spec;
  spec.chunk_count = 12;
  spec.corrupt_index = 7;
  spec.corrupt_size = 13;
  scenarios::BuildHeap(fx_.image(), spec);
  fx_.Lines(
      "struct chunk *q; int k; q = (struct chunk *)arena; k = 0;"
      " while ((char *)q < arena_end)"
      "  (if (q->size < 24 || q->size % 8 != 0)"
      "     printf(\"bad %d\\n\", k);"
      "   if (q->size < 24) q = (struct chunk *)arena_end"
      "   else (q = (struct chunk *)((char *)q + q->size); k = k + 1)) ;");
  EXPECT_EQ(fx_.image().TakeOutput(), "bad 7\n");
}

TEST_P(HeapTest, DeterministicAcrossBuilds) {
  target::TargetImage other;
  scenarios::HeapSpec spec;
  spec.chunk_count = 8;
  size_t n1 = scenarios::BuildHeap(fx_.image(), spec);
  size_t n2 = scenarios::BuildHeap(other, spec);
  EXPECT_EQ(n1, n2);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, HeapTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
