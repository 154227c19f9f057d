#include "plan/iep.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace light {

std::vector<LeafTerm> PartitionSum(const std::vector<int>& same_set) {
  const int k = static_cast<int>(same_set.size());
  LIGHT_CHECK(k >= 1 && k <= 5);
  // Restricted growth strings: assign[i] is the block of position i, and a
  // position opens at most one new block.
  std::map<std::vector<uint32_t>, int64_t> merged;
  std::vector<int> assign(static_cast<size_t>(k), 0);
  const auto expand = [&](const auto& self, int i, int num_blocks) -> void {
    if (i == k) {
      std::vector<uint32_t> blocks(static_cast<size_t>(num_blocks), 0);
      std::vector<int> sizes(static_cast<size_t>(num_blocks), 0);
      for (int p = 0; p < k; ++p) {
        const size_t b = static_cast<size_t>(assign[static_cast<size_t>(p)]);
        blocks[b] |= 1u << same_set[static_cast<size_t>(p)];
        ++sizes[b];
      }
      int64_t mu = 1;
      for (const int size : sizes) {
        for (int f = 2; f < size; ++f) mu *= f;
        if (size % 2 == 0) mu = -mu;
      }
      std::sort(blocks.begin(), blocks.end());
      merged[blocks] += mu;
      return;
    }
    for (int b = 0; b <= num_blocks; ++b) {
      assign[static_cast<size_t>(i)] = b;
      self(self, i + 1, std::max(num_blocks, b + 1));
    }
  };
  expand(expand, 0, 0);
  std::vector<LeafTerm> terms;
  for (const auto& [blocks, coefficient] : merged) {
    if (coefficient != 0) terms.push_back({coefficient, blocks});
  }
  return terms;
}

}  // namespace light
