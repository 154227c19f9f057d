#include "plan/iep.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "pattern/symmetry_breaking.h"

namespace light {
namespace {

/// A merged tail vertex: kernel neighborhood (bitmask over kernel indices)
/// plus the label every block member must match.
using MergedVertex = std::pair<uint32_t, uint32_t>;

int64_t Factorial(int k) {
  int64_t f = 1;
  for (int i = 2; i <= k; ++i) f *= i;
  return f;
}

/// Enumerates all set partitions of {0..m-1} as block-index assignments
/// (restricted growth strings) and calls fn(blocks) for each.
template <typename Fn>
void ForEachPartition(int m, Fn&& fn) {
  std::vector<int> assign(static_cast<size_t>(m), 0);
  std::vector<std::vector<int>> blocks;
  auto recurse = [&](auto&& self, int i, int num_blocks) -> void {
    if (i == m) {
      blocks.assign(static_cast<size_t>(num_blocks), {});
      for (int e = 0; e < m; ++e) {
        blocks[static_cast<size_t>(assign[static_cast<size_t>(e)])].push_back(
            e);
      }
      fn(blocks);
      return;
    }
    for (int b = 0; b <= num_blocks; ++b) {
      assign[static_cast<size_t>(i)] = b;
      self(self, i + 1, std::max(num_blocks, b + 1));
    }
  };
  recurse(recurse, 0, 0);
}

}  // namespace

IepDecomposition BuildIepDecomposition(const Pattern& pattern, int max_tail) {
  IepDecomposition out;
  const int n = pattern.NumVertices();
  LIGHT_CHECK(n >= 1 && n <= kMaxPatternVertices);
  out.automorphism_count = AutomorphismCount(pattern);
  if (n < 2) return out;

  // Largest independent tail whose complement induces a connected non-empty
  // kernel; ties toward the smallest mask for determinism. Patterns are
  // tiny, so the 2^n scan is free.
  const uint32_t full = (n == 32) ? ~uint32_t{0} : ((uint32_t{1} << n) - 1);
  uint32_t best_tail = 0;
  for (uint32_t s = 1; s <= full; ++s) {
    if (__builtin_popcount(s) > max_tail) continue;
    if (__builtin_popcount(s) <= __builtin_popcount(best_tail)) continue;
    const uint32_t kernel_mask = full & ~s;
    if (kernel_mask == 0) continue;
    bool independent = true;
    for (int u = 0; u < n && independent; ++u) {
      if ((s >> u) & 1u) independent = (pattern.NeighborMask(u) & s) == 0;
    }
    if (!independent) continue;
    if (!pattern.InducedConnected(kernel_mask)) continue;
    best_tail = s;
  }
  if (best_tail == 0) return out;

  const uint32_t kernel_mask = full & ~best_tail;
  std::vector<int> old_to_kernel(static_cast<size_t>(n), -1);
  for (int u = 0; u < n; ++u) {
    if ((kernel_mask >> u) & 1u) {
      old_to_kernel[static_cast<size_t>(u)] =
          static_cast<int>(out.kernel.size());
      out.kernel.push_back(u);
    } else {
      out.tail.push_back(u);
    }
  }
  const int k = static_cast<int>(out.kernel.size());
  const int m = static_cast<int>(out.tail.size());

  // Kernel sub-pattern with renumbered vertices and carried-over labels.
  Pattern kernel_pattern(k);
  for (int i = 0; i < k; ++i) {
    const int u = out.kernel[static_cast<size_t>(i)];
    if (pattern.Label(u) != 0) kernel_pattern.SetLabel(i, pattern.Label(u));
    for (int j = i + 1; j < k; ++j) {
      if (pattern.HasEdge(u, out.kernel[static_cast<size_t>(j)])) {
        kernel_pattern.AddEdge(i, j);
      }
    }
  }

  // Per tail vertex: kernel neighborhood as a kernel-index mask (all of a
  // tail vertex's neighbors are kernel vertices — the tail is independent
  // and the pattern connected) plus its label.
  std::vector<MergedVertex> tail_info(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    const int u = out.tail[static_cast<size_t>(t)];
    uint32_t mask = 0;
    for (int w = 0; w < n; ++w) {
      if (pattern.HasEdge(u, w)) {
        mask |= uint32_t{1} << old_to_kernel[static_cast<size_t>(w)];
      }
    }
    LIGHT_CHECK(mask != 0);
    tail_info[static_cast<size_t>(t)] = {mask, pattern.Label(u)};
  }

  // Expand the partition lattice; merge terms by their merged-vertex
  // multiset, coefficients summed. std::map keys give a deterministic term
  // order.
  std::map<std::vector<MergedVertex>, int64_t> merged_terms;
  ForEachPartition(m, [&](const std::vector<std::vector<int>>& blocks) {
    std::vector<MergedVertex> key;
    key.reserve(blocks.size());
    int64_t coefficient = 1;
    for (const std::vector<int>& block : blocks) {
      uint32_t mask = 0;
      uint32_t label = 0;
      for (int t : block) {
        mask |= tail_info[static_cast<size_t>(t)].first;
        const uint32_t member_label = tail_info[static_cast<size_t>(t)].second;
        if (member_label == 0) continue;
        if (label != 0 && label != member_label) {
          // Conflicting non-wildcard labels: the block's candidate
          // intersection is empty, the whole partition contributes zero.
          coefficient = 0;
          break;
        }
        label = member_label;
      }
      if (coefficient == 0) break;
      const int size = static_cast<int>(block.size());
      coefficient *= (size % 2 == 1 ? 1 : -1) * Factorial(size - 1);
      key.emplace_back(mask, label);
    }
    if (coefficient == 0) return;
    std::sort(key.begin(), key.end());
    merged_terms[key] += coefficient;
  });

  for (const auto& [key, coefficient] : merged_terms) {
    if (coefficient == 0) continue;
    IepTerm term;
    const int blocks = static_cast<int>(key.size());
    term.pattern = Pattern(k + blocks);
    for (const auto& edge : kernel_pattern.Edges()) {
      term.pattern.AddEdge(edge.first, edge.second);
    }
    for (int i = 0; i < k; ++i) {
      if (kernel_pattern.Label(i) != 0) {
        term.pattern.SetLabel(i, kernel_pattern.Label(i));
      }
    }
    for (int b = 0; b < blocks; ++b) {
      const auto& [mask, label] = key[static_cast<size_t>(b)];
      for (int i = 0; i < k; ++i) {
        if ((mask >> i) & 1u) term.pattern.AddEdge(k + b, i);
      }
      if (label != 0) term.pattern.SetLabel(k + b, label);
      term.counted_tail.push_back(k + b);
    }
    term.coefficient = coefficient;
    out.terms.push_back(std::move(term));
  }
  return out;
}

ExecutionPlan BuildIepTermPlan(const IepTerm& term, const Graph& graph,
                               const GraphStats& stats,
                               const PlanOptions& options) {
  const int n = term.pattern.NumVertices();
  const int m = static_cast<int>(term.counted_tail.size());
  const int k = n - m;
  LIGHT_CHECK(m >= 1 && k >= 1);

  // The kernel sub-plan counts EVERY kernel embedding: no symmetry
  // breaking, no strategy recursion, no pinned order.
  PlanOptions kernel_options = options;
  kernel_options.symmetry_breaking = false;
  kernel_options.induced = false;
  kernel_options.count_strategy = CountStrategy::kEnumerate;
  kernel_options.order_override.clear();

  Pattern kernel_pattern(k);
  for (int i = 0; i < k; ++i) {
    if (term.pattern.Label(i) != 0) {
      kernel_pattern.SetLabel(i, term.pattern.Label(i));
    }
    for (int j = i + 1; j < k; ++j) {
      if (term.pattern.HasEdge(i, j)) kernel_pattern.AddEdge(i, j);
    }
  }

  ExecutionPlan plan;
  if (k == 1) {
    // Single-vertex kernel (stars): trivial order, skip the optimizer.
    plan = BuildPlanWithOrder(kernel_pattern, {0}, kernel_options);
  } else {
    plan = BuildPlan(kernel_pattern, graph, stats, kernel_options);
  }

  // Graft the merged vertices: appended to pi, trailing COMP ops, K1
  // operands = their kernel neighborhoods. Their backward neighbors are
  // exactly their full neighborhoods (the tail sits last and is mutually
  // non-adjacent), so the operand cover is complete by construction.
  plan.pattern = term.pattern;
  plan.operands.resize(static_cast<size_t>(n));
  plan.lower_bounds.resize(static_cast<size_t>(n));
  plan.upper_bounds.resize(static_cast<size_t>(n));
  plan.non_adjacent.resize(static_cast<size_t>(n));
  for (int t : term.counted_tail) {
    plan.pi.push_back(t);
    plan.sigma.push_back({OpType::kCompute, t});
    Operands& ops = plan.operands[static_cast<size_t>(t)];
    for (int i = 0; i < k; ++i) {
      if (term.pattern.HasEdge(t, i)) ops.k1.push_back(i);
    }
  }
  plan.counted_tail = term.counted_tail;
  return plan;
}

}  // namespace light
