#include "plan/execution_order.h"

#include <algorithm>

#include "common/check.h"

namespace light {
namespace {

void CheckOrderIsPermutation(const Pattern& pattern,
                             const std::vector<int>& pi) {
  LIGHT_CHECK(static_cast<int>(pi.size()) == pattern.NumVertices());
  uint32_t seen = 0;
  for (int u : pi) {
    LIGHT_CHECK(u >= 0 && u < pattern.NumVertices());
    LIGHT_CHECK(((seen >> u) & 1u) == 0);
    seen |= 1u << u;
  }
}

}  // namespace

std::vector<std::vector<int>> BackwardNeighbors(const Pattern& pattern,
                                                const std::vector<int>& pi) {
  CheckOrderIsPermutation(pattern, pi);
  const int n = pattern.NumVertices();
  std::vector<std::vector<int>> backward(static_cast<size_t>(n));
  uint32_t before = 0;
  for (int i = 0; i < n; ++i) {
    const int u = pi[static_cast<size_t>(i)];
    const uint32_t mask = pattern.NeighborMask(u) & before;
    // Emit in pi order, matching Algorithm 2's "along its order in pi".
    for (int j = 0; j < i; ++j) {
      const int w = pi[static_cast<size_t>(j)];
      if ((mask >> w) & 1u) backward[static_cast<size_t>(u)].push_back(w);
    }
    before |= 1u << u;
  }
  return backward;
}

ExecutionOrder GenerateLazyExecutionOrder(const Pattern& pattern,
                                          const std::vector<int>& pi) {
  CheckOrderIsPermutation(pattern, pi);
  const int n = pattern.NumVertices();
  const auto backward = BackwardNeighbors(pattern, pi);
  ExecutionOrder sigma;
  sigma.reserve(static_cast<size_t>(2 * n - 1));
  std::vector<bool> visited(static_cast<size_t>(n), false);
  for (int i = 1; i < n; ++i) {
    const int u = pi[static_cast<size_t>(i)];
    for (int w : backward[static_cast<size_t>(u)]) {
      if (!visited[static_cast<size_t>(w)]) {
        visited[static_cast<size_t>(w)] = true;
        sigma.push_back({OpType::kMaterialize, w});
      }
    }
    sigma.push_back({OpType::kCompute, u});
  }
  for (int i = 0; i < n; ++i) {
    const int u = pi[static_cast<size_t>(i)];
    if (!visited[static_cast<size_t>(u)]) {
      sigma.push_back({OpType::kMaterialize, u});
    }
  }
  return sigma;
}

ExecutionOrder GenerateEagerExecutionOrder(const Pattern& pattern,
                                           const std::vector<int>& pi) {
  CheckOrderIsPermutation(pattern, pi);
  const int n = pattern.NumVertices();
  ExecutionOrder sigma;
  sigma.reserve(static_cast<size_t>(2 * n - 1));
  sigma.push_back({OpType::kMaterialize, pi[0]});
  for (int i = 1; i < n; ++i) {
    sigma.push_back({OpType::kCompute, pi[static_cast<size_t>(i)]});
    sigma.push_back({OpType::kMaterialize, pi[static_cast<size_t>(i)]});
  }
  return sigma;
}

bool ValidateExecutionOrder(const Pattern& pattern, const std::vector<int>& pi,
                            const ExecutionOrder& sigma) {
  const int n = pattern.NumVertices();
  if (static_cast<int>(sigma.size()) != 2 * n - 1) return false;
  if (sigma.empty() || sigma[0].type != OpType::kMaterialize ||
      sigma[0].vertex != pi[0]) {
    return false;
  }
  std::vector<int> comp_pos(static_cast<size_t>(n), -1);
  std::vector<int> mat_pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(sigma.size()); ++i) {
    const Operation& op = sigma[static_cast<size_t>(i)];
    if (op.vertex < 0 || op.vertex >= n) return false;
    auto& slot = (op.type == OpType::kCompute ? comp_pos : mat_pos);
    if (slot[static_cast<size_t>(op.vertex)] != -1) return false;  // duplicate
    slot[static_cast<size_t>(op.vertex)] = i;
  }
  if (comp_pos[static_cast<size_t>(pi[0])] != -1) return false;
  for (int i = 1; i < n; ++i) {
    if (comp_pos[static_cast<size_t>(pi[static_cast<size_t>(i)])] == -1) {
      return false;
    }
  }
  for (int u = 0; u < n; ++u) {
    if (mat_pos[static_cast<size_t>(u)] == -1) return false;
    if (comp_pos[static_cast<size_t>(u)] != -1 &&
        comp_pos[static_cast<size_t>(u)] > mat_pos[static_cast<size_t>(u)]) {
      return false;
    }
  }
  // COMP ops in pi order.
  int prev = -1;
  for (size_t i = 1; i < pi.size(); ++i) {
    const int pos = comp_pos[static_cast<size_t>(pi[i])];
    if (pos < prev) return false;
    prev = pos;
  }
  // Backward neighbors materialized before COMP.
  const auto backward = BackwardNeighbors(pattern, pi);
  for (int u = 0; u < n; ++u) {
    if (comp_pos[static_cast<size_t>(u)] == -1) continue;
    for (int w : backward[static_cast<size_t>(u)]) {
      if (mat_pos[static_cast<size_t>(w)] > comp_pos[static_cast<size_t>(u)]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> IndependentMatSuffix(const Pattern& pattern,
                                      const std::vector<int>& pi,
                                      const ExecutionOrder& sigma) {
  uint32_t placed = 0;
  uint32_t has_backward = 0;
  for (const int u : pi) {
    if ((pattern.NeighborMask(u) & placed) != 0) has_backward |= 1u << u;
    placed |= 1u << u;
  }
  std::vector<int> tail;
  uint32_t mask = 0;
  const size_t max_tail = static_cast<size_t>(kMaxLeafTail);
  for (size_t i = sigma.size(); i-- > 0 && tail.size() < max_tail;) {
    const Operation& op = sigma[i];
    if (op.type != OpType::kMaterialize ||
        (has_backward >> op.vertex & 1u) == 0 ||
        (pattern.NeighborMask(op.vertex) & mask) != 0) {
      break;
    }
    tail.insert(tail.begin(), op.vertex);
    mask |= 1u << op.vertex;
  }
  return tail;
}

std::vector<uint32_t> AnchorVertices(const Pattern& pattern,
                                     const std::vector<int>& pi,
                                     const ExecutionOrder& sigma) {
  const int n = pattern.NumVertices();
  std::vector<int> mat_pos(static_cast<size_t>(n), -1);
  std::vector<int> comp_pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(sigma.size()); ++i) {
    const Operation& op = sigma[static_cast<size_t>(i)];
    if (op.type == OpType::kMaterialize) {
      mat_pos[static_cast<size_t>(op.vertex)] = i;
    } else {
      comp_pos[static_cast<size_t>(op.vertex)] = i;
    }
  }
  std::vector<int> pi_pos(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) pi_pos[static_cast<size_t>(pi[i])] = i;

  std::vector<uint32_t> anchors(static_cast<size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    if (comp_pos[static_cast<size_t>(u)] == -1) continue;  // pi[1]
    for (int w = 0; w < n; ++w) {
      if (w == u) continue;
      if (pi_pos[static_cast<size_t>(w)] < pi_pos[static_cast<size_t>(u)] &&
          mat_pos[static_cast<size_t>(w)] < comp_pos[static_cast<size_t>(u)]) {
        anchors[static_cast<size_t>(u)] |= 1u << w;
      }
    }
  }
  return anchors;
}

std::vector<uint32_t> FreeVertices(const Pattern& pattern,
                                   const std::vector<int>& pi,
                                   const ExecutionOrder& sigma) {
  const int n = pattern.NumVertices();
  const auto anchors = AnchorVertices(pattern, pi, sigma);
  std::vector<int> pi_pos(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) pi_pos[static_cast<size_t>(pi[i])] = i;
  std::vector<uint32_t> free(static_cast<size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    for (int w = 0; w < n; ++w) {
      if (w == u) continue;
      if (pi_pos[static_cast<size_t>(w)] < pi_pos[static_cast<size_t>(u)] &&
          ((anchors[static_cast<size_t>(u)] >> w) & 1u) == 0) {
        free[static_cast<size_t>(u)] |= 1u << w;
      }
    }
  }
  // The first vertex in pi has no COMP, so its free set is meaningless.
  free[static_cast<size_t>(pi[0])] = 0;
  return free;
}

std::vector<int> MaterializationOrder(const ExecutionOrder& sigma) {
  std::vector<int> order;
  for (const Operation& op : sigma) {
    if (op.type == OpType::kMaterialize) order.push_back(op.vertex);
  }
  return order;
}

std::string ExecutionOrderToString(const ExecutionOrder& sigma) {
  std::string out;
  for (const Operation& op : sigma) {
    if (!out.empty()) out += " ";
    out += (op.type == OpType::kCompute ? "COMP(u" : "MAT(u");
    out += std::to_string(op.vertex) + ")";
  }
  return out;
}

bool IsConnectedOrder(const Pattern& pattern, const std::vector<int>& pi) {
  if (pi.empty()) return false;
  uint32_t before = 1u << pi[0];
  for (size_t i = 1; i < pi.size(); ++i) {
    if ((pattern.NeighborMask(pi[i]) & before) == 0) return false;
    before |= 1u << pi[i];
  }
  return true;
}

}  // namespace light
