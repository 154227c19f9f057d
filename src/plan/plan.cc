#include "plan/plan.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "plan/cardinality.h"
#include "plan/order_optimizer.h"

namespace light {

const char* CountStrategyName(CountStrategy strategy) {
  switch (strategy) {
    case CountStrategy::kEnumerate:
      return "enumerate";
    case CountStrategy::kIep:
      return "iep";
    case CountStrategy::kAuto:
      return "auto";
  }
  return "unknown";
}

Status PlanOptions::Validate() const {
  if (std::isnan(bitmap_density) || bitmap_density < 0.0 ||
      bitmap_density > 1.0) {
    return Status::InvalidArgument("bitmap_density must be within [0, 1]");
  }
  if (!auto_kernel && !KernelAvailable(kernel)) {
    return Status::InvalidArgument(
        std::string("intersection kernel not available on this build: ") +
        KernelName(kernel));
  }
  return Status::OK();
}

PlanOptions PlanOptions::Normalized() const {
  PlanOptions out = *this;
  if (out.auto_kernel || !KernelAvailable(out.kernel)) {
    out.kernel = BestAvailableKernel();
    out.auto_kernel = false;
  }
  if (std::isnan(out.bitmap_density) || out.bitmap_density < 0.0 ||
      out.bitmap_density > 1.0) {
    out.bitmap_density = kDefaultBitmapDensity;
  }
  return out;
}

std::string PlanOptions::CacheKey() const {
  // Bitmap knobs are deliberately absent: the compiled plan is
  // bitmap-agnostic (the index is attached at execution time).
  std::string key;
  key.push_back(static_cast<char>((lazy_materialization ? 1 : 0) |
                                  (minimum_set_cover ? 2 : 0) |
                                  (symmetry_breaking ? 4 : 0) |
                                  (induced ? 8 : 0) |
                                  (auto_kernel ? 16 : 0)));
  key.push_back(static_cast<char>(kernel));
  key.push_back(static_cast<char>(count_strategy));
  return key;
}
namespace {

std::vector<int> MatPositions(const ExecutionPlan& plan) {
  std::vector<int> mat_pos(static_cast<size_t>(plan.pattern.NumVertices()),
                           -1);
  for (int i = 0; i < static_cast<int>(plan.sigma.size()); ++i) {
    const Operation& op = plan.sigma[static_cast<size_t>(i)];
    if (op.type == OpType::kMaterialize) {
      mat_pos[static_cast<size_t>(op.vertex)] = i;
    }
  }
  return mat_pos;
}

/// COMP-time windows (ExecutionPlan::comp_windows). below[w] / above[w] hold
/// the vertices whose order relative to w is enforced once MAT(w) has bound
/// w: the transitive closure of the constraints among the vertices
/// materialized up to MAT(w).
void WireCompWindows(ExecutionPlan* plan, const std::vector<int>& mat_pos) {
  const int n = plan->pattern.NumVertices();
  std::vector<uint32_t> below(static_cast<size_t>(n), 0);
  std::vector<uint32_t> above(static_cast<size_t>(n), 0);
  for (int w = 0; w < n; ++w) {
    uint32_t bound = 0;
    for (int x = 0; x < n; ++x) {
      if (mat_pos[static_cast<size_t>(x)] <= mat_pos[static_cast<size_t>(w)]) {
        bound |= 1u << x;
      }
    }
    std::vector<uint32_t> succ(static_cast<size_t>(n), 0);
    for (const auto& [a, b] : plan->partial_order) {
      if ((bound >> a & 1u) && (bound >> b & 1u)) {
        succ[static_cast<size_t>(a)] |= 1u << b;
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        if (succ[static_cast<size_t>(i)] >> k & 1u) {
          succ[static_cast<size_t>(i)] |= succ[static_cast<size_t>(k)];
        }
      }
    }
    above[static_cast<size_t>(w)] = succ[static_cast<size_t>(w)];
    for (int x = 0; x < n; ++x) {
      if (succ[static_cast<size_t>(x)] >> w & 1u) {
        below[static_cast<size_t>(w)] |= 1u << x;
      }
    }
  }
  // readers[u]: u plus every vertex whose candidate set is computed from
  // C(u) through a chain of K2 operands.
  std::vector<uint32_t> readers(static_cast<size_t>(n), 0);
  for (int u = 0; u < n; ++u) readers[static_cast<size_t>(u)] = 1u << u;
  for (bool grew = true; grew;) {
    grew = false;
    for (int w = 0; w < n; ++w) {
      for (int y : plan->operands[static_cast<size_t>(w)].k2) {
        const uint32_t before = readers[static_cast<size_t>(y)];
        readers[static_cast<size_t>(y)] |= readers[static_cast<size_t>(w)];
        grew |= readers[static_cast<size_t>(y)] != before;
      }
    }
  }
  // What runs strictly between COMP(w) and MAT(w). A cut that empties C(w)
  // stops the search at COMP(w) and skips those ops; only where no MAT runs
  // there is nothing skipped that MAT(w) would not have rejected.
  std::vector<int> comp_pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(plan->sigma.size()); ++i) {
    const Operation& op = plan->sigma[static_cast<size_t>(i)];
    if (op.type == OpType::kCompute) {
      comp_pos[static_cast<size_t>(op.vertex)] = i;
    }
  }
  uint32_t mat_between = 0;
  uint32_t comp_between = 0;
  for (int w = 0; w < n; ++w) {
    for (int i = comp_pos[static_cast<size_t>(w)] + 1;
         i < mat_pos[static_cast<size_t>(w)]; ++i) {
      const bool mat =
          plan->sigma[static_cast<size_t>(i)].type == OpType::kMaterialize;
      (mat ? mat_between : comp_between) |= 1u << w;
    }
  }
  plan->comp_windows.assign(static_cast<size_t>(n), {});
  for (int u = 0; u < n; ++u) {
    const int c = comp_pos[static_cast<size_t>(u)];
    const uint32_t read_by = readers[static_cast<size_t>(u)];
    if (c < 0 || (read_by & mat_between) != 0) continue;
    // A single-operand C(u) is an alias that MAT(u) cuts to its own window
    // anyway; cutting it at COMP pays only when it feeds a K2 reader or an
    // emptied set skips the COMPs before MAT(u). A vertex without operands
    // has no set to cut.
    const Operands& ops = plan->operands[static_cast<size_t>(u)];
    const size_t num_operands = ops.k1.size() + ops.k2.size();
    if (num_operands == 0 ||
        (num_operands == 1 && read_by == 1u << u &&
         (comp_between >> u & 1u) == 0)) {
      continue;
    }
    uint32_t lower = ~0u;
    uint32_t upper = ~0u;
    for (int w = 0; w < n; ++w) {
      if (read_by >> w & 1u) {
        lower &= below[static_cast<size_t>(w)];
        upper &= above[static_cast<size_t>(w)];
      }
    }
    CompWindow& window = plan->comp_windows[static_cast<size_t>(u)];
    for (int x = 0; x < n; ++x) {
      const int pos = mat_pos[static_cast<size_t>(x)];
      if (pos < 0 || pos >= c) continue;
      if (lower >> x & 1u) window.lower.push_back(x);
      if (upper >> x & 1u) window.upper.push_back(x);
    }
  }
}

void WireConstraints(ExecutionPlan* plan) {
  const int n = plan->pattern.NumVertices();
  plan->lower_bounds.assign(static_cast<size_t>(n), {});
  plan->upper_bounds.assign(static_cast<size_t>(n), {});
  plan->comp_windows.clear();
  if (!plan->options.symmetry_breaking) return;
  const std::vector<int> mat_pos = MatPositions(*plan);
  // A constraint phi(a) < phi(b) is checked when the later-materialized of
  // the two is bound; by then the other endpoint's mapping is available.
  for (const auto& [a, b] : plan->partial_order) {
    if (mat_pos[static_cast<size_t>(a)] < mat_pos[static_cast<size_t>(b)]) {
      plan->lower_bounds[static_cast<size_t>(b)].push_back(a);
    } else {
      plan->upper_bounds[static_cast<size_t>(a)].push_back(b);
    }
  }
  WireCompWindows(plan, mat_pos);
}

void WireInducedChecks(ExecutionPlan* plan) {
  const int n = plan->pattern.NumVertices();
  plan->non_adjacent.assign(static_cast<size_t>(n), {});
  if (!plan->options.induced) return;
  const std::vector<int> mat_pos = MatPositions(*plan);
  // Each non-edge pair is checked exactly once: when its later-materialized
  // endpoint is bound.
  for (int u = 0; u < n; ++u) {
    for (int w = 0; w < u; ++w) {
      if (plan->pattern.HasEdge(u, w)) continue;
      const int later =
          mat_pos[static_cast<size_t>(u)] > mat_pos[static_cast<size_t>(w)]
              ? u
              : w;
      const int earlier = later == u ? w : u;
      plan->non_adjacent[static_cast<size_t>(later)].push_back(earlier);
    }
  }
}

bool SameSet(std::vector<int> a, std::vector<int> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// The twin closure (ExecutionPlan::twin_closure): checks every condition
/// listed there and records the twins in chain order, then b if the plan
/// closes on one.
void WireTwinClosure(ExecutionPlan* plan) {
  plan->twin_closure.clear();
  const ExecutionOrder& sigma = plan->sigma;
  const Pattern& pattern = plan->pattern;
  if (plan->options.induced || plan->HasCountedTail() || sigma.size() < 4) {
    return;
  }
  const size_t last = sigma.size() - 1;
  if (sigma[last].type != OpType::kMaterialize) return;
  std::vector<int> twins;
  int b = -1;
  if (sigma[last - 1].type == OpType::kCompute) {
    // Closing vertex: the k MATs before COMP(b), in sigma order, must bind
    // exactly b's K1 operands, and b's pattern neighbours must be exactly
    // those.
    b = sigma[last].vertex;
    const Operands& b_ops = plan->operands[static_cast<size_t>(b)];
    const size_t k = b_ops.k1.size();
    if (sigma[last - 1].vertex != b || k < 2 || !b_ops.k2.empty() ||
        k + 3 > sigma.size()) {
      return;
    }
    for (size_t i = last - 1 - k; i < last - 1; ++i) {
      if (sigma[i].type != OpType::kMaterialize) return;
      twins.push_back(sigma[i].vertex);
    }
  } else {
    // Leaf: the trailing MATs of vertices with the last one's
    // neighbourhood.
    const uint32_t mask = pattern.NeighborMask(sigma[last].vertex);
    size_t first = last;
    while (first > 1 && sigma[first - 1].type == OpType::kMaterialize &&
           pattern.NeighborMask(sigma[first - 1].vertex) == mask) {
      --first;
    }
    for (size_t i = first; i <= last; ++i) twins.push_back(sigma[i].vertex);
    if (twins.size() < 2) return;
  }
  const size_t k = twins.size();
  uint32_t twin_mask = 0;
  for (int t : twins) twin_mask |= 1u << t;
  if (b >= 0) {
    uint32_t k1_mask = 0;
    for (int x : plan->operands[static_cast<size_t>(b)].k1) k1_mask |= 1u << x;
    if (k1_mask != twin_mask || pattern.NeighborMask(b) != twin_mask) return;
  }
  const int t1 = twins[0];
  // The candidate set a twin reads: its own operands, or those of the twin
  // it aliases through a single K2 operand.
  const auto source = [&](int t) {
    for (size_t hops = 0; hops < k; ++hops) {
      const Operands& ops = plan->operands[static_cast<size_t>(t)];
      if (!ops.k1.empty() || ops.k2.size() != 1 ||
          (twin_mask >> ops.k2[0] & 1u) == 0) {
        break;
      }
      t = ops.k2[0];
    }
    return t;
  };
  const Operands& set = plan->operands[static_cast<size_t>(source(t1))];
  // Twins with one neighbour (a star's leaves) are left to the walk:
  // counting those is the IEP counted tail's job (ROADMAP item 2).
  if ((set.k1.empty() && set.k2.empty()) ||
      std::popcount(pattern.NeighborMask(t1)) < 2) {
    return;
  }
  const std::vector<int>& lower = plan->lower_bounds[static_cast<size_t>(t1)];
  const std::vector<int>& upper = plan->upper_bounds[static_cast<size_t>(t1)];
  const auto outer = [&](const std::vector<int>& bounds) {
    std::vector<int> out;
    for (int x : bounds) {
      if ((twin_mask >> x & 1u) == 0) out.push_back(x);
    }
    return out;
  };
  for (size_t i = 0; i < k; ++i) {
    // Equal neighbourhoods also make the twins pairwise non-adjacent: the
    // pattern has no self-loops.
    const int t = twins[i];
    if (pattern.NeighborMask(t) != pattern.NeighborMask(t1)) return;
    const Operands& ops = plan->operands[static_cast<size_t>(source(t))];
    if (!SameSet(ops.k1, set.k1) || !SameSet(ops.k2, set.k2)) return;
    if (!SameSet(outer(plan->lower_bounds[static_cast<size_t>(t)]), lower) ||
        !SameSet(outer(plan->upper_bounds[static_cast<size_t>(t)]), upper)) {
      return;
    }
  }
  // Chain: t_i < t_{i+1} for every i, and no twin pair ordered the other
  // way, so the twins bound up to each MAT are totally ordered.
  std::vector<int> rank(static_cast<size_t>(pattern.NumVertices()), -1);
  for (size_t i = 0; i < k; ++i) {
    rank[static_cast<size_t>(twins[i])] = static_cast<int>(i);
  }
  uint32_t links = 0;
  for (const auto& [x, y] : plan->partial_order) {
    const int rx = rank[static_cast<size_t>(x)];
    const int ry = rank[static_cast<size_t>(y)];
    if (rx < 0 || ry < 0) continue;
    if (rx > ry) return;
    if (ry == rx + 1) links |= 1u << rx;
  }
  if (links != (1u << (k - 1)) - 1) return;
  if (b >= 0) {
    // b's window must not name a twin (b's order against the twins would
    // then depend on which twin binds which vertex).
    const CompWindow b_window =
        plan->comp_windows.empty() ? CompWindow{}
                                   : plan->comp_windows[static_cast<size_t>(b)];
    const std::vector<int>* b_bounds[] = {
        &plan->lower_bounds[static_cast<size_t>(b)],
        &plan->upper_bounds[static_cast<size_t>(b)], &b_window.lower,
        &b_window.upper};
    for (const std::vector<int>* bounds : b_bounds) {
      if (outer(*bounds).size() != bounds->size()) return;
    }
    twins.push_back(b);
  }
  plan->twin_closure = std::move(twins);
}

ExecutionPlan Assemble(const Pattern& pattern, const std::vector<int>& pi,
                       const PlanOptions& options,
                       PartialOrder partial_order) {
  ExecutionPlan plan;
  plan.pattern = pattern;
  plan.options = options;
  plan.pi = pi;
  // Lazy sigma (Algorithm 2) assumes a connected order — otherwise the first
  // operation would not be MAT(pi[1]). Disconnected orders (EH-like plans)
  // must use the eager schedule.
  LIGHT_CHECK(!options.lazy_materialization || IsConnectedOrder(pattern, pi));
  plan.sigma = options.lazy_materialization
                   ? GenerateLazyExecutionOrder(pattern, pi)
                   : GenerateEagerExecutionOrder(pattern, pi);
  plan.operands = GenerateOperands(pattern, pi, options.minimum_set_cover);
  plan.partial_order = std::move(partial_order);
  WireConstraints(&plan);
  WireInducedChecks(&plan);
  WireTwinClosure(&plan);
  return plan;
}

}  // namespace

ExecutionPlan BuildPlan(const Pattern& pattern, const Graph& graph,
                        const GraphStats& stats, const PlanOptions& options) {
  LIGHT_CHECK(pattern.IsConnected());
  const CardinalityEstimator estimator(graph, stats);
  // Restrictions first (fixed GK pivots), then the order under them.
  PartialOrder partial_order =
      options.symmetry_breaking ? ComputeSymmetryBreaking(pattern)
                                : PartialOrder{};
  const std::vector<int> pi = OptimizeEnumerationOrder(
      pattern, estimator, partial_order, options.lazy_materialization,
      options.minimum_set_cover);
  return Assemble(pattern, pi, options, std::move(partial_order));
}

ExecutionPlan BuildPlanWithOrder(const Pattern& pattern,
                                 const std::vector<int>& pi,
                                 const PlanOptions& options) {
  return Assemble(pattern, pi, options,
                  options.symmetry_breaking ? ComputeSymmetryBreaking(pattern)
                                            : PartialOrder{});
}

ExecutionPlan BuildPlanWithConstraints(const Pattern& pattern,
                                       const std::vector<int>& pi,
                                       const PlanOptions& options,
                                       PartialOrder constraints) {
  PlanOptions opts = options;
  opts.symmetry_breaking = true;  // wire the provided constraints
  return Assemble(pattern, pi, opts, std::move(constraints));
}

int ExecutionPlan::TwinClosureB() const {
  return HasTwinClosure() &&
                 pattern.HasEdge(twin_closure.front(), twin_closure.back())
             ? twin_closure.back()
             : -1;
}

bool ExecutionPlan::TwinClosureLabeled() const {
  return std::any_of(twin_closure.begin(), twin_closure.end(),
                     [&](int u) { return pattern.Label(u) != 0; });
}

bool ExecutionPlan::HasCompWindows() const {
  return std::any_of(comp_windows.begin(), comp_windows.end(),
                     [](const CompWindow& w) { return !w.empty(); });
}

std::string ExecutionPlan::ToString() const {
  std::string out = "pattern: " + pattern.ToString() + "\n";
  out += "pi: (";
  for (size_t i = 0; i < pi.size(); ++i) {
    if (i > 0) out += ", ";
    out += "u" + std::to_string(pi[i]);
  }
  out += ")\nsigma: " + ExecutionOrderToString(sigma) + "\n";
  for (size_t i = 1; i < pi.size(); ++i) {
    const int u = pi[i];
    const Operands& ops = operands[static_cast<size_t>(u)];
    out += "operands(u" + std::to_string(u) + "): K1={";
    for (size_t j = 0; j < ops.k1.size(); ++j) {
      if (j > 0) out += ",";
      out += "u" + std::to_string(ops.k1[j]);
    }
    out += "} K2={";
    for (size_t j = 0; j < ops.k2.size(); ++j) {
      if (j > 0) out += ",";
      out += "u" + std::to_string(ops.k2[j]);
    }
    out += "}\n";
  }
  if (!partial_order.empty()) {
    out += "partial order:";
    for (const auto& [a, b] : partial_order) {
      out += " u" + std::to_string(a) + "<u" + std::to_string(b);
    }
    out += "\n";
  }
  if (HasCompWindows()) {
    out += "comp windows:";
    for (size_t u = 0; u < comp_windows.size(); ++u) {
      const CompWindow& w = comp_windows[u];
      if (w.empty()) continue;
      out += " u" + std::to_string(u) + "(";
      for (size_t i = 0; i < w.lower.size(); ++i) {
        out += (i > 0 ? "," : "") + std::string(">u") +
               std::to_string(w.lower[i]);
      }
      for (size_t i = 0; i < w.upper.size(); ++i) {
        out += (i > 0 || !w.lower.empty() ? "," : "") + std::string("<u") +
               std::to_string(w.upper[i]);
      }
      out += ")";
    }
    out += "\n";
  }
  if (HasTwinClosure()) {
    const int b = TwinClosureB();
    out += "twin closure: ";
    for (size_t i = 0; i < twin_closure.size(); ++i) {
      if (twin_closure[i] == b) {
        out += " -> u" + std::to_string(b);
      } else {
        out += (i > 0 ? "<u" : "u") + std::to_string(twin_closure[i]);
      }
    }
    out += "\n";
  }
  if (!counted_tail.empty()) {
    out += "counted tail:";
    for (int t : counted_tail) out += " u" + std::to_string(t);
    out += "\n";
  }
  return out;
}

}  // namespace light
