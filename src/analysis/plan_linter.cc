#include "analysis/plan_linter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "graph/bitmap_index.h"
#include "obs/json.h"
#include "pattern/automorphism.h"
#include "plan/cardinality.h"
#include "plan/execution_order.h"
#include "plan/set_cover.h"

namespace light::analysis {
namespace {

std::string VertexName(int u) { return "u" + std::to_string(u); }

std::string PairName(std::pair<int, int> e) {
  return "(" + VertexName(e.first) + ", " + VertexName(e.second) + ")";
}

/// Positions of each vertex's COMP/MAT operation in sigma (-1 = absent).
struct SigmaIndex {
  std::vector<int> comp_pos;
  std::vector<int> mat_pos;

  SigmaIndex(int n, const ExecutionOrder& sigma)
      : comp_pos(static_cast<size_t>(n), -1),
        mat_pos(static_cast<size_t>(n), -1) {
    for (int i = 0; i < static_cast<int>(sigma.size()); ++i) {
      const Operation& op = sigma[static_cast<size_t>(i)];
      if (op.vertex < 0 || op.vertex >= n) continue;
      auto& slot = op.type == OpType::kCompute ? comp_pos : mat_pos;
      // Keep the first occurrence; duplicates are sigma-structure errors.
      if (slot[static_cast<size_t>(op.vertex)] == -1) {
        slot[static_cast<size_t>(op.vertex)] = i;
      }
    }
  }
};

bool IsPermutation(int n, const std::vector<int>& pi) {
  if (static_cast<int>(pi.size()) != n) return false;
  uint32_t seen = 0;
  for (int u : pi) {
    if (u < 0 || u >= n || ((seen >> u) & 1u) != 0) return false;
    seen |= 1u << u;
  }
  return true;
}

/// Pattern-side backward-neighbor masks under pi (Definition II.3), computed
/// without BackwardNeighbors() so a malformed plan cannot trip its CHECKs.
std::vector<uint32_t> BackwardMasks(const Pattern& pattern,
                                    const std::vector<int>& pi) {
  std::vector<uint32_t> masks(static_cast<size_t>(pattern.NumVertices()), 0);
  uint32_t before = 0;
  for (int u : pi) {
    masks[static_cast<size_t>(u)] = pattern.NeighborMask(u) & before;
    before |= 1u << u;
  }
  return masks;
}

// --- Structural rules ------------------------------------------------------

/// Returns false when the plan is too malformed for the remaining rules to
/// index into it safely.
bool CheckShape(const Pattern& pattern, const ExecutionPlan& plan,
                LintReport* report) {
  const size_t n = static_cast<size_t>(pattern.NumVertices());
  bool ok = true;
  auto require_size = [&](const char* field, size_t actual) {
    if (actual != n) {
      report->Add(LintSeverity::kError, "plan-shape",
                  std::string(field) + " has " + std::to_string(actual) +
                      " entries for a " + std::to_string(n) +
                      "-vertex pattern");
      ok = false;
    }
  };
  require_size("pi", plan.pi.size());
  require_size("operands", plan.operands.size());
  require_size("lower_bounds", plan.lower_bounds.size());
  require_size("upper_bounds", plan.upper_bounds.size());
  require_size("non_adjacent", plan.non_adjacent.size());
  if (!plan.comp_windows.empty()) {
    require_size("comp_windows", plan.comp_windows.size());
  }
  return ok;
}

void CheckOrder(const Pattern& pattern, const ExecutionPlan& plan,
                LintReport* report) {
  if (!IsConnectedOrder(pattern, plan.pi)) {
    // Eager plans tolerate disconnected orders (EH-like: an empty backward
    // set makes the candidate set all of V(G)); the lazy schedule's
    // Algorithm-2 assumptions do not hold, so there it is a hard error.
    const bool lazy = plan.options.lazy_materialization;
    report->Add(lazy ? LintSeverity::kError : LintSeverity::kWarning,
                "order-connectivity",
                std::string("enumeration order is disconnected") +
                    (lazy ? " (lazy materialization requires a connected "
                            "order)"
                          : " (legal for eager plans, but candidate sets "
                            "degrade to V(G))"));
  }
}

void CheckSigma(const Pattern& pattern, const ExecutionPlan& plan,
                LintReport* report) {
  if (!ValidateExecutionOrder(pattern, plan.pi, plan.sigma)) {
    report->Add(LintSeverity::kError, "sigma-structure",
                "execution order violates the Section-IV invariants "
                "(one MAT per vertex, COMP per non-first vertex in pi "
                "order, backward neighbors materialized before COMP, "
                "COMP before MAT): " +
                    ExecutionOrderToString(plan.sigma));
  }
}

// --- Symmetry-breaking rules ----------------------------------------------

/// Range/antisymmetry/acyclicity of the raw constraint list. Returns true
/// when the constraints are well-formed enough for the orbit check.
bool CheckPartialOrderStructure(const Pattern& pattern,
                                const ExecutionPlan& plan,
                                LintReport* report) {
  const int n = pattern.NumVertices();
  bool ok = true;
  for (const auto& [a, b] : plan.partial_order) {
    if (a < 0 || a >= n || b < 0 || b >= n || a == b) {
      report->Add(LintSeverity::kError, "sb-constraint-range",
                  "constraint " + PairName({a, b}) +
                      " has an out-of-range or self-referential endpoint",
                  -1, {a, b});
      ok = false;
    }
  }
  if (!ok) return false;

  for (const auto& [a, b] : plan.partial_order) {
    if (a < b &&
        std::find(plan.partial_order.begin(), plan.partial_order.end(),
                  std::make_pair(b, a)) != plan.partial_order.end()) {
      report->Add(LintSeverity::kError, "sb-antisymmetry",
                  "constraints " + PairName({a, b}) + " and " +
                      PairName({b, a}) + " are jointly unsatisfiable",
                  -1, {a, b});
      ok = false;
    }
  }

  // Kahn's algorithm over the constraint digraph; leftover vertices lie on
  // a cycle. (A 2-cycle also violates antisymmetry; longer cycles are only
  // caught here.)
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  for (const auto& [a, b] : plan.partial_order) {
    (void)a;
    ++indegree[static_cast<size_t>(b)];
  }
  std::vector<int> queue;
  for (int u = 0; u < n; ++u) {
    if (indegree[static_cast<size_t>(u)] == 0) queue.push_back(u);
  }
  int removed = 0;
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    ++removed;
    for (const auto& [a, b] : plan.partial_order) {
      if (a == u && --indegree[static_cast<size_t>(b)] == 0) {
        queue.push_back(b);
      }
    }
  }
  if (removed != n) {
    std::string cycle;
    for (int u = 0; u < n; ++u) {
      if (indegree[static_cast<size_t>(u)] > 0) {
        if (!cycle.empty()) cycle += ", ";
        cycle += VertexName(u);
      }
    }
    report->Add(LintSeverity::kError, "sb-cycle",
                "partial order has a cycle through {" + cycle + "}");
    ok = false;
  }
  return ok;
}

/// Every constraint must be enforced at the later-materialized endpoint
/// (where both mappings are available), exactly once, and nothing else may
/// be wired.
void CheckConstraintWiring(const Pattern& pattern, const ExecutionPlan& plan,
                           const SigmaIndex& sigma, LintReport* report) {
  const int n = pattern.NumVertices();
  std::vector<std::vector<int>> expected_lower(static_cast<size_t>(n));
  std::vector<std::vector<int>> expected_upper(static_cast<size_t>(n));
  for (const auto& [a, b] : plan.partial_order) {
    if (a < 0 || a >= n || b < 0 || b >= n) continue;  // sb-constraint-range
    if (sigma.mat_pos[static_cast<size_t>(a)] <
        sigma.mat_pos[static_cast<size_t>(b)]) {
      expected_lower[static_cast<size_t>(b)].push_back(a);
    } else {
      expected_upper[static_cast<size_t>(a)].push_back(b);
    }
  }
  auto mismatch = [&](const char* kind, int u, std::vector<int> expected,
                      std::vector<int> actual) {
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected == actual) return;
    report->Add(LintSeverity::kError, "sb-wiring",
                std::string(kind) + " of " + VertexName(u) +
                    " do not match the partial order at the "
                    "later-materialized endpoint (every constraint must be "
                    "checked exactly once, where both endpoints are bound)",
                u);
  };
  for (int u = 0; u < n; ++u) {
    mismatch("lower bounds", u, expected_lower[static_cast<size_t>(u)],
             plan.lower_bounds[static_cast<size_t>(u)]);
    mismatch("upper bounds", u, expected_upper[static_cast<size_t>(u)],
             plan.upper_bounds[static_cast<size_t>(u)]);
  }
}

/// True when phi(from) < phi(to) follows from the constraints among the
/// vertices materialized up to MAT(at): a constraint path from `from` to
/// `to` that stays inside that set.
bool EnforcedAtMat(const PartialOrder& order, const SigmaIndex& sigma, int at,
                   int from, int to) {
  const int limit = sigma.mat_pos[static_cast<size_t>(at)];
  const auto bound = [&](int v) {
    const int pos = sigma.mat_pos[static_cast<size_t>(v)];
    return pos >= 0 && pos <= limit;
  };
  if (!bound(from) || !bound(to)) return false;
  uint32_t reached = 1u << from;
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : order) {
      if ((reached >> a & 1u) && !(reached >> b & 1u) && bound(b)) {
        reached |= 1u << b;
        grew = true;
      }
    }
  }
  return (reached >> to & 1u) != 0;
}

/// COMP-time windows cut C(u) before its intersections run, so each window
/// vertex must be bound by then, and the order it imposes must already be
/// enforced at MAT(w) for u and for every w that reads C(u) through K2
/// operands; otherwise the cut drops candidates a MAT would have accepted.
void CheckCompWindows(const Pattern& pattern, const ExecutionPlan& plan,
                      const SigmaIndex& sigma, LintReport* report) {
  if (!plan.HasCompWindows()) return;
  const int n = pattern.NumVertices();
  std::vector<uint32_t> readers(static_cast<size_t>(n), 0);
  for (int u = 0; u < n; ++u) readers[static_cast<size_t>(u)] = 1u << u;
  for (bool grew = true; grew;) {
    grew = false;
    for (int w = 0; w < n; ++w) {
      for (const int y : plan.operands[static_cast<size_t>(w)].k2) {
        if (y < 0 || y >= n) continue;  // cover-* rules report it
        const uint32_t before = readers[static_cast<size_t>(y)];
        readers[static_cast<size_t>(y)] |= readers[static_cast<size_t>(w)];
        grew |= readers[static_cast<size_t>(y)] != before;
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    const CompWindow& window = plan.comp_windows[static_cast<size_t>(u)];
    const auto check = [&](int x, bool lower) {
      const std::string what = std::string(lower ? "lower" : "upper") +
                               " COMP window bound " + VertexName(x) +
                               " of " + VertexName(u);
      if (x < 0 || x >= n || x == u) {
        report->Add(LintSeverity::kError, "sb-comp-window",
                    what + " is out of range", u);
        return;
      }
      const int comp = sigma.comp_pos[static_cast<size_t>(u)];
      const int mat = sigma.mat_pos[static_cast<size_t>(x)];
      if (comp < 0 || mat < 0 || mat > comp) {
        report->Add(LintSeverity::kError, "sb-comp-window",
                    what + " is not materialized before COMP(" +
                        VertexName(u) + ")",
                    u, {x, u});
        return;
      }
      for (int w = 0; w < n; ++w) {
        if (!(readers[static_cast<size_t>(u)] >> w & 1u)) continue;
        const bool holds =
            lower ? EnforcedAtMat(plan.partial_order, sigma, w, x, w)
                  : EnforcedAtMat(plan.partial_order, sigma, w, w, x);
        if (!holds) {
          report->Add(LintSeverity::kError, "sb-comp-window",
                      what + ": phi(" + VertexName(lower ? x : w) +
                          ") < phi(" + VertexName(lower ? w : x) +
                          ") is not enforced at MAT(" + VertexName(w) +
                          ")" +
                          (w == u ? "" : ", which reads C(" + VertexName(u) +
                                             ") through K2") +
                          "; the cut would drop valid candidates",
                      u, {x, w});
        }
      }
    };
    for (const int x : window.lower) check(x, true);
    for (const int y : window.upper) check(y, false);
  }
}

constexpr uint64_t Factorial(int n) {
  uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<uint64_t>(i);
  return f;
}

std::string RankingToString(const std::vector<int>& rank) {
  // Print as the vertex sequence sorted by mapped data-vertex ID.
  std::vector<int> by_rank(rank.size());
  for (size_t u = 0; u < rank.size(); ++u) {
    by_rank[static_cast<size_t>(rank[u])] = static_cast<int>(u);
  }
  std::string s = "phi(";
  for (size_t i = 0; i < by_rank.size(); ++i) {
    if (i > 0) s += ") < phi(";
    s += VertexName(by_rank[i]);
  }
  return s + ")";
}

/// The Grochow–Kellis consistency check, exhaustive and exact: for every
/// orbit of the n! strict total orders of the pattern vertices under
/// Aut(P), exactly one order may satisfy the constraints. Injective
/// embeddings induce such an order on data-vertex IDs, and the automorphic
/// images of one subgraph instance induce exactly the orbit — so a
/// 0-satisfied orbit is a dropped instance and a >=2-satisfied orbit is a
/// double-reported one.
void CheckAutomorphismConsistency(const Pattern& pattern,
                                  const ExecutionPlan& plan,
                                  const LintOptions& options,
                                  LintReport* report) {
  const int n = pattern.NumVertices();
  if (n < 2) return;
  const std::vector<Permutation> autos = FindAutomorphisms(pattern);
  if (autos.size() == 1 && plan.partial_order.empty()) return;
  // 4-bit ranking encoding caps n at 16; n! alone is far past any sane
  // budget before that.
  const uint64_t work =
      n > 16 ? std::numeric_limits<uint64_t>::max()
             : Factorial(n) * static_cast<uint64_t>(autos.size());
  if (work > options.max_orbit_work) {
    report->Add(LintSeverity::kInfo, "sb-exhaustive-skipped",
                "automorphism consistency check skipped: " +
                    std::to_string(n) + "! * |Aut| = " +
                    (n > 16 ? std::string("overflow")
                            : std::to_string(work)) +
                    " orderings exceed max_orbit_work");
    return;
  }

  auto encode = [n](const std::vector<int>& rank,
                    const Permutation& g) {
    uint64_t key = 0;
    for (int u = 0; u < n; ++u) {
      key |= static_cast<uint64_t>(rank[static_cast<size_t>(g[u])])
             << (4 * u);
    }
    return key;
  };
  auto satisfied = [&plan](const std::vector<int>& rank) {
    for (const auto& [a, b] : plan.partial_order) {
      if (rank[static_cast<size_t>(a)] >= rank[static_cast<size_t>(b)]) {
        return false;
      }
    }
    return true;
  };

  struct OrbitStats {
    int satisfied_count = 0;
    std::vector<int> example;  // a ranking of the orbit (first seen)
  };
  std::unordered_map<uint64_t, OrbitStats> orbits;
  std::vector<int> rank(static_cast<size_t>(n));
  std::iota(rank.begin(), rank.end(), 0);
  do {
    uint64_t canonical = std::numeric_limits<uint64_t>::max();
    for (const Permutation& g : autos) {
      canonical = std::min(canonical, encode(rank, g));
    }
    OrbitStats& stats = orbits[canonical];
    if (stats.example.empty()) stats.example = rank;
    if (satisfied(rank)) ++stats.satisfied_count;
  } while (std::next_permutation(rank.begin(), rank.end()));

  int reported_over = 0;
  int reported_under = 0;
  for (const auto& [key, stats] : orbits) {
    (void)key;
    if (stats.satisfied_count >= 2 && reported_over < 3) {
      ++reported_over;
      report->Add(LintSeverity::kError, "sb-unkilled-automorphism",
                  "constraints leave " +
                      std::to_string(stats.satisfied_count) +
                      " of the " + std::to_string(autos.size()) +
                      " automorphic images of an instance alive (orbit of " +
                      RankingToString(stats.example) +
                      "): the instance is counted multiple times");
    } else if (stats.satisfied_count == 0 && reported_under < 3) {
      ++reported_under;
      report->Add(LintSeverity::kError, "sb-kills-valid-embedding",
                  "no automorphic image of an instance satisfies the "
                  "constraints (orbit of " +
                      RankingToString(stats.example) +
                      "): the instance is never counted");
    }
  }
}

// --- Twin-closure rules -----------------------------------------------------

/// GraphPi's partition sum over positions 0..k-1, re-derived apart from
/// plan/iep.h: every map of the positions onto block labels is expanded and
/// only the first-occurrence-ordered ones (one per set partition) kept.
/// Blocks are named by rep[] positions, as in PartitionSum.
std::map<std::vector<uint32_t>, int64_t> ExpectedPartitionSum(
    const std::vector<int>& rep) {
  const int k = static_cast<int>(rep.size());
  std::map<std::vector<uint32_t>, int64_t> sum;
  int64_t maps = 1;
  for (int i = 0; i < k; ++i) maps *= k;
  for (int64_t code = 0; code < maps; ++code) {
    std::vector<int> label(static_cast<size_t>(k));
    int64_t rest = code;
    int next = 0;
    bool canonical = true;
    for (int i = 0; i < k && canonical; ++i) {
      label[static_cast<size_t>(i)] = static_cast<int>(rest % k);
      rest /= k;
      canonical = label[static_cast<size_t>(i)] <= next;
      if (label[static_cast<size_t>(i)] == next) ++next;
    }
    if (!canonical) continue;
    std::vector<uint32_t> blocks;
    int64_t mu = 1;
    for (int b = 0; b < next; ++b) {
      uint32_t block = 0;
      int size = 0;
      for (int i = 0; i < k; ++i) {
        if (label[static_cast<size_t>(i)] != b) continue;
        block |= 1u << rep[static_cast<size_t>(i)];
        ++size;
      }
      mu *= (size % 2 == 1 ? 1 : -1) *
            static_cast<int64_t>(Factorial(size - 1));
      blocks.push_back(block);
    }
    std::sort(blocks.begin(), blocks.end());
    sum[blocks] += mu;
  }
  for (auto it = sum.begin(); it != sum.end();) {
    it = it->second == 0 ? sum.erase(it) : std::next(it);
  }
  return sum;
}

/// The count-only leaf (ExecutionPlan::leaf) adds binomials, a partition
/// sum, or b's scatter count instead of walking the tail. That is exact
/// only when the tail ends sigma as pairwise non-adjacent vertices with
/// operands and no non-edge checks, bound after everything else; in the
/// twin form when the twins read equal sets and the restrictions order
/// them totally; in the partition form when no restriction orders two tail
/// vertices and the stored terms are the partition lattice's Möbius sum
/// (re-derived here, and checked against the falling-factorial identity);
/// and with b when b meets nothing but the twins and no bound of b tells
/// them apart.
void CheckLeaf(const Pattern& pattern, const ExecutionPlan& plan,
               const SigmaIndex& sigma, LintReport* report) {
  const CountLeaf& leaf = plan.leaf;
  if (leaf.empty()) return;
  const auto fail = [&](const std::string& message, int vertex = -1,
                        std::pair<int, int> edge = {-1, -1}) {
    report->Add(LintSeverity::kError, "count-leaf", message, vertex, edge);
  };
  const int n = pattern.NumVertices();
  const size_t k = leaf.tail.size();
  const int b = leaf.b;
  uint32_t mask = 0;
  for (const int t : leaf.tail) {
    if (t < 0 || t >= n || (mask >> t & 1u) != 0 || t == b) {
      fail("leaf lists an out-of-range or repeated vertex");
      return;
    }
    mask |= 1u << t;
  }
  if (k > static_cast<size_t>(kMaxLeafTail) || b >= n) {
    fail("leaf has more than " + std::to_string(kMaxLeafTail) +
         " tail vertices or an out-of-range b");
    return;
  }
  const int t1 = leaf.tail[0];

  // sigma ends MAT(t1) ... MAT(tk), then COMP(b) MAT(b) if there is a b.
  const ExecutionOrder& ops = plan.sigma;
  const size_t after = b < 0 ? 0 : 2;
  bool shape = ops.size() >= k + after + 1;
  for (size_t i = 0; shape && i < k; ++i) {
    const Operation& op = ops[ops.size() - after - k + i];
    shape = op.type == OpType::kMaterialize && op.vertex == leaf.tail[i];
  }
  if (b >= 0) {
    shape = shape && ops[ops.size() - 2].type == OpType::kCompute &&
            ops[ops.size() - 2].vertex == b &&
            ops.back().type == OpType::kMaterialize && ops.back().vertex == b;
  }
  if (!shape) {
    fail("sigma does not end MAT(t1) ... MAT(tk)" +
             std::string(b < 0 ? "" : " COMP(b) MAT(b)") +
             " over the leaf's vertices in order",
         t1);
  }
  for (size_t i = 0; i < k; ++i) {
    const int t = leaf.tail[i];
    const Operands& o = plan.operands[static_cast<size_t>(t)];
    if (o.k1.empty() && o.k2.empty()) {
      fail("leaf vertex " + VertexName(t) +
               " has no operands: its candidate set is implicit",
           t);
    }
    if (!plan.non_adjacent[static_cast<size_t>(t)].empty()) {
      fail("leaf vertex " + VertexName(t) +
               " carries non-edge checks, which need each candidate bound",
           t);
    }
    if ((pattern.NeighborMask(t) & mask) != 0) {
      fail("leaf vertex " + VertexName(t) + " is adjacent to another one",
           t);
    }
    for (const std::vector<int>* bounds :
         {&plan.lower_bounds[static_cast<size_t>(t)],
          &plan.upper_bounds[static_cast<size_t>(t)]}) {
      for (const int x : *bounds) {
        if (x < 0 || x >= n || (mask >> x & 1u) != 0) continue;
        if (sigma.mat_pos[static_cast<size_t>(x)] >=
            sigma.mat_pos[static_cast<size_t>(t1)]) {
          fail("bound " + VertexName(x) + " of leaf vertex " + VertexName(t) +
                   " is not bound before MAT(" + VertexName(t1) + ")",
               t, {x, t});
        }
      }
    }
  }

  const auto outer = [&](const std::vector<int>& bounds) {
    std::vector<int> out;
    for (const int x : bounds) {
      if (x < 0 || x >= n || (mask >> x & 1u) == 0) out.push_back(x);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto same_set = [&](int a, int c) {
    return pattern.NeighborMask(a) == pattern.NeighborMask(c) &&
           pattern.Label(a) == pattern.Label(c) &&
           outer(plan.lower_bounds[static_cast<size_t>(a)]) ==
               outer(plan.lower_bounds[static_cast<size_t>(c)]) &&
           outer(plan.upper_bounds[static_cast<size_t>(a)]) ==
               outer(plan.upper_bounds[static_cast<size_t>(c)]);
  };
  // The restrictions among the tail, transitively closed.
  std::vector<int> pos(static_cast<size_t>(n), -1);
  for (size_t i = 0; i < k; ++i) {
    pos[static_cast<size_t>(leaf.tail[i])] = static_cast<int>(i);
  }
  std::vector<uint32_t> below(k, 0);
  bool ordered = false;
  for (const auto& [x, y] : plan.partial_order) {
    if (x < 0 || x >= n || y < 0 || y >= n) continue;  // sb-constraint-range
    const int px = pos[static_cast<size_t>(x)];
    const int py = pos[static_cast<size_t>(y)];
    if (px < 0 || py < 0) continue;
    below[static_cast<size_t>(px)] |= 1u << py;
    ordered = true;
  }
  for (size_t m = 0; m < k; ++m) {
    for (size_t i = 0; i < k; ++i) {
      if (below[i] >> m & 1u) below[i] |= below[m];
    }
  }

  if (leaf.twins()) {
    for (size_t i = 1; i < k; ++i) {
      const int t = leaf.tail[i];
      if (!same_set(t1, t)) {
        fail("twins " + VertexName(t1) + " and " + VertexName(t) +
                 " differ in neighbourhood, label or outer bounds: their "
                 "candidate sets are not equal",
             t, {t1, t});
      }
      for (size_t j = 0; j < i; ++j) {
        if ((((below[i] >> j) ^ (below[j] >> i)) & 1u) == 0) {
          fail("the restrictions do not order twins " +
                   VertexName(leaf.tail[j]) + " and " + VertexName(t) +
                   " one way: the binomial counts one order of each subset",
               t, {leaf.tail[j], t});
        }
      }
    }
  } else {
    if (k < 2 || leaf.terms.size() != k || b >= 0) {
      fail("partition-form leaf needs k >= 2 tail vertices, one term table "
           "per prefix, and no b");
      return;
    }
    if (ordered) {
      fail("a restriction orders two vertices of a partition-form leaf: the "
           "partition sum counts every injective binding");
    }
    std::vector<int> rep(k);
    for (size_t i = 0; i < k; ++i) {
      size_t j = 0;
      while (!same_set(leaf.tail[j], leaf.tail[i])) ++j;
      rep[i] = static_cast<int>(j);
      const std::map<std::vector<uint32_t>, int64_t> expected =
          ExpectedPartitionSum(
              {rep.begin(), rep.begin() + static_cast<ptrdiff_t>(i) + 1});
      std::map<std::vector<uint32_t>, int64_t> stored;
      for (const LeafTerm& term : leaf.terms[i]) {
        stored[term.blocks] += term.coefficient;
      }
      if (stored != expected) {
        fail("the terms of prefix t1..t" + std::to_string(i + 1) +
                 " differ from the partition lattice's Möbius sum",
             leaf.tail[i]);
      }
      // Falling-factorial identity: with every |C_B| = x the sum is the
      // number of injective bindings x (x-1) ... (x-i).
      for (int64_t x = 0; x <= static_cast<int64_t>(i) + 3; ++x) {
        int64_t lhs = 0;
        for (const LeafTerm& term : leaf.terms[i]) {
          int64_t power = term.coefficient;
          for (size_t blk = 0; blk < term.blocks.size(); ++blk) power *= x;
          lhs += power;
        }
        int64_t rhs = 1;
        for (int64_t f = 0; f <= static_cast<int64_t>(i); ++f) rhs *= x - f;
        if (lhs != rhs) {
          fail("the terms of prefix t1..t" + std::to_string(i + 1) +
                   " sum to " + std::to_string(lhs) + " at x = " +
                   std::to_string(x) + ", not x(x-1)...(x-" +
                   std::to_string(i) + ") = " + std::to_string(rhs),
               leaf.tail[i]);
          break;
        }
      }
    }
  }

  if (b < 0) return;
  const std::string b_name = VertexName(b);
  if (plan.options.induced) {
    fail("leaf with " + b_name + " on an induced plan: b's non-edge checks "
         "need each candidate bound",
         b);
  }
  if (!leaf.twins() || k < 2 || std::popcount(pattern.NeighborMask(t1)) < 2) {
    fail(b_name + " closes a leaf that is not >= 2 twins sharing >= 2 "
                  "neighbours",
         b);
  }
  const Operands& b_ops = plan.operands[static_cast<size_t>(b)];
  uint32_t k1_mask = 0;
  for (const int x : b_ops.k1) {
    if (x >= 0 && x < n) k1_mask |= 1u << x;
  }
  if (k1_mask != mask || !b_ops.k2.empty() || b_ops.k1.size() != k ||
      pattern.NeighborMask(b) != mask) {
    fail(b_name + " has an operand or a pattern neighbour that is not a "
                  "twin: its candidates are not the common neighbours of "
                  "the twins alone",
         b);
  }
  const CompWindow no_window;
  const CompWindow& window = plan.comp_windows.empty()
                                 ? no_window
                                 : plan.comp_windows[static_cast<size_t>(b)];
  for (const std::vector<int>* bounds :
       {&plan.lower_bounds[static_cast<size_t>(b)],
        &plan.upper_bounds[static_cast<size_t>(b)], &window.lower,
        &window.upper}) {
    for (const int x : *bounds) {
      if (x >= 0 && x < n && (mask >> x & 1u) != 0) {
        fail(b_name + "'s window names twin " + VertexName(x) +
                 ": the scatter count cannot tell the twins apart",
             b, {x, b});
      }
    }
  }
}

// --- Candidate-computation (set cover) rules -------------------------------

void CheckOperands(const Pattern& pattern, const ExecutionPlan& plan,
                   const SigmaIndex& sigma, const LintOptions& options,
                   LintReport* report) {
  const int n = pattern.NumVertices();
  const std::vector<uint32_t> backward = BackwardMasks(pattern, plan.pi);
  std::vector<int> pi_pos(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    pi_pos[static_cast<size_t>(plan.pi[static_cast<size_t>(i)])] = i;
  }

  {
    const Operands& first =
        plan.operands[static_cast<size_t>(plan.pi[0])];
    if (!first.k1.empty() || !first.k2.empty()) {
      report->Add(LintSeverity::kError, "operands-first-vertex",
                  VertexName(plan.pi[0]) +
                      " is first in pi (candidates are V(G)) but carries "
                      "operands",
                  plan.pi[0]);
    }
  }

  for (int i = 1; i < n; ++i) {
    const int u = plan.pi[static_cast<size_t>(i)];
    const Operands& ops = plan.operands[static_cast<size_t>(u)];
    const uint32_t universe = backward[static_cast<size_t>(u)];
    uint32_t covered = 0;
    bool vertex_ok = true;

    for (const int x : ops.k1) {
      if (x < 0 || x >= n || ((universe >> x) & 1u) == 0) {
        report->Add(LintSeverity::kError, "cover-overreach",
                    "K1 operand " + VertexName(x) + " of " + VertexName(u) +
                        " is not a backward neighbor: candidates are "
                        "constrained to be adjacent to a vertex " +
                        VertexName(u) + " need not be adjacent to",
                    u, {x, u});
        vertex_ok = false;
        continue;
      }
      covered |= 1u << x;
      if (sigma.comp_pos[static_cast<size_t>(u)] != -1 &&
          (sigma.mat_pos[static_cast<size_t>(x)] == -1 ||
           sigma.mat_pos[static_cast<size_t>(x)] >
               sigma.comp_pos[static_cast<size_t>(u)])) {
        report->Add(LintSeverity::kError, "cover-operand-order",
                    "K1 operand " + VertexName(x) + " of " + VertexName(u) +
                        " is not materialized before COMP(" + VertexName(u) +
                        ") — N(phi(" + VertexName(x) +
                        ")) is unavailable at computation time",
                    u, {x, u});
        vertex_ok = false;
      }
    }

    for (const int y : ops.k2) {
      if (y < 0 || y >= n ||
          pi_pos[static_cast<size_t>(y)] >= pi_pos[static_cast<size_t>(u)]) {
        report->Add(LintSeverity::kError, "cover-operand-order",
                    "K2 operand " + VertexName(y) + " of " + VertexName(u) +
                        " does not precede " + VertexName(u) + " in pi",
                    u, {y, u});
        vertex_ok = false;
        continue;
      }
      const uint32_t y_backward = backward[static_cast<size_t>(y)];
      if ((y_backward & ~universe) != 0) {
        report->Add(LintSeverity::kError, "cover-overreach",
                    "K2 operand " + VertexName(y) + " of " + VertexName(u) +
                        "'s candidate set enforces adjacency to vertices "
                        "outside N+(" +
                        VertexName(u) + "): valid embeddings are dropped",
                    u, {y, u});
        vertex_ok = false;
        continue;
      }
      if (pattern.Label(y) != 0 && pattern.Label(y) != pattern.Label(u)) {
        report->Add(LintSeverity::kError, "cover-label-mismatch",
                    "K2 operand " + VertexName(y) + " of " + VertexName(u) +
                        " carries label " + std::to_string(pattern.Label(y)) +
                        " but " + VertexName(u) + " needs label " +
                        std::to_string(pattern.Label(u)) +
                        ": C(" + VertexName(y) +
                        ") is filtered to the wrong label",
                    u, {y, u});
        vertex_ok = false;
        continue;
      }
      covered |= y_backward;
      if (sigma.comp_pos[static_cast<size_t>(u)] != -1 &&
          (sigma.comp_pos[static_cast<size_t>(y)] == -1 ||
           sigma.comp_pos[static_cast<size_t>(y)] >
               sigma.comp_pos[static_cast<size_t>(u)])) {
        report->Add(LintSeverity::kError, "cover-operand-order",
                    "K2 operand " + VertexName(y) + " of " + VertexName(u) +
                        " has no candidate set yet at COMP(" + VertexName(u) +
                        ")",
                    u, {y, u});
        vertex_ok = false;
      }
    }

    uint32_t missing = universe & ~covered;
    while (missing != 0) {
      const int w = __builtin_ctz(missing);
      missing &= missing - 1;
      report->Add(LintSeverity::kError, "cover-incomplete",
                  "backward neighbor " + VertexName(w) + " of " +
                      VertexName(u) +
                      " is covered by no operand: candidates need not be "
                      "adjacent to phi(" +
                      VertexName(w) + ") (Equation 6 violated)",
                  u, {w, u});
      vertex_ok = false;
    }

    if (vertex_ok && plan.options.minimum_set_cover &&
        options.check_cover_minimality && universe != 0) {
      // Rebuild Algorithm 3's candidate collection and compare sizes.
      std::vector<uint32_t> sets;
      uint32_t m = universe;
      while (m != 0) {
        sets.push_back(1u << __builtin_ctz(m));
        m &= m - 1;
      }
      for (int j = 0; j < i; ++j) {
        const int w = plan.pi[static_cast<size_t>(j)];
        const uint32_t mask = backward[static_cast<size_t>(w)];
        if (mask == 0 || (mask & ~universe) != 0) continue;
        if (__builtin_popcount(mask) <= 1) continue;
        if (pattern.Label(w) != 0 && pattern.Label(w) != pattern.Label(u)) {
          continue;
        }
        if (std::find(sets.begin(), sets.end(), mask) == sets.end()) {
          sets.push_back(mask);
        }
      }
      const size_t minimal = MinimumSetCover(universe, sets).size();
      const size_t actual = ops.k1.size() + ops.k2.size();
      if (actual > minimal) {
        report->Add(
            LintSeverity::kWarning, "cover-not-minimal",
            VertexName(u) + " uses " + std::to_string(actual) +
                " operands where " + std::to_string(minimal) +
                " suffice: " + std::to_string(actual - minimal) +
                " avoidable intersection(s) per candidate computation",
            u);
      }
    }
  }
}

// --- Induced-matching wiring ----------------------------------------------

void CheckInducedWiring(const Pattern& pattern, const ExecutionPlan& plan,
                        const SigmaIndex& sigma, LintReport* report) {
  const int n = pattern.NumVertices();
  std::vector<std::vector<int>> expected(static_cast<size_t>(n));
  if (plan.options.induced) {
    for (int u = 0; u < n; ++u) {
      for (int w = 0; w < u; ++w) {
        if (pattern.HasEdge(u, w)) continue;
        const int later = sigma.mat_pos[static_cast<size_t>(u)] >
                                  sigma.mat_pos[static_cast<size_t>(w)]
                              ? u
                              : w;
        expected[static_cast<size_t>(later)].push_back(later == u ? w : u);
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    std::vector<int> want = expected[static_cast<size_t>(u)];
    std::vector<int> have = plan.non_adjacent[static_cast<size_t>(u)];
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    if (want != have) {
      report->Add(LintSeverity::kError, "induced-wiring",
                  plan.options.induced
                      ? "non-adjacency checks of " + VertexName(u) +
                            " do not cover each pattern non-edge exactly "
                            "once at its later-materialized endpoint"
                      : "non-induced plan carries non-adjacency checks at " +
                            VertexName(u),
                  u);
    }
  }
}

// --- Cardinality sanity ----------------------------------------------------

void CheckCardinality(const Pattern& pattern, const ExecutionPlan& plan,
                      const LintOptions& options, LintReport* report) {
  if (!options.cardinality) return;
  const int n = pattern.NumVertices();

  uint32_t mask = 0;
  for (int i = 0; i < n; ++i) {
    mask |= 1u << plan.pi[static_cast<size_t>(i)];
    const double estimate = options.cardinality(pattern, mask);
    if (!(estimate >= 0.0) || !std::isfinite(estimate)) {
      report->Add(LintSeverity::kError, "cardinality-negative",
                  "estimate for the first " + std::to_string(i + 1) +
                      " vertices of pi is " + std::to_string(estimate) +
                      " (must be finite and non-negative)",
                  plan.pi[static_cast<size_t>(i)]);
      return;  // the estimator is broken; further probes add noise
    }
  }

  // Refinement monotonicity: adding an edge constrains the match set, so
  // the estimate must not increase — equivalently, removing an edge must
  // not decrease it. Only closing edges (removals that keep the pattern
  // connected) are probed: component-splitting removals change the
  // estimator's structural model and are not comparable.
  if (!pattern.IsConnected()) return;
  const double full = options.cardinality(pattern, mask);
  for (const auto& [a, b] : pattern.Edges()) {
    std::vector<std::pair<int, int>> edges;
    for (const auto& e : pattern.Edges()) {
      if (e != std::make_pair(a, b)) edges.push_back(e);
    }
    Pattern reduced = Pattern::FromEdges(n, edges);
    for (int u = 0; u < n; ++u) reduced.SetLabel(u, pattern.Label(u));
    if (!reduced.IsConnected()) continue;
    const double relaxed = options.cardinality(reduced, mask);
    // Generous tolerance: the analytic model is exact about this ordering,
    // but allow rounding headroom.
    if (relaxed < full * (1.0 - 1e-9) - 1e-12) {
      report->Add(LintSeverity::kWarning, "cardinality-nonmonotone",
                  "dropping edge " + PairName({a, b}) +
                      " lowers the estimate from " + std::to_string(full) +
                      " to " + std::to_string(relaxed) +
                      ": estimates must be monotone under refinement",
                  -1, {a, b});
    }
  }
}

}  // namespace

// --- Public API ------------------------------------------------------------

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo:
      return "info";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "unknown";
}

std::string LintDiagnostic::ToString() const {
  std::string s = std::string(LintSeverityName(severity)) + "[" + rule_id +
                  "]";
  if (vertex >= 0) s += " " + VertexName(vertex);
  return s + ": " + message;
}

std::string LintDiagnostic::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("severity", LintSeverityName(severity));
  w.KV("rule", rule_id);
  w.KV("message", message);
  if (vertex >= 0) w.KV("vertex", vertex);
  if (edge.first >= 0 || edge.second >= 0) {
    w.Key("edge");
    w.BeginArray();
    w.Int(edge.first);
    w.Int(edge.second);
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

size_t LintReport::errors() const {
  size_t count = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kError) ++count;
  }
  return count;
}

size_t LintReport::warnings() const {
  size_t count = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kWarning) ++count;
  }
  return count;
}

void LintReport::Add(LintSeverity severity, std::string rule_id,
                     std::string message, int vertex,
                     std::pair<int, int> edge) {
  diagnostics.push_back(LintDiagnostic{severity, std::move(rule_id),
                                       std::move(message), vertex, edge});
}

std::string LintReport::ToString() const {
  std::string s;
  for (const LintDiagnostic& d : diagnostics) s += d.ToString() + "\n";
  return s;
}

std::string LintReport::ToJsonl() const {
  std::string s;
  for (const LintDiagnostic& d : diagnostics) s += d.ToJson() + "\n";
  return s;
}

LintReport LintPlan(const Pattern& pattern, const ExecutionPlan& plan,
                    const LintOptions& options) {
  LintReport report;
  if (!(plan.pattern == pattern)) {
    report.Add(LintSeverity::kError, "plan-pattern-mismatch",
               "plan was built for pattern " + plan.pattern.ToString() +
                   " but is being used with " + pattern.ToString());
    // Lint against the plan's own pattern — that is what it would execute.
  }
  const Pattern& p = plan.pattern;
  if (p.NumVertices() == 0) {
    report.Add(LintSeverity::kError, "plan-shape", "pattern has no vertices");
    return report;
  }
  if (!CheckShape(p, plan, &report)) return report;
  if (!IsPermutation(p.NumVertices(), plan.pi)) {
    report.Add(LintSeverity::kError, "order-permutation",
               "pi is not a permutation of the pattern vertices");
    return report;  // everything downstream indexes through pi
  }

  CheckOrder(p, plan, &report);
  CheckSigma(p, plan, &report);
  const SigmaIndex sigma(p.NumVertices(), plan.sigma);

  const bool sb_structurally_ok =
      CheckPartialOrderStructure(p, plan, &report);
  if (sb_structurally_ok) {
    CheckConstraintWiring(p, plan, sigma, &report);
    CheckCompWindows(p, plan, sigma, &report);
    if (plan.options.symmetry_breaking) {
      CheckAutomorphismConsistency(p, plan, options, &report);
    }
  }

  CheckOperands(p, plan, sigma, options, &report);
  CheckInducedWiring(p, plan, sigma, &report);
  CheckLeaf(p, plan, sigma, &report);
  CheckCardinality(p, plan, options, &report);
  return report;
}

void LintBitmapConfig(uint32_t bitmap_min_degree, double bitmap_density,
                      size_t bitmap_max_bytes, LintReport* report) {
  // light.h's kBitmapDegreeAuto sentinel, re-derived to keep analysis/
  // independent of the facade header.
  const uint32_t degree_auto = kBitmapDegreeNever - 1;
  if (std::isnan(bitmap_density) || bitmap_density < 0) {
    report->Add(LintSeverity::kError, "bitmap-density-invalid",
                "bitmap_density is " + std::to_string(bitmap_density) +
                    " (must be a non-negative number)");
    return;
  }
  if (bitmap_min_degree == kBitmapDegreeNever) return;  // index disabled
  if (bitmap_min_degree == degree_auto && bitmap_density > 1.0) {
    report->Add(LintSeverity::kWarning, "bitmap-density-excessive",
                "bitmap_density " + std::to_string(bitmap_density) +
                    " exceeds 1: the derived degree threshold exceeds every "
                    "possible degree, so the index stays empty");
  }
  if (bitmap_max_bytes == 0) {
    report->Add(LintSeverity::kWarning, "bitmap-budget-zero",
                "bitmap index is enabled with a zero byte budget: no row "
                "can be admitted");
  }
}

CardinalityFn AnalyticCardinalityFn(const GraphStats& stats) {
  auto estimator = std::make_shared<CardinalityEstimator>(stats);
  return [estimator](const Pattern& pattern, uint32_t mask) {
    return estimator->EstimateMatches(pattern, mask);
  };
}

}  // namespace light::analysis
