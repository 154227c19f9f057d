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
  if (!ValidateExecutionOrder(pattern, plan.pi, plan.sigma,
                              plan.counted_tail)) {
    report->Add(LintSeverity::kError, "sigma-structure",
                "execution order violates the Section-IV invariants "
                "(one MAT per vertex, COMP per non-first vertex in pi "
                "order, backward neighbors materialized before COMP, "
                "COMP before MAT; counted tail vertices close sigma with "
                "bare COMP ops): " +
                    ExecutionOrderToString(plan.sigma));
  }
}

// --- Counted-tail (IEP term plan) rules ------------------------------------

/// The counted tail trades materialization for a candidate-count product:
/// tail candidates are never bound to data vertices, so no per-candidate
/// check (symmetry bound, non-adjacency, another vertex's operand) may
/// involve them, and the tail must be pattern-independent for the product
/// to be exact. Returns false when the tail indices are unusable.
bool CheckCountedTail(const Pattern& pattern, const ExecutionPlan& plan,
                      LintReport* report) {
  if (plan.counted_tail.empty()) return true;
  const int n = pattern.NumVertices();
  uint32_t tail_mask = 0;
  for (const int t : plan.counted_tail) {
    if (t < 0 || t >= n) {
      report->Add(LintSeverity::kError, "plan-shape",
                  "counted tail vertex " + std::to_string(t) +
                      " is out of range for a " + std::to_string(n) +
                      "-vertex pattern");
      return false;
    }
    tail_mask |= 1u << t;
  }

  if (plan.options.symmetry_breaking) {
    report->Add(LintSeverity::kError, "iep-tail-symmetry",
                "counted-tail plan built with symmetry breaking: IEP "
                "closure needs every kernel embedding, restrictions would "
                "undercount");
  }

  for (size_t i = 0; i < plan.counted_tail.size(); ++i) {
    for (size_t j = i + 1; j < plan.counted_tail.size(); ++j) {
      const int a = plan.counted_tail[i];
      const int b = plan.counted_tail[j];
      if (pattern.HasEdge(a, b)) {
        report->Add(LintSeverity::kError, "iep-tail-not-independent",
                    "counted tail vertices " + VertexName(a) + " and " +
                        VertexName(b) +
                        " are adjacent: their candidate sets are not "
                        "independent, so counting |C| products overcounts",
                    a, {a, b});
      }
    }
  }

  auto constrained = [&](int u, const std::string& how) {
    report->Add(LintSeverity::kError, "iep-tail-constrained",
                "counted tail vertex " + VertexName(u) + " " + how +
                    ": tail candidates are counted, never materialized, so "
                    "per-candidate checks cannot run",
                u);
  };
  for (const auto& [a, b] : plan.partial_order) {
    if (a >= 0 && a < n && ((tail_mask >> a) & 1u)) {
      constrained(a, "appears in the symmetry-breaking partial order");
    }
    if (b >= 0 && b < n && ((tail_mask >> b) & 1u)) {
      constrained(b, "appears in the symmetry-breaking partial order");
    }
  }
  for (int u = 0; u < n; ++u) {
    const bool u_tail = ((tail_mask >> u) & 1u) != 0;
    auto scan = [&](const std::vector<int>& list, const char* kind) {
      if (u_tail && !list.empty()) {
        constrained(u, std::string("carries ") + kind + " checks");
        return;
      }
      for (const int w : list) {
        if (w >= 0 && w < n && ((tail_mask >> w) & 1u)) {
          constrained(w, std::string("is referenced by a ") + kind +
                             " check of " + VertexName(u));
        }
      }
    };
    scan(plan.lower_bounds[static_cast<size_t>(u)], "lower-bound");
    scan(plan.upper_bounds[static_cast<size_t>(u)], "upper-bound");
    scan(plan.non_adjacent[static_cast<size_t>(u)], "non-adjacency");
  }
  return true;
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
/// Counted-tail plans take no windows (the tail is never materialized).
void CheckCompWindows(const Pattern& pattern, const ExecutionPlan& plan,
                      const SigmaIndex& sigma, LintReport* report) {
  if (!plan.HasCompWindows()) return;
  if (plan.HasCountedTail()) {
    report->Add(LintSeverity::kError, "sb-comp-window",
                "counted-tail plan carries COMP windows: its tail is never "
                "materialized, so no MAT enforces their order");
    return;
  }
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

bool SameSet(std::vector<int> a, std::vector<int> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// A twin closure (ExecutionPlan::twin_closure) counts the twins by
/// binomials over one shared candidate set, and b (if any) by a scatter
/// over the twins' candidates, instead of walking them. That is exact only
/// when the twins are interchangeable (non-adjacent, same neighbours, same
/// candidate set, same outer bounds, chained by the restrictions), b meets
/// nothing but the twins and no bound of b tells the twins apart, and the
/// plan walks sigma to its last MAT with no non-edge or counted-tail
/// terminal. Twins with one shared neighbour (stars) are out of scope.
void CheckTwinClosure(const Pattern& pattern, const ExecutionPlan& plan,
                      const SigmaIndex& sigma, LintReport* report) {
  if (!plan.HasTwinClosure()) return;
  const auto fail = [&](const std::string& message, int vertex = -1,
                        std::pair<int, int> edge = {-1, -1}) {
    report->Add(LintSeverity::kError, "twin-closure", message, vertex, edge);
  };
  const int n = pattern.NumVertices();
  const std::vector<int>& closure = plan.twin_closure;
  uint32_t listed = 0;
  for (const int v : closure) {
    if (v < 0 || v >= n || (listed >> v & 1u) != 0) {
      fail("twin closure lists an out-of-range or repeated vertex");
      return;
    }
    listed |= 1u << v;
  }
  const int b = plan.TwinClosureB();
  const size_t k = closure.size() - (b < 0 ? 0 : 1);
  if (k < 2) {
    fail("twin closure needs at least two twins");
    return;
  }
  if (plan.options.induced) {
    fail("twin closure on an induced plan: the non-edge checks of the twins "
         "and b need each candidate bound");
  }
  if (plan.HasCountedTail()) {
    fail("twin closure on a counted-tail plan: its terminal is the tail "
         "product");
  }
  const int t1 = closure[0];
  const uint32_t twin_mask = b < 0 ? listed : listed & ~(1u << b);
  const std::string b_name = VertexName(b);

  // sigma ends with the twins' MATs in chain order, then COMP(b) MAT(b)
  // if there is a b.
  const ExecutionOrder& ops = plan.sigma;
  const size_t tail = b < 0 ? 0 : 2;
  bool shape = ops.size() >= k + tail + 1;
  for (size_t i = 0; shape && i < k; ++i) {
    const Operation& op = ops[ops.size() - tail - k + i];
    shape = op.type == OpType::kMaterialize && op.vertex == closure[i];
  }
  if (b < 0) {
    if (!shape) {
      fail("sigma does not end MAT(t1) ... MAT(tk) over the twin leaf's "
               "twins in chain order",
           closure[k - 1]);
    }
  } else {
    shape = shape && ops[ops.size() - 2].type == OpType::kCompute &&
            ops[ops.size() - 2].vertex == b &&
            ops.back().type == OpType::kMaterialize && ops.back().vertex == b;
    if (!shape) {
      fail("sigma does not end MAT(t1) ... MAT(tk) COMP(" + b_name +
               ") MAT(" + b_name + ") over the closure's twins in chain order",
           b);
    }
  }
  if (std::popcount(pattern.NeighborMask(t1)) < 2) {
    fail("twins share fewer than two pattern neighbours: one-neighbour "
         "(star) twins are left to the walk and the IEP tail",
         t1);
  }

  for (size_t i = 0; i < k; ++i) {
    const int t = closure[i];
    if ((pattern.NeighborMask(t) & twin_mask) != 0) {
      fail("twin " + VertexName(t) + " is adjacent to another twin", t);
    }
    if (pattern.NeighborMask(t) != pattern.NeighborMask(t1)) {
      fail("twins " + VertexName(t1) + " and " + VertexName(t) +
               " have different pattern neighbourhoods",
           t, {t1, t});
    }
  }

  if (b >= 0) {
    const Operands& b_ops = plan.operands[static_cast<size_t>(b)];
    uint32_t k1_mask = 0;
    for (const int x : b_ops.k1) {
      if (x >= 0 && x < n) k1_mask |= 1u << x;
    }
    if (k1_mask != twin_mask || !b_ops.k2.empty() ||
        b_ops.k1.size() != k || pattern.NeighborMask(b) != twin_mask) {
      fail(b_name + " has an operand or a pattern neighbour that is not a "
               "twin: its candidates are not the common neighbours of the "
               "twins alone",
           b);
    }
  }

  // The set each twin reads: its operands, or through a single K2 alias
  // those of another twin.
  const auto source = [&](int t) {
    for (size_t hops = 0; hops < k; ++hops) {
      const Operands& o = plan.operands[static_cast<size_t>(t)];
      if (!o.k1.empty() || o.k2.size() != 1 || o.k2[0] < 0 || o.k2[0] >= n ||
          (twin_mask >> o.k2[0] & 1u) == 0) {
        break;
      }
      t = o.k2[0];
    }
    return t;
  };
  const Operands& set = plan.operands[static_cast<size_t>(source(t1))];
  const auto outer = [&](const std::vector<int>& bounds) {
    std::vector<int> out;
    for (const int x : bounds) {
      if (x < 0 || x >= n || (twin_mask >> x & 1u) == 0) out.push_back(x);
    }
    return out;
  };
  const int t1_mat = sigma.mat_pos[static_cast<size_t>(t1)];
  for (const std::vector<int>* bounds :
       {&plan.lower_bounds[static_cast<size_t>(t1)],
        &plan.upper_bounds[static_cast<size_t>(t1)]}) {
    for (const int x : outer(*bounds)) {
      if (x < 0 || x >= n ||
          sigma.mat_pos[static_cast<size_t>(x)] >= t1_mat) {
        fail("outer bound " + VertexName(x) + " of the twins is not bound "
                 "before MAT(" + VertexName(t1) + ")",
             t1, {x, t1});
      }
    }
  }
  for (size_t i = 1; i < k; ++i) {
    const int t = closure[i];
    const Operands& o = plan.operands[static_cast<size_t>(source(t))];
    if (!SameSet(o.k1, set.k1) || !SameSet(o.k2, set.k2)) {
      fail("twin " + VertexName(t) + " reads a different candidate set "
               "than " + VertexName(t1),
           t, {t1, t});
    }
    if (!SameSet(outer(plan.lower_bounds[static_cast<size_t>(t)]),
                 outer(plan.lower_bounds[static_cast<size_t>(t1)])) ||
        !SameSet(outer(plan.upper_bounds[static_cast<size_t>(t)]),
                 outer(plan.upper_bounds[static_cast<size_t>(t1)]))) {
      fail("twins " + VertexName(t1) + " and " + VertexName(t) +
               " have different outer bounds: they are not interchangeable",
           t, {t1, t});
    }
  }

  std::vector<int> rank(static_cast<size_t>(n), -1);
  for (size_t i = 0; i < k; ++i) {
    rank[static_cast<size_t>(closure[i])] = static_cast<int>(i);
  }
  uint32_t links = 0;
  for (const auto& [x, y] : plan.partial_order) {
    if (x < 0 || x >= n || y < 0 || y >= n) continue;  // sb-constraint-range
    const int rx = rank[static_cast<size_t>(x)];
    const int ry = rank[static_cast<size_t>(y)];
    if (rx < 0 || ry < 0) continue;
    if (rx > ry) {
      fail("constraint " + PairName({x, y}) + " orders the twins against "
               "the chain",
           y, {x, y});
    } else if (ry == rx + 1) {
      links |= 1u << rx;
    }
  }
  for (size_t i = 0; i + 1 < k; ++i) {
    if ((links >> i & 1u) == 0) {
      fail("chain constraint " + PairName({closure[i], closure[i + 1]}) +
               " is missing: the twins' binomial counts only ordered "
               "chains",
           closure[i + 1], {closure[i], closure[i + 1]});
    }
  }

  if (b < 0) return;
  const CompWindow no_window;
  const CompWindow& window = plan.comp_windows.empty()
                                 ? no_window
                                 : plan.comp_windows[static_cast<size_t>(b)];
  for (const std::vector<int>* bounds :
       {&plan.lower_bounds[static_cast<size_t>(b)],
        &plan.upper_bounds[static_cast<size_t>(b)], &window.lower,
        &window.upper}) {
    for (const int x : *bounds) {
      if (x >= 0 && x < n && (twin_mask >> x & 1u) != 0) {
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

    const bool counted =
        std::find(plan.counted_tail.begin(), plan.counted_tail.end(), u) !=
        plan.counted_tail.end();
    if (vertex_ok && !counted && plan.options.minimum_set_cover &&
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
  CheckCountedTail(p, plan, &report);

  const bool sb_structurally_ok =
      CheckPartialOrderStructure(p, plan, &report);
  if (sb_structurally_ok) {
    CheckConstraintWiring(p, plan, sigma, &report);
    CheckCompWindows(p, plan, sigma, &report);
    // The orbit check reasons about complete embeddings; a counted-tail
    // plan never materializes the tail (and running it with symmetry
    // breaking is already an iep-tail-symmetry error), so skip it there.
    if (plan.options.symmetry_breaking && !plan.HasCountedTail()) {
      CheckAutomorphismConsistency(p, plan, options, &report);
    }
  }

  CheckOperands(p, plan, sigma, options, &report);
  CheckInducedWiring(p, plan, sigma, &report);
  CheckTwinClosure(p, plan, sigma, &report);
  CheckCardinality(p, plan, options, &report);
  return report;
}

LintReport LintIepDecomposition(const Pattern& pattern,
                                const IepDecomposition& dec) {
  LintReport report;
  const int n = pattern.NumVertices();

  // --- iep-partition: kernel + tail must partition V(P), kernel non-empty.
  if (dec.kernel.empty() || dec.tail.empty()) {
    report.Add(LintSeverity::kError, "iep-partition",
               dec.kernel.empty() ? "kernel is empty"
                                  : "tail is empty (invalid decomposition)");
    return report;
  }
  std::vector<int> seen(static_cast<size_t>(n), 0);
  bool in_range = true;
  for (const std::vector<int>* part : {&dec.kernel, &dec.tail}) {
    for (const int u : *part) {
      if (u < 0 || u >= n) {
        report.Add(LintSeverity::kError, "iep-partition",
                   "vertex " + std::to_string(u) + " is out of range");
        in_range = false;
      } else {
        ++seen[static_cast<size_t>(u)];
      }
    }
  }
  if (!in_range) return report;
  for (int u = 0; u < n; ++u) {
    if (seen[static_cast<size_t>(u)] != 1) {
      report.Add(LintSeverity::kError, "iep-partition",
                 VertexName(u) + " appears " +
                     std::to_string(seen[static_cast<size_t>(u)]) +
                     " times across kernel and tail (must be exactly once)",
                 u);
    }
  }
  if (!report.ok()) return report;

  // --- iep-tail-not-independent: no pattern edge inside the tail.
  const int m = static_cast<int>(dec.tail.size());
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const int a = dec.tail[static_cast<size_t>(i)];
      const int b = dec.tail[static_cast<size_t>(j)];
      if (pattern.HasEdge(a, b)) {
        report.Add(LintSeverity::kError, "iep-tail-not-independent",
                   "tail vertices " + VertexName(a) + " and " +
                       VertexName(b) + " are adjacent",
                   a, {a, b});
      }
    }
  }

  // --- iep-kernel-disconnected.
  uint32_t kernel_mask = 0;
  for (const int u : dec.kernel) kernel_mask |= 1u << u;
  if (!pattern.InducedConnected(kernel_mask)) {
    report.Add(LintSeverity::kError, "iep-kernel-disconnected",
               "the kernel does not induce a connected sub-pattern: kernel "
               "embeddings cannot be enumerated as one component");
  }
  if (!report.ok()) return report;

  // --- iep-automorphism-count.
  const uint64_t aut = FindAutomorphisms(pattern).size();
  if (aut != dec.automorphism_count) {
    report.Add(LintSeverity::kError, "iep-automorphism-count",
               "decomposition stores |Aut(P)| = " +
                   std::to_string(dec.automorphism_count) +
                   " but the group has order " + std::to_string(aut) +
                   ": the emb(P) -> unique division is wrong");
  }

  // --- Independent re-expansion of the partition lattice. A merged vertex
  // is (kernel-neighborhood mask over kernel indices, required label); a
  // term key is the sorted multiset of its merged vertices.
  using Merged = std::pair<uint32_t, uint32_t>;
  const int k = static_cast<int>(dec.kernel.size());
  std::vector<int> old_to_kernel(static_cast<size_t>(n), -1);
  for (int i = 0; i < k; ++i) {
    old_to_kernel[static_cast<size_t>(dec.kernel[static_cast<size_t>(i)])] = i;
  }
  std::vector<Merged> tail_info(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    const int u = dec.tail[static_cast<size_t>(t)];
    uint32_t mask = 0;
    for (int w = 0; w < n; ++w) {
      if (pattern.HasEdge(u, w) && old_to_kernel[static_cast<size_t>(w)] >= 0) {
        mask |= 1u << old_to_kernel[static_cast<size_t>(w)];
      }
    }
    tail_info[static_cast<size_t>(t)] = {mask, pattern.Label(u)};
  }

  std::map<std::vector<Merged>, int64_t> expected;
  std::vector<int> assign(static_cast<size_t>(m), 0);
  auto expand = [&](auto&& self, int i, int num_blocks) -> void {
    if (i == m) {
      std::vector<Merged> key;
      key.reserve(static_cast<size_t>(num_blocks));
      int64_t coefficient = 1;
      for (int b = 0; b < num_blocks; ++b) {
        uint32_t mask = 0;
        uint32_t label = 0;
        int size = 0;
        for (int t = 0; t < m; ++t) {
          if (assign[static_cast<size_t>(t)] != b) continue;
          ++size;
          mask |= tail_info[static_cast<size_t>(t)].first;
          const uint32_t member = tail_info[static_cast<size_t>(t)].second;
          if (member == 0) continue;
          if (label != 0 && label != member) {
            coefficient = 0;  // conflicting labels: empty intersection
            break;
          }
          label = member;
        }
        if (coefficient == 0) break;
        int64_t fact = 1;
        for (int f = 2; f < size; ++f) fact *= f;
        coefficient *= (size % 2 == 1 ? 1 : -1) * fact;
        key.emplace_back(mask, label);
      }
      if (coefficient != 0) {
        std::sort(key.begin(), key.end());
        expected[key] += coefficient;
      }
      return;
    }
    for (int b = 0; b <= num_blocks; ++b) {
      assign[static_cast<size_t>(i)] = b;
      self(self, i + 1, std::max(num_blocks, b + 1));
    }
  };
  expand(expand, 0, 0);
  for (auto it = expected.begin(); it != expected.end();) {
    it = it->second == 0 ? expected.erase(it) : std::next(it);
  }

  // --- Extract the stored terms into the same key space, validating each
  // term's structure along the way.
  std::map<std::vector<Merged>, int64_t> actual;
  for (size_t ti = 0; ti < dec.terms.size(); ++ti) {
    const IepTerm& term = dec.terms[ti];
    const std::string where = "term " + std::to_string(ti);
    const int blocks = static_cast<int>(term.counted_tail.size());
    bool shape_ok = term.pattern.NumVertices() == k + blocks && blocks >= 1;
    for (int b = 0; shape_ok && b < blocks; ++b) {
      shape_ok = term.counted_tail[static_cast<size_t>(b)] == k + b;
    }
    if (!shape_ok) {
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 where + " is malformed: counted tail must be the trailing "
                         "vertices k..k+blocks-1 of the term pattern");
      continue;
    }
    if (term.coefficient == 0) {
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 where + " carries a zero coefficient (should have been "
                         "dropped)");
      continue;
    }
    bool kernel_ok = true;
    for (int i = 0; i < k && kernel_ok; ++i) {
      const int u = dec.kernel[static_cast<size_t>(i)];
      kernel_ok = term.pattern.Label(i) == pattern.Label(u);
      for (int j = i + 1; j < k && kernel_ok; ++j) {
        kernel_ok = term.pattern.HasEdge(i, j) ==
                    pattern.HasEdge(u, dec.kernel[static_cast<size_t>(j)]);
      }
    }
    if (!kernel_ok) {
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 where + "'s kernel sub-pattern differs from the induced "
                         "kernel of the original pattern");
      continue;
    }
    std::vector<Merged> key;
    bool merged_ok = true;
    const uint32_t kernel_bits = (1u << k) - 1u;  // k <= 31: blocks >= 1
    for (int b = 0; b < blocks; ++b) {
      const uint32_t neighbors = term.pattern.NeighborMask(k + b);
      if (neighbors == 0 || (neighbors & ~kernel_bits) != 0) {
        merged_ok = false;
        break;
      }
      key.emplace_back(neighbors, term.pattern.Label(k + b));
    }
    if (!merged_ok) {
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 where + "'s merged vertices must be adjacent to kernel "
                         "vertices only (and at least one)");
      continue;
    }
    std::sort(key.begin(), key.end());
    actual[key] += term.coefficient;
  }

  int reported = 0;
  for (const auto& [key, coefficient] : expected) {
    const auto it = actual.find(key);
    const int64_t got = it == actual.end() ? 0 : it->second;
    if (got != coefficient && reported < 5) {
      ++reported;
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 "a " + std::to_string(key.size()) +
                     "-block term has coefficient " + std::to_string(got) +
                     " but the partition lattice requires " +
                     std::to_string(coefficient));
    }
  }
  for (const auto& [key, coefficient] : actual) {
    if (expected.find(key) == expected.end() && reported < 5) {
      ++reported;
      report.Add(LintSeverity::kError, "iep-term-mismatch",
                 "a " + std::to_string(key.size()) +
                     "-block term (coefficient " +
                     std::to_string(coefficient) +
                     ") does not arise from any partition of the tail");
    }
  }

  // --- Falling-factorial identity. Substituting a common candidate count x
  // for every |C| turns the signed term sum into
  //   sum_theta mu(theta) x^{#blocks(theta)},
  // which by Mobius inversion equals the number of injective tail
  // placements x (x-1) ... (x-|S|+1). Both sides are degree-|S|
  // polynomials, so agreement at |S|+3 points proves the identity. Label
  // conflicts legitimately drop partitions (their blocks intersect to the
  // empty set for EVERY x), so the identity only binds label-compatible
  // tails.
  bool droppable = false;
  for (int i = 0; i < m && !droppable; ++i) {
    for (int j = i + 1; j < m && !droppable; ++j) {
      const uint32_t a = tail_info[static_cast<size_t>(i)].second;
      const uint32_t b = tail_info[static_cast<size_t>(j)].second;
      droppable = a != 0 && b != 0 && a != b;
    }
  }
  if (droppable) {
    report.Add(LintSeverity::kInfo, "iep-sum-skipped",
               "falling-factorial identity skipped: conflicting tail labels "
               "legitimately dropped partition terms");
  } else {
    for (int64_t x = 0; x <= m + 2; ++x) {
      int64_t lhs = 0;
      for (const auto& [key, coefficient] : actual) {
        int64_t power = 1;
        for (size_t b = 0; b < key.size(); ++b) power *= x;
        lhs += coefficient * power;
      }
      int64_t rhs = 1;
      for (int64_t f = 0; f < m; ++f) rhs *= x - f;
      if (lhs != rhs) {
        report.Add(LintSeverity::kError, "iep-sum-inexact",
                   "sign-weighted term sum at x = " + std::to_string(x) +
                       " is " + std::to_string(lhs) +
                       " but x(x-1)...(x-|S|+1) = " + std::to_string(rhs) +
                       ": the inclusion-exclusion closure is not exact");
        break;
      }
    }
  }
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
