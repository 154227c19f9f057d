#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"

namespace light {
namespace {

TEST(GraphBuilderTest, BuildsSortedCsr) {
  const Graph g = GraphBuilder::FromEdges({{3, 1}, {0, 1}, {2, 0}, {1, 2}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  for (VertexID v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(3, 1));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  const Graph g = GraphBuilder::FromEdges(
      {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphBuilderTest, VertexHintCreatesIsolatedVertices) {
  GraphBuilder builder(10);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder(3);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphTest, MemoryBytesMatchesCsrFootprint) {
  const Graph g = Complete(10);
  EXPECT_EQ(g.MemoryBytes(),
            11 * sizeof(EdgeID) + 90 * sizeof(VertexID));
}

TEST(ReorderTest, DegreeOrderHolds) {
  const Graph g = BarabasiAlbert(200, 3, /*seed=*/1);
  std::vector<VertexID> old_to_new;
  const Graph r = RelabelByDegree(g, &old_to_new);
  EXPECT_TRUE(IsDegreeOrdered(r));
  EXPECT_EQ(r.NumVertices(), g.NumVertices());
  EXPECT_EQ(r.NumEdges(), g.NumEdges());
  // Permutation property.
  std::vector<bool> seen(old_to_new.size(), false);
  for (VertexID id : old_to_new) {
    ASSERT_LT(id, r.NumVertices());
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
  // Edges preserved under the relabeling.
  for (VertexID u = 0; u < g.NumVertices(); ++u) {
    for (VertexID v : g.Neighbors(u)) {
      EXPECT_TRUE(r.HasEdge(old_to_new[u], old_to_new[v]));
    }
  }
}

TEST(ReorderTest, TieBreakByOldId) {
  // All degrees equal: relabeling must preserve ID order.
  const Graph g = Cycle(6);
  std::vector<VertexID> old_to_new;
  const Graph r = RelabelByDegree(g, &old_to_new);
  for (VertexID v = 0; v < 6; ++v) EXPECT_EQ(old_to_new[v], v);
  (void)r;
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  const Graph g = ErdosRenyi(64, 200, /*seed=*/9);
  const std::string path = ::testing::TempDir() + "/roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadEdgeList(path, &loaded).ok());
  EXPECT_EQ(loaded.NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.neighbors(), g.neighbors());
  std::remove(path.c_str());
}

TEST(GraphIoTest, EdgeListSkipsComments) {
  const std::string path = ::testing::TempDir() + "/comments.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# comment line\n% another\n0 1\n1 2\n\n", f);
  fclose(f);
  Graph g;
  ASSERT_TRUE(LoadEdgeList(path, &g).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MalformedEdgeListRejected) {
  const std::string path = ::testing::TempDir() + "/bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("0 1\nnot an edge\n", f);
  fclose(f);
  Graph g;
  const Status status = LoadEdgeList(path, &g);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  Graph g;
  EXPECT_EQ(LoadEdgeList("/nonexistent/file.txt", &g).code(),
            Status::Code::kIOError);
}

TEST(GraphIoTest, BinaryRejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/notlcsr.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("XXXXGARBAGE", f);
  fclose(f);
  Graph g;
  EXPECT_FALSE(LoadStoreFile(path, &g).ok());
  EXPECT_FALSE(LoadAuto(path, &g).ok());
  std::remove(path.c_str());
}

TEST(GraphStatsTest, CompleteGraphStats) {
  const Graph g = Complete(8);
  const GraphStats stats = ComputeGraphStats(g, /*count_triangles=*/true);
  EXPECT_EQ(stats.num_vertices, 8u);
  EXPECT_EQ(stats.num_edges, 28u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 7.0);
  EXPECT_DOUBLE_EQ(stats.degree_second_moment, 49.0);
  EXPECT_EQ(stats.num_triangles, 56u);  // C(8,3)
  EXPECT_DOUBLE_EQ(stats.closing_probability, 1.0);
}

TEST(GraphStatsTest, TriangleFreeGraph) {
  const Graph g = Cycle(10);
  const GraphStats stats = ComputeGraphStats(g, /*count_triangles=*/true);
  EXPECT_EQ(stats.num_triangles, 0u);
  EXPECT_DOUBLE_EQ(stats.closing_probability, 0.0);
}

TEST(GraphStatsTest, TriangleCountMatchesKnownGraphs) {
  EXPECT_EQ(CountTriangles(Complete(5)), 10u);
  EXPECT_EQ(CountTriangles(Cycle(5)), 0u);
  EXPECT_EQ(CountTriangles(GraphBuilder::FromEdges(
                {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 0}})),
            2u);  // triangle 0-1-2 and triangle 0-2-3
}

}  // namespace
}  // namespace light
