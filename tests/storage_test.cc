// GraphStore: the one storage engine. Heap/mmap opens over one .lcsr2
// snapshot must be observationally identical (bit-identical counts),
// format sniffing must reject garbage with structured errors, and the
// sharing contracts (one mapping, one bitmap cache across Sessions) must
// hold. The Graph explicit-move regression test pins the fix for the
// defaulted-move bug class the old DiskGraph had.

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "light.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"
#include "storage/graph_store.h"

namespace light {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A store is shared immutable state: copying or moving it would re-open the
// door to the dangling-resource bugs the old movable DiskGraph had.
static_assert(!std::is_copy_constructible_v<GraphStore>);
static_assert(!std::is_copy_assignable_v<GraphStore>);
static_assert(!std::is_move_constructible_v<GraphStore>);
static_assert(!std::is_move_assignable_v<GraphStore>);

Graph TestGraph() {
  return RelabelByDegree(BarabasiAlbertClustered(400, 5, 0.4, 11));
}

uint64_t CountOn(GraphView view, const Graph& plan_graph,
                 const std::string& pattern_name) {
  Pattern pattern;
  EXPECT_TRUE(FindPattern(pattern_name, &pattern).ok());
  const GraphStats stats = ComputeGraphStats(plan_graph);
  const ExecutionPlan plan =
      BuildPlan(pattern, plan_graph, stats, PlanOptions::Light());
  Enumerator enumerator(view, plan);
  return enumerator.Count();
}

TEST(GraphStoreTest, HeapAndMmapCountIdentically) {
  const Graph g = TestGraph();
  const std::string path = TempPath("modes.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  const uint64_t expected = CountOn(GraphView(g), g, "P1");
  ASSERT_GT(expected, 0u);

  for (const GraphStore::Mode mode :
       {GraphStore::Mode::kHeap, GraphStore::Mode::kMmap}) {
    GraphStore::OpenOptions options;
    options.mode = mode;
    std::shared_ptr<const GraphStore> store;
    ASSERT_TRUE(GraphStore::Open(path, options, &store).ok())
        << GraphStore::ModeName(mode);
    EXPECT_EQ(store->NumVertices(), g.NumVertices());
    EXPECT_EQ(store->NumEdges(), g.NumEdges());
    EXPECT_EQ(store->MaxDegree(), g.MaxDegree());
    EXPECT_EQ(CountOn(store->view(), g, "P1"), expected)
        << GraphStore::ModeName(mode);
  }
  std::remove(path.c_str());
}

TEST(GraphStoreTest, BytesMappedAndModeMetadata) {
  const Graph g = TestGraph();
  const std::string path = TempPath("meta.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  EXPECT_EQ(store->mode(), GraphStore::Mode::kMmap);
  EXPECT_GT(store->bytes_mapped(), 0u);
  EXPECT_NE(store->graph(), nullptr);  // mmap has a resident (borrowed) Graph
  EXPECT_STREQ(GraphStore::ModeName(store->mode()), "mmap");

  options.mode = GraphStore::Mode::kHeap;
  std::shared_ptr<const GraphStore> heap;
  ASSERT_TRUE(GraphStore::Open(path, options, &heap).ok());
  EXPECT_EQ(heap->bytes_mapped(), 0u);
  EXPECT_NE(heap->graph(), nullptr);
  EXPECT_STREQ(GraphStore::ModeName(heap->mode()), "heap");
  std::remove(path.c_str());
}

TEST(GraphStoreTest, ParseModeRoundTrips) {
  GraphStore::Mode mode;
  EXPECT_TRUE(GraphStore::ParseMode("heap", &mode));
  EXPECT_EQ(mode, GraphStore::Mode::kHeap);
  EXPECT_TRUE(GraphStore::ParseMode("mmap", &mode));
  EXPECT_EQ(mode, GraphStore::Mode::kMmap);
  // The user-space paged mode is gone; its name is an unknown mode now.
  EXPECT_FALSE(GraphStore::ParseMode("paged", &mode));
  EXPECT_FALSE(GraphStore::ParseMode("disk", &mode));
  EXPECT_FALSE(GraphStore::ParseMode("", &mode));
}

TEST(GraphStoreTest, MmapRequiresLcsr2) {
  const Graph g = TestGraph();
  const std::string path = TempPath("edges.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  EXPECT_FALSE(GraphStore::Open(path, options, &store).ok());
  // Heap mode sniffs and accepts an edge list.
  options.mode = GraphStore::Mode::kHeap;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  EXPECT_EQ(store->NumVertices(), g.NumVertices());
  std::remove(path.c_str());
}

TEST(GraphStoreTest, LabelsRoundTripThroughEveryMode) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 0);
  const Graph g = builder.Build();
  const std::vector<uint32_t> labels = {7, 1, 7, 1, 7, 1};
  const std::string path = TempPath("labeled.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path, &labels).ok());

  for (const GraphStore::Mode mode :
       {GraphStore::Mode::kHeap, GraphStore::Mode::kMmap}) {
    GraphStore::OpenOptions options;
    options.mode = mode;
    std::shared_ptr<const GraphStore> store;
    ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
    ASSERT_EQ(store->labels().size(), labels.size())
        << GraphStore::ModeName(mode);
    for (size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(store->labels()[i], labels[i]) << GraphStore::ModeName(mode);
    }
  }
  std::remove(path.c_str());
}

// Page-boundary-straddling neighbor lists and zero-degree vertices: a
// skewed graph with one hub whose adjacency (2999 * 4 B) spans several
// 4 KiB pages of the mapping, plus isolated tail vertices that the CSR must
// keep (degree 0).
TEST(GraphStoreTest, MmapHandlesStraddlingAndZeroDegreeVertices) {
  GraphBuilder builder(3100);
  for (VertexID v = 1; v < 3000; ++v) builder.AddEdge(0, v);  // hub
  for (VertexID v = 1; v < 2999; ++v) builder.AddEdge(v, v + 1);
  // Vertices 3000..3099 stay isolated.
  const Graph g = builder.Build();
  ASSERT_EQ(g.Degree(3099), 0u);

  const std::string path = TempPath("straddle.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  const GraphView view = store->view();
  EXPECT_EQ(view.Degree(0), 2999u);
  EXPECT_EQ(view.Degree(3099), 0u);
  const std::span<const VertexID> hub = view.Neighbors(0);
  ASSERT_EQ(hub.size(), 2999u);
  for (uint32_t i = 0; i < 2999; ++i) ASSERT_EQ(hub[i], i + 1);
  EXPECT_TRUE(view.Neighbors(3099).empty());
  EXPECT_TRUE(view.HasEdge(0, 2999));
  EXPECT_FALSE(view.HasEdge(0, 3000));

  EXPECT_EQ(CountOn(view, g, "triangle"), CountOn(GraphView(g), g, "triangle"));
  std::remove(path.c_str());
}

TEST(GraphStoreTest, MultiThreadedParallelCountOverMmapStore) {
  const Graph g = TestGraph();
  const std::string path = TempPath("mt.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const GraphStats stats = ComputeGraphStats(g);
  const ExecutionPlan plan = BuildPlan(p1, g, stats, PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  // Four workers fault and read the shared mapping concurrently.
  ParallelOptions popts;
  popts.num_threads = 4;
  const ParallelResult result = ParallelCount(store->view(), plan, popts);
  EXPECT_EQ(result.num_matches, expected);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, TwoSessionsShareOneStoreAndBitmap) {
  const Graph g = TestGraph();
  const std::string path = TempPath("shared.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  const uint64_t mapped = store->bytes_mapped();
  ASSERT_GT(mapped, 0u);

  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());

  SessionOptions session_options;
  session_options.threads = 2;
  session_options.plan_options.bitmap_min_degree = 0;  // index everything
  Session a(store, session_options);
  Session b(store, session_options);

  RunOptions query;
  const RunResult ra = a.RunSync(p1, query);
  const RunResult rb = b.RunSync(p1, query);
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
  EXPECT_EQ(ra.num_matches, rb.num_matches);

  // One mapping (the store is shared, not duplicated) and one bitmap build
  // (both sessions hit the store's cache with identical options).
  EXPECT_EQ(store->bytes_mapped(), mapped);
  EXPECT_EQ(store->bitmap_cache_size(), 1u);

  const SessionStats sa = a.stats();
  EXPECT_EQ(sa.store_mode, "mmap");
  EXPECT_EQ(sa.store_bytes_mapped, mapped);

  obs::SessionReport report;
  a.FillSessionReport(&report);
  EXPECT_EQ(report.store_mode, "mmap");
  EXPECT_EQ(report.store_bytes_mapped, mapped);
  obs::SessionReport parsed;
  ASSERT_TRUE(obs::SessionReport::FromJson(report.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.store_mode, "mmap");
  EXPECT_EQ(parsed.store_bytes_mapped, mapped);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, MmapSessionCountsMatchHeapSession) {
  const Graph g = TestGraph();
  const std::string path = TempPath("mmap_session.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  SessionOptions session_options;
  session_options.threads = 2;
  Session mapped(store, session_options);
  Session heap(g, session_options);

  for (const char* name : {"triangle", "P1", "square"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const RunResult rm = mapped.RunSync(p, {});
    const RunResult rh = heap.RunSync(p, {});
    ASSERT_TRUE(rm.ok()) << name << ": " << rm.error;
    ASSERT_TRUE(rh.ok()) << name << ": " << rh.error;
    EXPECT_EQ(rm.num_matches, rh.num_matches) << name;
  }
  const SessionStats stats = mapped.stats();
  EXPECT_EQ(stats.store_mode, "mmap");
  EXPECT_EQ(stats.store_bytes_mapped, store->bytes_mapped());
  EXPECT_TRUE(heap.stats().store_mode.empty());
  std::remove(path.c_str());
}

TEST(GraphStoreTest, TimeLimitAbortsOnMmapView) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(3000, 12, 0.6, 5));
  const std::string path = TempPath("deadline.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  Pattern p6;
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  SessionOptions session_options;
  session_options.threads = 2;
  Session session(store, session_options);
  RunOptions query;
  query.time_limit_seconds = 1e-4;
  const RunResult result = session.RunSync(p6, query);
  // Either the deadline fired (partial count, structured outcome) or the
  // machine was fast enough: both are legal, but the call must return.
  if (result.outcome == QueryOutcome::kDeadlineExceeded) {
    EXPECT_TRUE(result.timed_out);
  }
  std::remove(path.c_str());
}

// Overwriting a snapshot that a live store has mapped must not change what
// that store serves: SaveStoreFile writes a temp file and renames it over
// the path, so the mapping keeps the old inode. Truncating the file in
// place instead would hand the old mapping the new bytes or SIGBUS.
TEST(GraphStoreTest, SaveStoreFileLeavesMappedSnapshotIntact) {
  const Graph old_graph = TestGraph();
  const Graph new_graph = RelabelByDegree(BarabasiAlbertClustered(60, 3, 0.3, 2));
  ASSERT_LT(new_graph.NumVertices(), old_graph.NumVertices());
  const std::string dir = ::testing::TempDir() + "/resave_dir";
  ::mkdir(dir.c_str(), 0755);  // EEXIST on a rerun is fine
  const std::string path = dir + "/resave.lcsr2";
  ASSERT_TRUE(SaveStoreFile(old_graph, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> old_store;
  ASSERT_TRUE(GraphStore::Open(path, options, &old_store).ok());
  const uint64_t old_count = CountOn(GraphView(old_graph), old_graph, "P1");
  ASSERT_EQ(CountOn(old_store->view(), old_graph, "P1"), old_count);

  ASSERT_TRUE(SaveStoreFile(new_graph, path).ok());

  // The open store still serves the old snapshot, byte for byte.
  EXPECT_EQ(old_store->NumVertices(), old_graph.NumVertices());
  EXPECT_EQ(CountOn(old_store->view(), old_graph, "P1"), old_count);

  // A fresh open sees the new snapshot.
  std::shared_ptr<const GraphStore> new_store;
  ASSERT_TRUE(GraphStore::Open(path, options, &new_store).ok());
  EXPECT_EQ(new_store->NumVertices(), new_graph.NumVertices());
  EXPECT_EQ(new_store->NumEdges(), new_graph.NumEdges());
  EXPECT_EQ(CountOn(new_store->view(), new_graph, "P1"),
            CountOn(GraphView(new_graph), new_graph, "P1"));

  // No temp file is left behind next to the snapshot.
  DIR* listing = ::opendir(dir.c_str());
  ASSERT_NE(listing, nullptr);
  int entries = 0;
  while (const dirent* entry = ::readdir(listing)) {
    if (std::strcmp(entry->d_name, ".") != 0 &&
        std::strcmp(entry->d_name, "..") != 0) {
      ++entries;
      EXPECT_STREQ(entry->d_name, "resave.lcsr2");
    }
  }
  ::closedir(listing);
  EXPECT_EQ(entries, 1);
  std::remove(path.c_str());
}

// A heap store is a private copy: it keeps serving the snapshot after the
// file is gone, and repeated open/close cycles (a server reloading its
// snapshot) all see the same graph.
TEST(GraphStoreTest, HeapStoreOutlivesItsFile) {
  const Graph g = TestGraph();
  const std::string path = TempPath("heap_copy.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  const uint64_t expected = CountOn(GraphView(g), g, "P1");

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kHeap;
  std::shared_ptr<const GraphStore> store;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
    EXPECT_EQ(CountOn(store->view(), g, "P1"), expected) << round;
  }
  std::remove(path.c_str());
  EXPECT_EQ(store->NumEdges(), g.NumEdges());
  EXPECT_EQ(store->MaxDegree(), g.MaxDegree());
  EXPECT_EQ(CountOn(store->view(), g, "P1"), expected);
  EXPECT_EQ(store->bytes_mapped(), 0u);
}

TEST(GraphStoreTest, FromGraphWrapsHeapStore) {
  const std::shared_ptr<const GraphStore> store =
      GraphStore::FromGraph(TestGraph());
  EXPECT_EQ(store->mode(), GraphStore::Mode::kHeap);
  EXPECT_NE(store->graph(), nullptr);
  Session session(store, SessionOptions{});
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const RunResult r = session.RunSync(tri, {});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.num_matches, 0u);
}

// ---------------------------------------------------------------------------
// graph_io: sniffing + structured rejection.
// ---------------------------------------------------------------------------

// Edge lists and .lcsr2 snapshots load; the retired v1 binary layout is
// still recognized by its header but rejected with a structured error.
TEST(GraphIoTest, SniffsAllThreeFormats) {
  const Graph g = TestGraph();
  const std::string edge_path = TempPath("sniff.txt");
  const std::string v1_path = TempPath("sniff.lcsr");
  const std::string v2_path = TempPath("sniff.lcsr2");
  ASSERT_TRUE(SaveEdgeList(g, edge_path).ok());
  ASSERT_TRUE(SaveStoreFile(g, v2_path).ok());
  {
    // v1 header: magic, u32 version 1, u64 n, u64 slots (no sections).
    std::ofstream f(v1_path, std::ios::binary);
    const uint32_t version = 1;
    const uint64_t zero = 0;
    f.write("LCSR", 4);
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
    f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  }

  GraphFileFormat format;
  ASSERT_TRUE(SniffGraphFormat(edge_path, &format).ok());
  EXPECT_EQ(format, GraphFileFormat::kEdgeList);
  ASSERT_TRUE(SniffGraphFormat(v2_path, &format).ok());
  EXPECT_EQ(format, GraphFileFormat::kLcsr2);
  const Status v1_status = SniffGraphFormat(v1_path, &format);
  EXPECT_EQ(v1_status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(v1_status.ToString().find("unsupported LCSR version 1"),
            std::string::npos)
      << v1_status.ToString();

  // LoadAuto round-trips the supported formats to the same graph.
  for (const std::string& path : {edge_path, v2_path}) {
    Graph loaded;
    ASSERT_TRUE(LoadAuto(path, &loaded).ok()) << path;
    EXPECT_EQ(loaded.NumVertices(), g.NumVertices()) << path;
    EXPECT_EQ(loaded.NumEdges(), g.NumEdges()) << path;
  }
  Graph loaded;
  EXPECT_FALSE(LoadAuto(v1_path, &loaded).ok());
  std::shared_ptr<const GraphStore> store;
  GraphStore::OpenOptions heap_options;
  heap_options.mode = GraphStore::Mode::kHeap;
  EXPECT_FALSE(GraphStore::Open(v1_path, heap_options, &store).ok());
  std::remove(edge_path.c_str());
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(GraphIoTest, RejectsGarbageAndTruncation) {
  GraphFileFormat format;
  Graph out;

  // Missing file: structured error, not a crash.
  EXPECT_FALSE(SniffGraphFormat(TempPath("does_not_exist"), &format).ok());

  // Empty file is ambiguous — rejected.
  const std::string empty_path = TempPath("empty.bin");
  { std::ofstream f(empty_path, std::ios::binary); }
  EXPECT_FALSE(SniffGraphFormat(empty_path, &format).ok());
  EXPECT_FALSE(LoadAuto(empty_path, &out).ok());

  // Binary garbage must not silently parse as an edge list.
  const std::string garbage_path = TempPath("garbage.bin");
  {
    std::ofstream f(garbage_path, std::ios::binary);
    const char bytes[] = {'\x00', '\x7f', '\x03', '\x1a', '\x7e', '\x01'};
    f.write(bytes, sizeof bytes);
  }
  EXPECT_FALSE(LoadAuto(garbage_path, &out).ok());

  // Truncated LCSR magic ("LC") rejects with a structured error.
  const std::string trunc_path = TempPath("trunc.bin");
  {
    std::ofstream f(trunc_path, std::ios::binary);
    f.write("LC", 2);
  }
  EXPECT_FALSE(LoadAuto(trunc_path, &out).ok());

  // A v2 snapshot chopped mid-neighbors-section rejects in every opener.
  const Graph g = TestGraph();
  const std::string cut_path = TempPath("cut.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, cut_path).ok());
  {
    std::ifstream in(cut_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream outf(cut_path, std::ios::binary | std::ios::trunc);
    outf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(LoadStoreFile(cut_path, &out).ok());
  std::shared_ptr<const GraphStore> store;
  GraphStore::OpenOptions mmap_options;
  mmap_options.mode = GraphStore::Mode::kMmap;
  EXPECT_FALSE(GraphStore::Open(cut_path, mmap_options, &store).ok());
  GraphStore::OpenOptions heap_options;
  heap_options.mode = GraphStore::Mode::kHeap;
  EXPECT_FALSE(GraphStore::Open(cut_path, heap_options, &store).ok());

  std::remove(empty_path.c_str());
  std::remove(garbage_path.c_str());
  std::remove(trunc_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(GraphIoTest, StoreFileRoundTripsExactly) {
  const Graph g = TestGraph();
  const std::string path = TempPath("roundtrip.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadStoreFile(path, &loaded).ok());
  ASSERT_EQ(loaded.NumVertices(), g.NumVertices());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.MaxDegree(), g.MaxDegree());
  const auto ga = g.NeighborsSpan();
  const auto la = loaded.NeighborsSpan();
  ASSERT_EQ(ga.size(), la.size());
  for (size_t i = 0; i < ga.size(); ++i) ASSERT_EQ(ga[i], la[i]) << i;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Graph explicit-move regression (the DiskGraph bug class): moving a Graph
// must re-anchor the borrowed-span pointers at the destination, and the
// moved-from object must be empty-but-valid, not dangling.
// ---------------------------------------------------------------------------

TEST(GraphMoveTest, MoveReanchorsPointersAndEmptiesSource) {
  Graph g = TestGraph();
  const VertexID n = g.NumVertices();
  const EdgeID m = g.NumEdges();
  const uint32_t d0 = g.Degree(0);

  Graph moved = std::move(g);
  EXPECT_EQ(moved.NumVertices(), n);
  EXPECT_EQ(moved.NumEdges(), m);
  EXPECT_EQ(moved.Degree(0), d0);
  // The span accessors must point into `moved`'s own storage.
  EXPECT_EQ(moved.OffsetsSpan().data(), moved.offsets().data());
  EXPECT_EQ(moved.NeighborsSpan().data(), moved.neighbors().data());
  // Moved-from: empty but safe to query (the old bug dereferenced null).
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);

  Graph assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.NumVertices(), n);
  EXPECT_EQ(assigned.OffsetsSpan().data(), assigned.offsets().data());
  EXPECT_EQ(moved.NumVertices(), 0u);

  // An Enumerator over the final destination still counts correctly.
  EXPECT_GT(CountOn(GraphView(assigned), assigned, "triangle"), 0u);
}

}  // namespace
}  // namespace light
