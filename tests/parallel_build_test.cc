// Parallel index construction must be a pure performance feature: every
// structure built through exec::BuildOptions / a ThreadPool has to be
// bit-identical to its serial build (STR tile boundaries are count-based,
// the sort comparator is a strict total order, and the labeling's edge
// units replay the serial processing order), and therefore every query
// answer has to agree. These tests pin that down at 1 to 8 threads;
// run them under GSR_SANITIZE=thread to check the synchronization too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/geo_reach.h"
#include "core/method_factory.h"
#include "exec/thread_pool.h"
#include "geometry/geometry.h"
#include "labeling/interval_labeling.h"
#include "spatial/frozen_rtree.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

void ExpectSameLabeling(const IntervalLabeling& serial,
                        const IntervalLabeling& parallel, unsigned threads) {
  const IntervalLabeling::Stats& a = serial.stats();
  const IntervalLabeling::Stats& b = parallel.stats();
  EXPECT_EQ(a.uncompressed_labels, b.uncompressed_labels) << threads;
  EXPECT_EQ(a.compressed_labels, b.compressed_labels) << threads;
  EXPECT_EQ(a.non_tree_edges, b.non_tree_edges) << threads;
  EXPECT_EQ(a.forest_trees, b.forest_trees) << threads;
  const FlatLabelStore& fa = serial.flat_store();
  const FlatLabelStore& fb = parallel.flat_store();
  ASSERT_EQ(fa.num_vertices(), fb.num_vertices());
  ASSERT_EQ(fa.total_intervals(), fb.total_intervals()) << threads;
  for (VertexId v = 0; v < fa.num_vertices(); ++v) {
    const auto ia = fa.Intervals(v);
    const auto ib = fb.Intervals(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "vertex " << v << " at " << threads
        << " threads: " << serial.Labels(v).ToString() << " vs "
        << parallel.Labels(v).ToString();
  }
}

class ParallelLabelingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelLabelingTest, LabelsAndStatsIdenticalAcrossThreadCounts) {
  const DiGraph g = testing::RandomDag(400, 3.0, GetParam());
  const IntervalLabeling serial = IntervalLabeling::Build(g);
  for (const unsigned threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    const IntervalLabeling parallel =
        IntervalLabeling::Build(g, IntervalLabeling::Options{}, &pool);
    ExpectSameLabeling(serial, parallel, threads);
  }
}

TEST_P(ParallelLabelingTest, CanReachAgreesOnRandomPairs) {
  const DiGraph g = testing::RandomDag(300, 2.5, GetParam() + 900);
  const IntervalLabeling serial = IntervalLabeling::Build(g);
  exec::ThreadPool pool(4);
  const IntervalLabeling parallel =
      IntervalLabeling::Build(g, IntervalLabeling::Options{}, &pool);
  Rng rng(GetParam() ^ 0x9E3779B9u);
  for (int q = 0; q < 2000; ++q) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(300));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(300));
    ASSERT_EQ(serial.CanReach(u, v), parallel.CanReach(u, v))
        << u << " -> " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelLabelingTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParallelLabelingTest, LargeTreeExercisesUnitSplitting) {
  // Trees above the split threshold (>= 1024 vertices) are decomposed into
  // root-child-subtree units plus a root completion unit; a large dense
  // DAG makes that path run while staying verifiable against serial.
  const DiGraph g = testing::RandomDag(5000, 3.0, 77);
  const IntervalLabeling serial = IntervalLabeling::Build(g);
  exec::ThreadPool pool(8);
  const IntervalLabeling parallel =
      IntervalLabeling::Build(g, IntervalLabeling::Options{}, &pool);
  ExpectSameLabeling(serial, parallel, 8);
}

template <typename BoxT, typename LeafT>
std::vector<std::byte> BuildBytes(
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    exec::ThreadPool* pool) {
  BinaryWriter writer;
  FrozenRTree<BoxT, LeafT>::Build(entries, pool).SerializeTo(writer);
  return writer.TakeBytes();
}

TEST(ParallelRTreeTest, BulkLoadIdenticalAcrossThreadCounts) {
  // 20000 entries: enough for the dim-0 round to take the parallel sort
  // and for the slab sorts and leaf packing to spread over workers.
  Rng rng(321);
  std::vector<std::pair<Point2D, uint64_t>> points;
  std::vector<std::pair<Box3D, uint64_t>> segments;
  for (uint64_t id = 0; id < 20000; ++id) {
    const double x = rng.NextDoubleInRange(0, 1000);
    const double y = rng.NextDoubleInRange(0, 1000);
    points.emplace_back(Point2D{x, y}, id);
    segments.emplace_back(
        Box3D::VerticalSegment(x, y, static_cast<double>(id % 97),
                               static_cast<double>(id % 97 + id % 13)),
        id);
  }
  const auto serial_points = BuildBytes<Rect>(points, nullptr);
  const auto serial_segments = BuildBytes<Box3D>(segments, nullptr);
  for (const unsigned threads :
       {1u, 2u, 4u, exec::ThreadPool::DefaultThreads()}) {
    exec::ThreadPool pool(threads);
    EXPECT_EQ(BuildBytes<Rect>(points, &pool), serial_points)
        << "threads " << threads;
    EXPECT_EQ(BuildBytes<Box3D>(segments, &pool), serial_segments)
        << "threads " << threads;
  }
}

TEST(ParallelCondensedNetworkTest, ComponentMbrsIdentical) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(400, 3.0, 0.5, 11);
  const CondensedNetwork serial(&network);
  exec::BuildOptions build;
  build.num_threads = 4;
  const CondensedNetwork parallel(&network, build);
  ASSERT_EQ(parallel.num_components(), serial.num_components());
  for (ComponentId c = 0; c < serial.num_components(); ++c) {
    EXPECT_EQ(parallel.MbrOf(c), serial.MbrOf(c)) << "component " << c;
  }
}

TEST(ParallelMethodBuildTest, AllMethodsAnswerLikeTheirSerialBuild) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(300, 2.5, 0.4, 23);
  const CondensedNetwork cn(&network);
  for (MethodConfig config : Figure7MethodConfigs()) {
    config.build.num_threads = 1;
    const auto serial = CreateMethod(&cn, config);
    config.build.num_threads = 8;
    const auto parallel = CreateMethod(&cn, config);
    EXPECT_EQ(parallel->IndexSizeBytes(), serial->IndexSizeBytes())
        << serial->name();

    Rng rng(23 ^ 0xABCDEF);
    for (int q = 0; q < 200; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      ASSERT_EQ(parallel->Evaluate(v, region), serial->Evaluate(v, region))
          << serial->name() << " vertex " << v << " region "
          << region.ToString();
    }
  }
}

TEST(ParallelMethodBuildTest, GeoReachClassesIdentical) {
  // GeoReach's wave-parallel SPA-graph build must classify every component
  // exactly like the serial ascending pass.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(500, 2.0, 0.6, 31);
  const CondensedNetwork cn(&network);
  const GeoReachMethod serial(&cn, GeoReachMethod::Options{});
  exec::ThreadPool pool(8);
  const GeoReachMethod parallel(&cn, GeoReachMethod::Options{}, &pool);
  const auto a = serial.CountClasses();
  const auto b = parallel.CountClasses();
  EXPECT_EQ(a.b_false, b.b_false);
  EXPECT_EQ(a.b_true, b.b_true);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(parallel.IndexSizeBytes(), serial.IndexSizeBytes());
}

}  // namespace
}  // namespace gsr
