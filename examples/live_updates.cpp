// Live updates (the paper's Section-8 future-work scenario): venues open,
// users check in and follow each other while RangeReach queries keep
// running. DynamicRangeReach layers a small delta overlay on top of the
// 3DReach base index and stays exact; Rebuild() folds the overlay back in.
// Queries read a snapshot of the live network through an EpochView.
//
// Run:  ./build/examples/live_updates

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/dynamic_range_reach.h"
#include "datagen/generator.h"
#include "exec/streaming_engine.h"

int main() {
  using namespace gsr;  // NOLINT

  GeneratorConfig config;
  config.name = "live-city";
  config.num_users = 3000;
  config.num_venues = 6000;
  config.num_friendships = 20000;
  config.num_checkins = 40000;
  config.core_fraction = 0.7;
  config.space_extent = 100.0;
  config.seed = 99;
  DynamicRangeReach dynamic(GenerateGeoSocialNetwork(config));
  std::printf("base network indexed: %u vertices\n", dynamic.num_vertices());

  const Rect new_mall_area(60, 60, 70, 70);
  Rng rng(123);

  // A fresh district opens: 20 new venues, each discovered by a few users.
  std::vector<VertexId> new_venues;
  for (int i = 0; i < 20; ++i) {
    const auto venue = dynamic.Apply(Update::AddVertex(
        Point2D{rng.NextDoubleInRange(60, 70), rng.NextDoubleInRange(60, 70)}));
    if (!venue.ok()) return 1;
    new_venues.push_back(*venue);
    for (int c = 0; c < 3; ++c) {
      const VertexId user =
          static_cast<VertexId>(rng.NextBounded(config.num_users));
      if (!dynamic.Apply(Update::InsertEdge(user, *venue)).ok()) return 1;
    }
  }
  std::printf("applied %zu live updates (no rebuild yet)\n",
              dynamic.pending_updates());

  // Queries remain exact against the overlay.
  const exec::EpochView overlay(dynamic.Snapshot(), /*epoch=*/1);
  auto scratch = overlay.NewScratch();
  uint32_t reach_before_rebuild = 0;
  Stopwatch watch;
  for (VertexId user = 0; user < 1000; ++user) {
    if (overlay.Evaluate(user, new_mall_area, *scratch)) {
      ++reach_before_rebuild;
    }
  }
  const double overlay_micros = watch.ElapsedMicros() / 1000.0;
  std::printf("%u/1000 users already reach the new district "
              "(%.2f us/query on the overlay)\n",
              reach_before_rebuild, overlay_micros);

  // Fold the delta into a fresh base index.
  watch.Restart();
  dynamic.Rebuild();
  std::printf("rebuild folded the delta in %.1f ms\n", watch.ElapsedMillis());

  // A scratch from one view of the engine serves its later views.
  const exec::EpochView rebuilt(dynamic.Snapshot(), /*epoch=*/2);
  watch.Restart();
  uint32_t reach_after_rebuild = 0;
  for (VertexId user = 0; user < 1000; ++user) {
    if (rebuilt.Evaluate(user, new_mall_area, *scratch)) ++reach_after_rebuild;
  }
  const double base_micros = watch.ElapsedMicros() / 1000.0;
  std::printf("%u/1000 users after rebuild (%.2f us/query at base speed)\n",
              reach_after_rebuild, base_micros);

  if (reach_before_rebuild != reach_after_rebuild) {
    std::fprintf(stderr, "answers changed across rebuild - bug!\n");
    return 1;
  }
  std::printf("overlay answers and rebuilt answers agree.\n");
  return 0;
}
