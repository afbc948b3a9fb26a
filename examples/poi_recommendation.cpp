// Points-of-Interest recommendation (the paper's first motivating
// application): "are there restaurants in this part of the city that my
// friends, or friends of my friends, have visited?" RangeReachEnum
// answers with the venues themselves — one reachability pass per
// district, instead of the one-boolean-probe-per-venue loop an app would
// otherwise write. Every venue list is checked against SpaReach-BFL's. We
// then compare the paper's 3DReach against the SpaReach-BFL baseline on
// the same boolean workload and report the answers and the speedup; the
// example exits 1 if the two methods disagree anywhere.
//
// Run:  ./build/examples/poi_recommendation

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/condensed_network.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"

int main() {
  using namespace gsr;  // NOLINT

  // A mid-sized city: 4k users, 10k venues clustered around 12 hot spots.
  GeneratorConfig config;
  config.name = "poi-city";
  config.num_users = 4000;
  config.num_venues = 10000;
  config.num_friendships = 30000;
  config.num_checkins = 60000;
  config.core_fraction = 0.6;
  config.num_clusters = 12;
  config.space_extent = 100.0;  // 100 x 100 city grid.
  config.seed = 2025;
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
  std::printf("city network: %u vertices, %llu edges, %llu venues\n",
              network.num_vertices(),
              static_cast<unsigned long long>(network.num_edges()),
              static_cast<unsigned long long>(network.num_spatial_vertices()));

  const CondensedNetwork cn(&network);
  const ThreeDReach threed(&cn);
  const SpaReachBfl spareach(&cn);

  // Four named districts of the city.
  struct District {
    const char* name;
    Rect area;
  };
  const std::vector<District> districts = {
      {"old town", Rect(10, 10, 30, 30)},
      {"harbor", Rect(70, 5, 95, 25)},
      {"university", Rect(40, 60, 60, 80)},
      {"suburbs", Rect(0, 85, 15, 100)},
  };

  // Recommend venues to the first few users: RangeReachEnum returns the
  // actual venues the user's (transitive) social circle has visited in a
  // district — one reachability pass per district, where the boolean API
  // could only say "somewhere in old town". The arena is reused across
  // queries, so steady state allocates nothing.
  // Explicit scratches keep the hot loops off the method-owned default
  // scratch (a shared mutable the convenience API uses).
  const std::unique_ptr<QueryScratch> scratch = threed.NewScratch();
  const std::unique_ptr<QueryScratch> spareach_scratch =
      spareach.NewScratch();
  std::vector<VertexId> venues;
  std::vector<VertexId> spareach_venues;
  uint64_t enum_mismatches = 0;
  for (VertexId user = 0; user < 5; ++user) {
    std::printf("user %u can ask friends about:", user);
    bool any = false;
    for (const District& district : districts) {
      threed.EvaluateEnumInto(user, district.area, *scratch, venues);
      spareach.EvaluateEnumInto(user, district.area, *spareach_scratch,
                                spareach_venues);
      enum_mismatches += (venues != spareach_venues);
      if (!venues.empty()) {
        std::printf(" %s (%zu venues, e.g. #%u)", district.name,
                    venues.size(), venues.front());
        any = true;
      }
    }
    std::printf("%s\n", any ? "" : " (no districts - lonely user)");
  }
  std::printf("venue lists %s SpaReach-BFL's (%llu of %zu differ)\n",
              enum_mismatches == 0 ? "agree with" : "DIFFER from",
              static_cast<unsigned long long>(enum_mismatches),
              5 * districts.size());

  // Same workload through both methods: answers must agree; time differs.
  uint64_t agree = 0;
  uint64_t total = 0;
  Stopwatch threed_watch;
  double threed_micros = 0.0;
  double spareach_micros = 0.0;
  for (VertexId user = 0; user < 500; ++user) {
    for (const District& district : districts) {
      threed_watch.Restart();
      const bool a = threed.Evaluate(user, district.area, *scratch);
      threed_micros += threed_watch.ElapsedMicros();
      threed_watch.Restart();
      const bool b =
          spareach.Evaluate(user, district.area, *spareach_scratch);
      spareach_micros += threed_watch.ElapsedMicros();
      agree += (a == b);
      ++total;
    }
  }
  std::printf("\n%llu/%llu answers agree between 3DReach and SpaReach-BFL\n",
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(total));
  std::printf("3DReach: %.2f us/query, SpaReach-BFL: %.2f us/query\n",
              threed_micros / static_cast<double>(total),
              spareach_micros / static_cast<double>(total));
  return agree == total && enum_mismatches == 0 ? 0 : 1;
}
