// Geo-advertising (the paper's second motivating application): pick the
// best location for a new shop or event by measuring, for each candidate
// area, how many high-influence users have direct or indirect activity
// there. Each (user, area) pair is one RangeReach query; the candidate
// reachable by the most influencers wins. Every printed venue count is
// checked against SocReach's venue list, and the example exits 1 if they
// differ.
//
// Run:  ./build/examples/geo_advertising

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/condensed_network.h"
#include "core/soc_reach.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"
#include "datagen/workload.h"

int main() {
  using namespace gsr;  // NOLINT

  GeneratorConfig config;
  config.name = "ads-city";
  config.num_users = 8000;
  config.num_venues = 15000;
  config.num_friendships = 60000;
  config.num_checkins = 90000;
  config.core_fraction = 0.5;
  config.space_extent = 50.0;
  config.seed = 7;
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
  const CondensedNetwork cn(&network);
  const ThreeDReach index(&cn);

  // Influencers: the users with the highest out-degree (most follows and
  // check-ins radiating outwards).
  std::vector<VertexId> influencers;
  for (VertexId v = 0; v < config.num_users; ++v) {
    if (network.graph().OutDegree(v) >= 100) influencers.push_back(v);
  }
  std::printf("found %zu influencers (out-degree >= 100)\n",
              influencers.size());

  // Candidate locations: a 5x5 grid of equally sized areas over the city.
  struct Candidate {
    Rect area;
    uint64_t reach = 0;
  };
  std::vector<Candidate> candidates;
  const Rect space = network.SpaceBounds();
  const double cell_w = space.Width() / 5.0;
  const double cell_h = space.Height() / 5.0;
  for (int ix = 0; ix < 5; ++ix) {
    for (int iy = 0; iy < 5; ++iy) {
      const double x0 = space.min_x + ix * cell_w;
      const double y0 = space.min_y + iy * cell_h;
      candidates.push_back({Rect(x0, y0, x0 + cell_w, y0 + cell_h), 0});
    }
  }

  // Score every candidate by the number of influencers that geosocially
  // reach it. An explicit scratch keeps this hot loop off the method-owned
  // default scratch the convenience overload shares.
  const std::unique_ptr<QueryScratch> scratch = index.NewScratch();
  for (Candidate& candidate : candidates) {
    for (const VertexId influencer : influencers) {
      if (index.Evaluate(influencer, candidate.area, *scratch)) {
        ++candidate.reach;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.reach > b.reach;
            });

  // The most-followed influencer anchors a depth metric for the ranking:
  // RangeReachCount gives the number of distinct venues their circle
  // touches in each winning area — "reached" areas are not all equal.
  VertexId top_influencer = influencers.empty() ? 0 : influencers.front();
  for (const VertexId v : influencers) {
    if (network.graph().OutDegree(v) >
        network.graph().OutDegree(top_influencer)) {
      top_influencer = v;
    }
  }

  // A second method, with no spatial index, lists the same venues.
  const SocReach soc(&cn);
  const std::unique_ptr<QueryScratch> soc_scratch = soc.NewScratch();
  std::vector<VertexId> soc_venues;
  uint64_t mismatches = 0;
  std::printf("top 5 advertising locations (of %zu candidates):\n",
              candidates.size());
  for (size_t i = 0; i < 5 && i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const uint64_t depth =
        index.EvaluateCount(top_influencer, c.area, *scratch);
    soc.EvaluateEnumInto(top_influencer, c.area, *soc_scratch, soc_venues);
    mismatches += (depth != soc_venues.size());
    std::printf("  %zu. area [%.1f,%.1f]x[%.1f,%.1f]  reached by %llu/%zu "
                "influencers; top influencer touches %llu venues there\n",
                i + 1, c.area.min_x, c.area.max_x, c.area.min_y, c.area.max_y,
                static_cast<unsigned long long>(c.reach), influencers.size(),
                static_cast<unsigned long long>(depth));
  }
  const uint64_t queries =
      static_cast<uint64_t>(candidates.size()) * influencers.size();
  std::printf("answered %llu RangeReach queries over a %zu-byte index\n",
              static_cast<unsigned long long>(queries),
              index.IndexSizeBytes());
  if (mismatches != 0) {
    std::fprintf(stderr, "%llu venue counts differ from SocReach - bug!\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  std::printf("venue counts agree with SocReach\n");
  return 0;
}
