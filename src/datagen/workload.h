#ifndef GSR_DATAGEN_WORKLOAD_H_
#define GSR_DATAGEN_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/geosocial_network.h"
#include "core/range_reach.h"
#include "core/update_log.h"
#include "spatial/frozen_rtree.h"

namespace gsr {

/// An out-degree bucket for query-vertex selection (Section 6.1).
struct DegreeBucket {
  uint32_t lo = 1;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
  std::string label;
};

/// The paper's parameter grids: degree buckets {[1-49], [50-99], [100-149],
/// [150-199], [200-...]}, region extents {1, 2, 5, 10, 20}% of the space,
/// spatial selectivities {0.001, 0.01, 0.1, 1}% of |V|.
std::vector<DegreeBucket> PaperDegreeBuckets();
std::vector<double> PaperExtents();
std::vector<double> PaperSelectivities();

/// Defaults (bold values in the paper's setup): extent 5%, bucket [50-99].
inline constexpr double kDefaultExtentPercent = 5.0;
inline constexpr uint32_t kDefaultDegreeLo = 50;
inline constexpr uint32_t kDefaultDegreeHi = 99;

/// What each query of a workload computes. kBool/kCount/kEnum map onto
/// QueryKind (same vertex+region shape, different result); kAnyOfK is the
/// multi-source AnyReach workload ("do any of my k friends reach R"),
/// generated via GenerateAnyReach.
enum class WorkloadKind : uint8_t { kBool, kCount, kEnum, kAnyOfK };

/// Lower-case name, for CLI flags and bench JSON ("bool", "count",
/// "enum", "any_of_k").
const char* WorkloadKindName(WorkloadKind kind);

/// Inverse of WorkloadKindName; returns false on an unknown name.
bool ParseWorkloadKind(const std::string& name, WorkloadKind* out);

/// One stratum of a selectivity-mixed workload: regions of this extent
/// are drawn with probability weight / sum(weights).
struct SelectivityStratum {
  double weight = 1.0;
  /// Region area as a percentage of the whole space area.
  double extent_percent = kDefaultExtentPercent;
};

/// The planner-bench mix: mostly tiny point-ish lookups, some mid-size
/// regions, a tail of huge scans — the spread where no fixed method wins
/// every stratum (tiny favors SpaReach, huge favors SocReach/3DReach).
std::vector<SelectivityStratum> DefaultMixedStrata();

/// What one batch of queries should look like.
struct QuerySpec {
  uint32_t count = 1000;
  /// Query-vertex out-degree range (inclusive), per the original graph.
  uint32_t min_out_degree = kDefaultDegreeLo;
  uint32_t max_out_degree = kDefaultDegreeHi;
  /// Region area as a percentage of the whole space area. Ignored when
  /// selectivity_percent >= 0.
  double extent_percent = kDefaultExtentPercent;
  /// When >= 0: size regions so that about this percentage of |V| vertices
  /// (counted over spatial vertices) fall inside, regardless of area.
  double selectivity_percent = -1.0;
  /// When non-empty: each fresh region draws a stratum by weight and uses
  /// its extent, overriding extent_percent/selectivity_percent. The draw
  /// comes from the generator's seeded Rng, so a given seed reproduces
  /// the identical mixed batch.
  std::vector<SelectivityStratum> strata;
  /// When > 0, query vertices follow a Zipf(theta) rank distribution over
  /// the degree bucket (rank = position in the bucket's vertex list)
  /// instead of the paper's uniform draw — the skewed production feed the
  /// work-sharing scheduler targets. 0 keeps the uniform choice.
  double vertex_zipf = 0.0;
  /// When > 0, each query vertex draws its region from a per-vertex pool
  /// of at most this many regions (generated on first use), the way real
  /// users re-issue the same few query shapes. Hot vertices then repeat
  /// identical regions, which is what grouped execution dedups. 0 keeps a
  /// fresh region per query.
  uint32_t regions_per_vertex = 0;
  /// What each query computes. Generate() ignores this (the
  /// vertex/region draw is kind-independent, so one batch can be replayed
  /// under every kind); GenerateAnyReach() requires kAnyOfK.
  WorkloadKind kind = WorkloadKind::kBool;
  /// Sources per AnyReach query (the "k friends"); kAnyOfK only.
  uint32_t any_k = 4;
};

/// Shape of one streaming-update workload: `count` updates drawn from the
/// kind mix (weights are normalized internally; a zero weight drops that
/// kind). The defaults model a production geosocial feed — check-ins
/// dominate, friendship churn is steady, vertex arrivals and check-outs
/// are rare, deletes are rarer than inserts.
struct UpdateStreamSpec {
  uint32_t count = 1000;
  double add_vertex_weight = 0.10;
  double set_point_weight = 0.45;   // Check-ins: move or gain a point.
  double clear_point_weight = 0.05; // Check-outs.
  double insert_edge_weight = 0.30;
  double delete_edge_weight = 0.10;
  /// Fraction of added vertices that arrive with a point (venues).
  double spatial_fraction = 0.7;
  /// Each new vertex immediately draws this many edges to/from existing
  /// vertices (so arrivals join the reachable graph instead of floating).
  uint32_t edges_per_new_vertex = 2;
};

/// Generates one reproducible update stream against a fixed network:
/// points are drawn inside the network's space bounds, edge endpoints
/// track the growing vertex set (arrivals can immediately gain edges and
/// later updates can reference them), and deletes target live edges —
/// base edges or ones the stream itself inserted. The stream is valid by
/// construction: replaying it through DynamicRangeReach::Apply or
/// MaterializeNetwork never errors.
std::vector<Update> GenerateUpdateStream(const GeoSocialNetwork& network,
                                         const UpdateStreamSpec& spec,
                                         uint64_t seed);

/// Generates RangeReach query batches against a fixed network. Regions are
/// square, centered at random locations inside the space (extent mode) or
/// at random venue points grown to a target cardinality (selectivity
/// mode). Query vertices are sampled uniformly from the requested
/// out-degree bucket; when a bucket is empty on a small network, the
/// vertices with the closest out-degrees are used instead.
class WorkloadGenerator {
 public:
  /// Binds to `network`, which must outlive the generator.
  WorkloadGenerator(const GeoSocialNetwork* network, uint64_t seed);

  /// Generates `spec.count` queries.
  std::vector<RangeReachQuery> Generate(const QuerySpec& spec);

  /// Generates `spec.count` multi-source AnyReach queries: each draws
  /// `spec.any_k` distinct sources from the degree bucket (Zipf-skewed
  /// when spec.vertex_zipf > 0) and one region. Pooled regions
  /// (regions_per_vertex mode) key off the first source, so a hot user's
  /// friend-set queries repeat the same few shapes the way boolean
  /// workloads do. Requires spec.kind == WorkloadKind::kAnyOfK.
  std::vector<AnyReachQuery> GenerateAnyReach(const QuerySpec& spec);

  /// A square region of the given area percentage at a random center.
  Rect RandomRegionByExtent(double extent_percent);

  /// A square region containing approximately
  /// `selectivity_percent / 100 * num_vertices` spatial vertices.
  Rect RandomRegionBySelectivity(double selectivity_percent);

  /// A random vertex with out-degree in [lo, hi] (with fallback, see
  /// class comment).
  VertexId RandomVertexWithDegree(uint32_t lo, uint32_t hi);

 private:
  const std::vector<VertexId>& BucketVertices(uint32_t lo, uint32_t hi);

  /// A vertex from the bucket at Zipf(theta)-distributed rank.
  VertexId ZipfVertexWithDegree(uint32_t lo, uint32_t hi, double theta);

  /// The region for `vertex` under `spec`: pooled when
  /// spec.regions_per_vertex > 0, fresh otherwise.
  Rect RegionFor(VertexId vertex, const QuerySpec& spec);

  const GeoSocialNetwork* network_;
  Rng rng_;
  FrozenRTreePoints2D points_rtree_;  // Exact selectivity counting.
  // Cache of degree-bucket vertex lists, keyed by (lo, hi).
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, std::vector<VertexId>>>
      bucket_cache_;
  // Zipf cumulative weights, keyed by (bucket size, theta); reused across
  // queries so a batch costs one CDF build.
  std::vector<std::pair<std::pair<size_t, double>, std::vector<double>>>
      zipf_cache_;
  // Per-vertex region pools (regions_per_vertex mode), filled lazily.
  std::unordered_map<VertexId, std::vector<Rect>> region_pools_;
};

}  // namespace gsr

#endif  // GSR_DATAGEN_WORKLOAD_H_
