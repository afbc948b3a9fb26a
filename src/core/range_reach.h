#ifndef GSR_CORE_RANGE_REACH_H_
#define GSR_CORE_RANGE_REACH_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/result_sink.h"
#include "geometry/geometry.h"
#include "graph/digraph.h"

namespace gsr {

/// One RangeReach(G, v, R) query: does vertex `vertex` reach any spatial
/// vertex whose point lies inside `region`? (Problem 1 of the paper.)
struct RangeReachQuery {
  VertexId vertex = 0;
  Rect region;
};

/// One multi-source AnyReach(G, S, R) query: does *any* vertex of
/// `sources` reach a spatial vertex whose point lies inside `region`?
/// The "do any of my k friends reach the region" scenario; equivalent to
/// OR-ing k RangeReach queries, which is exactly how the oracle answers
/// it (methods answer it with shared candidate scans and k-way probes).
struct AnyReachQuery {
  std::vector<VertexId> sources;
  Rect region;
};

/// The RangeReach evaluation methods of the experimental analysis
/// (Section 6.1), plus the index-free ground truth and the cost-based
/// planner that routes each query across a portfolio of them.
enum class MethodKind {
  kNaiveBfs,
  kSpaReachBfl,
  kSpaReachInt,
  kSpaReachPll,
  kSpaReachFeline,
  kGeoReach,
  kSocReach,
  kThreeDReach,
  kThreeDReachRev,
  kPlanner,
};

/// One entry past the last MethodKind, for per-kind tallies.
inline constexpr size_t kMethodKindCount =
    static_cast<size_t>(MethodKind::kPlanner) + 1;

class IntervalLabeling;
class Observations;
class QueryScratch;
class StructureIn;
class StructureOut;
struct MethodConfig;

/// Common interface of all RangeReach evaluation methods. Implementations
/// build their (immutable) index structures in their constructor.
///
/// Thread-safety contract: the scratch overload of Evaluate touches no
/// method state except through `scratch`, so it is safe to call from many
/// threads concurrently — each thread owning one scratch from NewScratch.
/// The two-argument overload is the legacy single-threaded API: it runs on
/// a method-owned scratch (DefaultScratch) and must not race with itself
/// or with counter accessors.
class RangeReachMethod {
 public:
  /// Per-query cost counters: the units of work that explain each
  /// method's cost in the paper's analysis. A method bumps only the
  /// fields of its own work; the rest stay zero. Every scratch carries
  /// one (so worker threads count without synchronization) and the
  /// method's aggregate lives on DefaultScratch.
  struct Counters {
    uint64_t queries = 0;
    /// Observation pre-check hits: whole queries for the planner, and
    /// per-candidate probes for a SpaReach planner member, settled
    /// without touching the index.
    uint64_t settled_negative = 0;
    uint64_t settled_positive = 0;
    uint64_t candidates = 0;         // SpaReach: SRange results materialized.
    uint64_t greach_calls = 0;       // SpaReach: reachability probes issued.
    uint64_t descendants = 0;        // SocReach: |D(v)| summed over queries.
    uint64_t containment_tests = 0;  // SocReach: spatial tests run.
    uint64_t range_queries = 0;      // 3DReach: cuboids issued.
    /// GeoReach: components popped by the BFS. EpochView: live-graph
    /// vertices expanded by the overlay search of risky-delta queries
    /// (0 on views whose delta is insert-only).
    uint64_t vertices_visited = 0;
    uint64_t pruned = 0;             // GeoReach: visits answered kPrune.
    /// Planner: routed queries per member kind (indexed by MethodKind).
    std::array<uint64_t, kMethodKindCount> routed{};

    Counters& operator+=(const Counters& other) {
      queries += other.queries;
      settled_negative += other.settled_negative;
      settled_positive += other.settled_positive;
      candidates += other.candidates;
      greach_calls += other.greach_calls;
      descendants += other.descendants;
      containment_tests += other.containment_tests;
      range_queries += other.range_queries;
      vertices_visited += other.vertices_visited;
      pruned += other.pruned;
      for (size_t k = 0; k < routed.size(); ++k) routed[k] += other.routed[k];
      return *this;
    }
    bool operator==(const Counters&) const = default;
  };

  virtual ~RangeReachMethod();

  /// Answers RangeReach(G, vertex, region) using `scratch` — which must
  /// come from this method's NewScratch() — for all mutable state.
  virtual bool Evaluate(VertexId vertex, const Rect& region,
                        QueryScratch& scratch) const = 0;

  /// Answers a shared-work group: every query of the group has the same
  /// query vertex, query k is (vertex, regions[k]) and its answer lands
  /// in out[k]. Groups of any size are legal; implementations chunk
  /// internally (the work-sharing scheduler caps groups at the kernel
  /// mask width, but the hook must not rely on that).
  ///
  /// The contract is strictly bit-identical answers: out[k] must equal
  /// what Evaluate(vertex, regions[k], scratch) returns, for every k.
  /// Cost *counters* may legitimately differ from the serial loop — the
  /// whole point of an override is doing less work per region (one
  /// descendant enumeration, one labeling probe, one R-tree descent for
  /// many regions). The default implementation is the serial loop, so
  /// every method is scheduler-ready; SocReach, SpaReach-INT and the two
  /// 3DReach variants override it with genuinely shared execution.
  virtual void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                             std::span<bool> out,
                             QueryScratch& scratch) const {
    for (size_t k = 0; k < regions.size(); ++k) {
      out[k] = Evaluate(vertex, regions[k], scratch);
    }
  }

  /// Delivers every distinct reachable spatial vertex inside `region` to
  /// `sink` — the collection form behind RangeReachCount/RangeReachEnum.
  /// Only count/enum sinks reach this hook (EvaluateInto routes boolean
  /// sinks through Evaluate, keeping that path bit-identical). Contract:
  /// each qualifying vertex is Add()ed exactly once, in unspecified
  /// order; callers needing the canonical ascending order sort via
  /// ResultSink::Finalize. The base implementation refuses — every real
  /// method overrides it; the default only exists so minimal test
  /// doubles that never see count/enum queries still compile.
  virtual void CollectInto(VertexId vertex, const Rect& region,
                           ResultSink& sink, QueryScratch& scratch) const {
    (void)vertex;
    (void)region;
    (void)sink;
    (void)scratch;
    throw std::logic_error(name() + " does not implement count/enum queries");
  }

  /// Grouped collection, the sink analogue of EvaluateGroup: every query
  /// shares the group's vertex, query k is (vertex, regions[k]) and its
  /// results land in sinks[k]. Same answer contract per slot as
  /// CollectInto (exactly-once delivery, unspecified order); cost
  /// counters may differ from the serial loop, the whole point of an
  /// override is one shared scan feeding many sinks. Default is the
  /// serial loop, so every method is scheduler-ready for all kinds.
  virtual void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                                std::span<ResultSink> sinks,
                                QueryScratch& scratch) const {
    for (size_t k = 0; k < regions.size(); ++k) {
      CollectInto(vertex, regions[k], sinks[k], scratch);
    }
  }

  /// Answers AnyReach(G, sources, region): true when any source reaches
  /// a spatial vertex inside the region. This short-circuiting loop over
  /// Evaluate *defines* the semantics (and is what the oracle runs);
  /// SpaReach and the 3DReach variants override it with one shared
  /// candidate collection / R-tree descent probed k ways, GeoReach with
  /// a multi-seed traversal. Empty `sources` answers false.
  virtual bool EvaluateAny(std::span<const VertexId> sources,
                           const Rect& region, QueryScratch& scratch) const {
    for (VertexId source : sources) {
      if (Evaluate(source, region, scratch)) return true;
    }
    return false;
  }

  /// Single-query sink dispatch: boolean sinks route through Evaluate
  /// (the existing optimized path, bit-identical answers), count/enum
  /// through CollectInto. Non-virtual on purpose — the kind dispatch
  /// lives in exactly one place so the boolean fast path cannot drift;
  /// BatchRunner's per-query routine (Run, and RunShared's small
  /// windows) evaluates every query through it.
  void EvaluateInto(VertexId vertex, const Rect& region, ResultSink& sink,
                    QueryScratch& scratch) const {
    if (sink.kind() == QueryKind::kBool) {
      if (Evaluate(vertex, region, scratch)) sink.MarkFound();
      return;
    }
    CollectInto(vertex, region, sink, scratch);
  }

  /// Creates a scratch for this method. One per thread.
  virtual std::unique_ptr<QueryScratch> NewScratch() const;

  /// Folds the cost counters accumulated in `scratch` into the method's
  /// aggregate (counters(), kept on DefaultScratch) and zeroes them in
  /// `scratch`, so a scratch can be drained after every batch without
  /// double counting. Calls must be serialized by the caller (BatchRunner
  /// drains worker scratches one at a time after the batch completes).
  /// No-op for the default scratch itself. The planner overrides it to
  /// fan out to its member scratches and then calls this.
  virtual void DrainScratchCounters(QueryScratch& scratch) const;

  /// The aggregate counters: serial calls on DefaultScratch plus every
  /// drained scratch. Single-threaded, like the DefaultScratch API.
  const Counters& counters() const;
  void ResetCounters() const;

  /// Answers RangeReach(G, vertex, region) on the method-owned scratch.
  /// Single-threaded convenience API; not safe for concurrent callers.
  bool Evaluate(VertexId vertex, const Rect& region) const {
    return Evaluate(vertex, region, DefaultScratch());
  }

  /// Convenience form (non-overload so derived overrides don't hide it).
  bool EvaluateQuery(const RangeReachQuery& query) const {
    return Evaluate(query.vertex, query.region);
  }

  /// Scratch form for callers that already hold one (the batch layer and
  /// hot example loops — the method-owned default scratch is a shared
  /// mutable, so hot paths should pass their own).
  bool EvaluateQuery(const RangeReachQuery& query, QueryScratch& scratch) const {
    return Evaluate(query.vertex, query.region, scratch);
  }

  /// RangeReachCount on the method-owned scratch: how many distinct
  /// spatial vertices inside `region` does `vertex` reach?
  uint64_t EvaluateCount(VertexId vertex, const Rect& region) const {
    return EvaluateCount(vertex, region, DefaultScratch());
  }

  uint64_t EvaluateCount(VertexId vertex, const Rect& region,
                         QueryScratch& scratch) const {
    ResultSink sink = ResultSink::Count();
    CollectInto(vertex, region, sink, scratch);
    return sink.count();
  }

  /// RangeReachEnum on the method-owned scratch: the reachable spatial
  /// vertices inside `region`, in canonical (ascending) order.
  std::vector<VertexId> EvaluateEnum(VertexId vertex,
                                     const Rect& region) const {
    std::vector<VertexId> out;
    EvaluateEnumInto(vertex, region, DefaultScratch(), out);
    return out;
  }

  /// Allocation-reusing enum form: `out` is cleared, filled, and sorted;
  /// steady-state callers keep its capacity across queries.
  void EvaluateEnumInto(VertexId vertex, const Rect& region,
                        QueryScratch& scratch,
                        std::vector<VertexId>& out) const {
    ResultSink sink = ResultSink::Enum(&out);
    CollectInto(vertex, region, sink, scratch);
    sink.Finalize();
  }

  /// AnyReach on the method-owned scratch.
  bool EvaluateAny(std::span<const VertexId> sources,
                   const Rect& region) const {
    return EvaluateAny(sources, region, DefaultScratch());
  }

  /// Convenience form (non-overload so derived overrides don't hide it).
  bool EvaluateAnyQuery(const AnyReachQuery& query) const {
    return EvaluateAny(query.sources, query.region, DefaultScratch());
  }

  /// The scratch behind the single-threaded API, lazily created. Its
  /// counters are the method's aggregate, which is what makes counters()
  /// reflect both serial calls and drained batch runs. The
  /// create check is a single predicted-not-taken branch, so convenience
  /// calls pay no lazy-init cost after the first (no lock, no per-call
  /// allocation) — but the scratch itself is shared mutable state, which
  /// is why hot multi-threaded paths pass an explicit NewScratch().
  QueryScratch& DefaultScratch() const;

  /// Process-unique id of this method instance, assigned at construction
  /// and never reused. Caches keyed by method (like BatchRunner's scratch
  /// cache) use it instead of the object address, which a later instance
  /// could legitimately reoccupy.
  uint64_t instance_id() const { return instance_id_; }

  /// Display name, e.g. "3DReach" or "SpaReach-BFL (mbr)".
  virtual std::string name() const = 0;

  /// Main-memory footprint of the method's index structures, in bytes.
  /// Matches what Table 4 reports per method (labeling schemes, R-trees,
  /// SPA-graph), excluding the shared network/condensation.
  virtual size_t IndexSizeBytes() const = 0;

  /// Writes the index structures, one out.Next(section id) each, in the
  /// order the class's static Load (its kind's row in the method table)
  /// reads them back; both live in core/method_snapshot.cc, next to the
  /// file format. The default refuses: an index-free method has none.
  virtual Status SaveStructures(StructureOut& out) const;

  /// The method's interval labeling (reversed for 3DReach-REV), or null.
  virtual const IntervalLabeling* interval_labeling() const { return nullptr; }

  /// Offers a planner's observations as a per-candidate filter; only the
  /// spatial-first methods take them (SpaReachBase::AttachObservations).
  virtual void AttachObservations(const Observations* /*observations*/) {}

 private:
  /// True when `scratch` is the method-owned default scratch — the drain
  /// uses this to skip self-merging.
  bool IsDefaultScratch(const QueryScratch& scratch) const {
    return &scratch == default_scratch_.get();
  }

  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t instance_id_ = NextInstanceId();
  mutable std::unique_ptr<QueryScratch> default_scratch_;
};

/// Per-thread mutable query state (buffers, visited marks, cost counters).
///
/// Index structures are immutable after construction, so the only thing
/// that stops Evaluate from running concurrently is its scratch space.
/// A scratch is created by the method that will consume it (NewScratch)
/// and must only ever be handed back to that same method; one scratch must
/// not be used by two threads at the same time, but any number of threads
/// may evaluate against the same method with one scratch each. Methods
/// with no per-query state beyond the counters use this class directly.
class QueryScratch {
 public:
  virtual ~QueryScratch() = default;

  RangeReachMethod::Counters counters;
};

inline RangeReachMethod::~RangeReachMethod() = default;

inline std::unique_ptr<QueryScratch> RangeReachMethod::NewScratch() const {
  return std::make_unique<QueryScratch>();
}

inline QueryScratch& RangeReachMethod::DefaultScratch() const {
  if (default_scratch_ == nullptr) [[unlikely]] {
    default_scratch_ = NewScratch();
  }
  return *default_scratch_;
}

inline void RangeReachMethod::DrainScratchCounters(
    QueryScratch& scratch) const {
  if (IsDefaultScratch(scratch)) return;
  DefaultScratch().counters += scratch.counters;
  scratch.counters = Counters{};
}

inline const RangeReachMethod::Counters& RangeReachMethod::counters() const {
  return DefaultScratch().counters;
}

inline void RangeReachMethod::ResetCounters() const {
  DefaultScratch().counters = Counters{};
}

}  // namespace gsr

#endif  // GSR_CORE_RANGE_REACH_H_
