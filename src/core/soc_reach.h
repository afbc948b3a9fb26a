#ifndef GSR_CORE_SOC_REACH_H_
#define GSR_CORE_SOC_REACH_H_

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/range_reach.h"
#include "labeling/interval_labeling.h"

namespace gsr {

/// SocReach (Section 4.1): the social-first approach. The interval-based
/// labeling enumerates the descendants D(v) of the query vertex — every
/// label [l,h] of v is a relational range scan over the post-order-number
/// domain — and each descendant's points are tested against the region
/// until one hits. No spatial index is involved, by design.
class SocReach : public RangeReachMethod {
 public:
  /// Builds the labeling over the condensation of `cn`'s network. A
  /// non-null `pool` runs construction in parallel (identical labeling).
  explicit SocReach(const CondensedNetwork* cn,
                    exec::ThreadPool* pool = nullptr)
      : cn_(cn),
        labeling_(IntervalLabeling::Build(cn->dag(),
                                          IntervalLabeling::Options{}, pool)) {}

  /// Per-thread state: the reusable D(v) buffer. SocReach's cost is
  /// dominated by the size of the materialized descendant sets, which the
  /// descendants counter tracks.
  struct Scratch : QueryScratch {
    std::vector<VertexId> descendants;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    ++s.counters.queries;
    const ComponentId source = cn_->ComponentOf(vertex);
    // Step 1: compute the full descendant set D(v), as Section 4.1
    // prescribes — the labels of v are relational range scans over the
    // post-order domain. This step is what keeps SocReach from being
    // competitive on vertices with many descendants.
    s.descendants.clear();
    labeling_.ForEachDescendant(source, [&s](VertexId descendant) {
      s.descendants.push_back(descendant);
      return true;
    });
    s.counters.descendants += s.descendants.size();
    // Step 2: spatial containment tests, stopping at the first hit ("on
    // average, not all spatial tests will be conducted for queries with a
    // positive answer").
    for (const VertexId descendant : s.descendants) {
      ++s.counters.containment_tests;
      if (cn_->AnyMemberPointIn(static_cast<ComponentId>(descendant),
                                region)) {
        return true;
      }
    }
    return false;
  }

  /// Work-sharing form: one descendant enumeration — the expensive
  /// relational range scans over the post-order domain — answers up to 64
  /// regions at once. Each enumerated descendant is tested against every
  /// still-pending region of the chunk and the enumeration stops as soon
  /// as all of them are answered, so a group of k regions costs one scan
  /// of D(v) instead of k. Answers are exactly those of the serial
  /// Evaluate (containment of a fixed point set is order-independent);
  /// counters reflect the shared work honestly (descendants counted once
  /// per enumeration, containment tests once per (descendant, pending
  /// region) pair).
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    const ComponentId source = cn_->ComponentOf(vertex);
    for (size_t base = 0; base < regions.size(); base += 64) {
      const size_t chunk = std::min<size_t>(64, regions.size() - base);
      s.counters.queries += chunk;
      uint64_t pending =
          chunk == 64 ? ~uint64_t{0} : (uint64_t{1} << chunk) - 1;
      labeling_.ForEachDescendant(source, [&](VertexId descendant) {
        ++s.counters.descendants;
        const ComponentId c = static_cast<ComponentId>(descendant);
        for (uint64_t m = pending; m != 0; m &= m - 1) {
          const size_t k = static_cast<size_t>(std::countr_zero(m));
          ++s.counters.containment_tests;
          if (cn_->AnyMemberPointIn(c, regions[base + k])) {
            out[base + k] = true;
            pending &= ~(m & (~m + 1));
          }
        }
        return pending != 0;
      });
      for (uint64_t m = pending; m != 0; m &= m - 1) {
        out[base + static_cast<size_t>(std::countr_zero(m))] = false;
      }
    }
  }

  /// Collection form: one descendant scan, delivering each descendant's
  /// member points inside the region. The labels of a vertex are
  /// disjoint normalized intervals, so the scan yields every descendant
  /// exactly once and the sink's exactly-once contract is free — no
  /// dedup marks needed. Counters: one containment test per descendant
  /// (the MBR-gated member enumeration), mirroring the boolean path.
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    ++s.counters.queries;
    const ComponentId source = cn_->ComponentOf(vertex);
    labeling_.ForEachDescendant(source, [&](VertexId descendant) {
      ++s.counters.descendants;
      ++s.counters.containment_tests;
      cn_->ForEachSpatialMemberIn(static_cast<ComponentId>(descendant), region,
                                  [&](VertexId v) { sink.Add(v); });
      return true;
    });
  }

  /// Grouped collection: the count/enum analogue of EvaluateGroup — one
  /// descendant enumeration feeds every sink of the group. There is no
  /// pending mask here: a collection query is never answered early, so
  /// each descendant is tested against all regions.
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    s.counters.queries += regions.size();
    const ComponentId source = cn_->ComponentOf(vertex);
    labeling_.ForEachDescendant(source, [&](VertexId descendant) {
      ++s.counters.descendants;
      const ComponentId c = static_cast<ComponentId>(descendant);
      for (size_t k = 0; k < regions.size(); ++k) {
        ++s.counters.containment_tests;
        cn_->ForEachSpatialMemberIn(c, regions[k],
                                    [&](VertexId v) { sinks[k].Add(v); });
      }
      return true;
    });
  }

  using RangeReachMethod::Evaluate;

  std::string name() const override { return "SocReach"; }

  size_t IndexSizeBytes() const override { return labeling_.SizeBytes(); }

  const IntervalLabeling* interval_labeling() const override {
    return &labeling_;
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 private:
  /// From-parts constructor used by the snapshot loader.
  SocReach(const CondensedNetwork* cn, IntervalLabeling labeling)
      : cn_(cn), labeling_(std::move(labeling)) {}

  const CondensedNetwork* cn_;
  IntervalLabeling labeling_;
};

}  // namespace gsr

#endif  // GSR_CORE_SOC_REACH_H_
