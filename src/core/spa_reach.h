#ifndef GSR_CORE_SPA_REACH_H_
#define GSR_CORE_SPA_REACH_H_

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/condensed_network.h"
#include "core/condensed_spatial_index.h"
#include "core/range_reach.h"
#include "labeling/bfl.h"
#include "labeling/feline.h"
#include "labeling/interval_labeling.h"
#include "labeling/observations.h"
#include "labeling/pll.h"

namespace gsr {

/// The spatial-first approach of Section 2.2.1: a 2-D R-tree first
/// identifies every spatial vertex inside the query region, then a graph
/// reachability index answers one GReach query per candidate, terminating
/// on the first positive answer. Shared by the four concrete methods; the
/// reachability backend is injected by the subclass.
///
/// Whole-query settles are the planner's job (PlannedMethod runs them
/// before it routes). A planner member gets the planner's observations
/// through AttachObservations, and the serial probe loops consult their
/// tri-state TestReach to skip a backend probe the observations already
/// prove. A standalone method has none attached and probes every
/// candidate.
class SpaReachBase : public RangeReachMethod {
 public:
  /// Per-thread state shared by every spatial-first method: the SRange
  /// result buffer. Backends with their own search state (BFL, Feline)
  /// derive from it.
  struct Scratch : QueryScratch {
    std::vector<std::pair<ComponentId, bool>> candidates;
    /// Group-shared GReach memo (SpaReachInt::EvaluateGroup): the probe
    /// result per component, epoch-stamped so resetting between groups is
    /// O(1) instead of O(#components). Lazily sized on first grouped call.
    std::vector<uint32_t> probe_epoch;
    std::vector<uint8_t> probe_reachable;
    uint32_t probe_generation = 0;
    /// Collection/AnyReach state: component dedup marks (the replicate
    /// tree yields one candidate per member point, collection must probe
    /// and emit each component once) and the deduplicated id buffer.
    SeenMarks seen;
    std::vector<ComponentId> distinct;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    ++s.counters.queries;
    // Step 1 (SRange): materialize every spatial vertex inside the region,
    // as the SpaReach algorithm prescribes. This is what makes the method
    // sensitive to the spatial selectivity of the query.
    spatial_index_.CollectCandidates(region, s.candidates);
    // Step 2: one GReach query per candidate, stopping at the first
    // positive answer.
    s.counters.candidates += s.candidates.size();
    const ComponentId source = cn_->ComponentOf(vertex);
    if (HasBatchProbe()) {
      // Backends with a batched kernel answer a whole chunk of
      // candidates per dispatch; reachable candidates are then verified
      // in the original order, so the answer is identical to the serial
      // loop (a positive chunk may probe a few candidates past the one
      // that answers the query — greach_calls counts them honestly).
      ComponentId targets[simd::kMaskWidth];
      for (size_t base = 0; base < s.candidates.size();
           base += simd::kMaskWidth) {
        const size_t chunk =
            std::min(simd::kMaskWidth, s.candidates.size() - base);
        for (size_t k = 0; k < chunk; ++k) {
          targets[k] = s.candidates[base + k].first;
        }
        s.counters.greach_calls += chunk;
        uint64_t mask = CanReachComponentMask(source, targets, chunk, s);
        while (mask != 0) {
          const size_t k = base + static_cast<size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          const auto& [candidate, verified] = s.candidates[k];
          if (verified || cn_->AnyMemberPointIn(candidate, region)) {
            return true;
          }
        }
      }
      return false;
    }
    // Serial probe path (BFL, PLL, Feline — per-probe graph searches):
    // with observations attached, a tri-state TestReach settles most
    // candidates in O(1), so the backend probe only runs on genuinely
    // unknown pairs.
    for (const auto& [candidate, verified] : s.candidates) {
      if (observations_ != nullptr) {
        const auto verdict = observations_->TestReach(source, candidate);
        if (verdict == Observations::Verdict::kNo) {
          ++s.counters.settled_negative;
          continue;
        }
        if (verdict == Observations::Verdict::kYes) {
          ++s.counters.settled_positive;
          if (verified || cn_->AnyMemberPointIn(candidate, region)) {
            return true;
          }
          continue;
        }
      }
      ++s.counters.greach_calls;
      if (!CanReachComponent(source, candidate, s)) continue;
      if (verified || cn_->AnyMemberPointIn(candidate, region)) return true;
    }
    return false;
  }

  /// Collection form: SRange once, then the candidate components are
  /// deduplicated (replicate indexes yield one candidate per member
  /// point) and each *distinct* component probed exactly once — batched
  /// through the backend's mask kernel when it has one. Reachable
  /// components enumerate their member points inside the region; every
  /// spatial vertex belongs to exactly one component, so the sink's
  /// exactly-once contract holds by construction.
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    ++s.counters.queries;
    const ComponentId source = cn_->ComponentOf(vertex);
    spatial_index_.CollectCandidates(region, s.candidates);
    s.counters.candidates += s.candidates.size();
    s.seen.BeginPass(cn_->num_components());
    s.distinct.clear();
    for (const auto& [candidate, verified] : s.candidates) {
      (void)verified;
      if (s.seen.TestAndSet(candidate)) s.distinct.push_back(candidate);
    }
    if (HasBatchProbe()) {
      for (size_t base = 0; base < s.distinct.size();
           base += simd::kMaskWidth) {
        const size_t chunk =
            std::min(simd::kMaskWidth, s.distinct.size() - base);
        s.counters.greach_calls += chunk;
        uint64_t mask =
            CanReachComponentMask(source, s.distinct.data() + base, chunk, s);
        while (mask != 0) {
          const ComponentId c =
              s.distinct[base + static_cast<size_t>(std::countr_zero(mask))];
          mask &= mask - 1;
          cn_->ForEachSpatialMemberIn(c, region,
                                      [&](VertexId v) { sink.Add(v); });
        }
      }
      return;
    }
    for (const ComponentId c : s.distinct) {
      if (observations_ != nullptr) {
        const auto verdict = observations_->TestReach(source, c);
        if (verdict == Observations::Verdict::kNo) {
          ++s.counters.settled_negative;
          continue;
        }
        if (verdict == Observations::Verdict::kYes) {
          ++s.counters.settled_positive;
          cn_->ForEachSpatialMemberIn(c, region,
                                      [&](VertexId v) { sink.Add(v); });
          continue;
        }
      }
      ++s.counters.greach_calls;
      if (!CanReachComponent(source, c, s)) continue;
      cn_->ForEachSpatialMemberIn(c, region, [&](VertexId v) { sink.Add(v); });
    }
  }

  /// Multi-source AnyReach: the SRange pass — the dominating spatial
  /// cost — runs once for all k sources, then candidates are probed from
  /// each *distinct* source component (friends sharing an SCC collapse
  /// to one probe). Batch backends issue one mask dispatch per source
  /// per chunk and OR the masks; the answer is the same predicate the
  /// default per-source loop computes, so answers are identical.
  bool EvaluateAny(std::span<const VertexId> sources, const Rect& region,
                   QueryScratch& scratch) const override {
    if (sources.empty()) return false;
    Scratch& s = static_cast<Scratch&>(scratch);
    ++s.counters.queries;
    s.seen.BeginPass(cn_->num_components());
    s.distinct.clear();
    for (const VertexId source : sources) {
      const ComponentId c = cn_->ComponentOf(source);
      if (s.seen.TestAndSet(c)) s.distinct.push_back(c);
    }
    spatial_index_.CollectCandidates(region, s.candidates);
    s.counters.candidates += s.candidates.size();
    if (HasBatchProbe()) {
      ComponentId targets[simd::kMaskWidth];
      for (size_t base = 0; base < s.candidates.size();
           base += simd::kMaskWidth) {
        const size_t chunk =
            std::min(simd::kMaskWidth, s.candidates.size() - base);
        const uint64_t full =
            chunk == 64 ? ~uint64_t{0} : (uint64_t{1} << chunk) - 1;
        for (size_t k = 0; k < chunk; ++k) {
          targets[k] = s.candidates[base + k].first;
        }
        uint64_t mask = 0;
        for (const ComponentId source : s.distinct) {
          s.counters.greach_calls += chunk;
          mask |= CanReachComponentMask(source, targets, chunk, s);
          if (mask == full) break;
        }
        while (mask != 0) {
          const size_t k = base + static_cast<size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          const auto& [candidate, verified] = s.candidates[k];
          if (verified || cn_->AnyMemberPointIn(candidate, region)) {
            return true;
          }
        }
      }
      return false;
    }
    for (const auto& [candidate, verified] : s.candidates) {
      bool reachable = false;
      for (const ComponentId source : s.distinct) {
        ++s.counters.greach_calls;
        if (CanReachComponent(source, candidate, s)) {
          reachable = true;
          break;
        }
      }
      if (!reachable) continue;
      if (verified || cn_->AnyMemberPointIn(candidate, region)) return true;
    }
    return false;
  }

  using RangeReachMethod::Evaluate;
  using RangeReachMethod::EvaluateAny;

  std::string name() const override {
    std::string out = base_name_;
    if (spatial_index_.mode() == SccSpatialMode::kMbr) out += " (mbr)";
    return out;
  }

  /// Attaches the per-candidate filter: `observations` must describe this
  /// method's condensation and outlive it. Filter verdicts are proofs, so
  /// answers are identical with or without it. Not thread-safe against
  /// concurrent queries — attach before querying.
  void AttachObservations(const Observations* observations) override {
    observations_ = observations;
  }

 protected:
  SpaReachBase(const CondensedNetwork* cn, SccSpatialMode mode,
               std::string base_name, exec::ThreadPool* pool = nullptr)
      : cn_(cn),
        spatial_index_(cn, mode, pool),
        base_name_(std::move(base_name)) {}

  /// Snapshot-load path: adopts an already-deserialized spatial index.
  SpaReachBase(const CondensedNetwork* cn, CondensedSpatialIndex index,
               std::string base_name)
      : cn_(cn),
        spatial_index_(std::move(index)),
        base_name_(std::move(base_name)) {}

  /// GReach over the condensation DAG. `scratch` is the one passed to
  /// Evaluate; backends with search state downcast it to their own type.
  virtual bool CanReachComponent(ComponentId from, ComponentId to,
                                 Scratch& scratch) const = 0;

  /// Batch GReach: bit k answers targets[k] (count <= simd::kMaskWidth).
  /// Backends whose probe is a pure label lookup (SpaReach-INT) opt in
  /// by returning true from HasBatchProbe and dispatching a batched
  /// kernel here; stateful searches (BFL, Feline) keep the serial loop
  /// with its per-candidate early exit.
  virtual bool HasBatchProbe() const { return false; }
  virtual uint64_t CanReachComponentMask(ComponentId /*from*/,
                                         const ComponentId* /*targets*/,
                                         size_t /*count*/,
                                         Scratch& /*scratch*/) const {
    return 0;
  }

  const CondensedNetwork* cn_;
  CondensedSpatialIndex spatial_index_;

 private:
  std::string base_name_;
  const Observations* observations_ = nullptr;
};

/// SpaReach-BFL: spatial-first with the BFL reachability scheme — the best
/// spatial-first method in the paper's evaluation (Section 6.3).
class SpaReachBfl : public SpaReachBase {
 public:
  SpaReachBfl(const CondensedNetwork* cn, SccSpatialMode mode,
              const BflIndex::Options& options,
              exec::ThreadPool* pool = nullptr)
      : SpaReachBase(cn, mode, "SpaReach-BFL", pool),
        bfl_(BflIndex::Build(&cn->dag(), options)) {}

  SpaReachBfl(const CondensedNetwork* cn, SccSpatialMode mode)
      : SpaReachBfl(cn, mode, BflIndex::Options{}) {}

  explicit SpaReachBfl(const CondensedNetwork* cn)
      : SpaReachBfl(cn, SccSpatialMode::kReplicate) {}

  /// Adds BFL's pruned-DFS state to the spatial-first scratch.
  struct Scratch : SpaReachBase::Scratch {
    BflIndex::SearchScratch bfl;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  size_t IndexSizeBytes() const override {
    return spatial_index_.SizeBytes() + bfl_.SizeBytes();
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 protected:
  bool CanReachComponent(ComponentId from, ComponentId to,
                         SpaReachBase::Scratch& scratch) const override {
    return bfl_.CanReach(from, to, static_cast<Scratch&>(scratch).bfl);
  }

 private:
  SpaReachBfl(const CondensedNetwork* cn, CondensedSpatialIndex index,
              BflIndex bfl)
      : SpaReachBase(cn, std::move(index), "SpaReach-BFL"),
        bfl_(std::move(bfl)) {}

  BflIndex bfl_;
};

/// SpaReach-INT: spatial-first with the interval-based labeling answering
/// the GReach queries. The paper uses it to confirm that the advantage of
/// its proposals does not come from merely plugging interval labels into
/// the spatial-first scheme (it loses to SpaReach-BFL, Figure 6).
class SpaReachInt : public SpaReachBase {
 public:
  SpaReachInt(const CondensedNetwork* cn, SccSpatialMode mode,
              exec::ThreadPool* pool = nullptr)
      : SpaReachBase(cn, mode, "SpaReach-INT", pool),
        labeling_(IntervalLabeling::Build(cn->dag(),
                                          IntervalLabeling::Options{}, pool)) {}

  explicit SpaReachInt(const CondensedNetwork* cn)
      : SpaReachInt(cn, SccSpatialMode::kReplicate) {}

  size_t IndexSizeBytes() const override {
    return spatial_index_.SizeBytes() + labeling_.SizeBytes();
  }

  const IntervalLabeling* interval_labeling() const override {
    return &labeling_;
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 protected:
  bool CanReachComponent(ComponentId from, ComponentId to,
                         Scratch& /*scratch*/) const override {
    return labeling_.CanReach(from, to);  // Pure label lookup.
  }

  bool HasBatchProbe() const override { return true; }
  uint64_t CanReachComponentMask(ComponentId from, const ComponentId* targets,
                                 size_t count,
                                 Scratch& /*scratch*/) const override {
    return labeling_.CanReachMask(from, targets, count);
  }

 public:
  /// Work-sharing form: regions of one group share the source's GReach
  /// probes through an epoch-stamped per-component memo, so a component
  /// that appears in the candidate set of many regions (overlapping or
  /// duplicate rectangles) is probed once per group instead of once per
  /// region. Unknown components are gathered per candidate chunk and
  /// answered with one CanReachManyInto dispatch — the labeling's label
  /// run is fetched once per call and the per-region early exit of the
  /// serial path is preserved. Answers are bit-identical to the serial
  /// Evaluate; greach_calls counts only the probes actually issued, which
  /// is the sharing being measured.
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    if (s.probe_epoch.size() < cn_->num_components()) {
      s.probe_epoch.assign(cn_->num_components(), 0);
      s.probe_reachable.assign(cn_->num_components(), 0);
    }
    if (++s.probe_generation == 0) {
      // Epoch counter wrapped: stale stamps could alias the new
      // generation, so clear once and restart at 1.
      std::fill(s.probe_epoch.begin(), s.probe_epoch.end(), 0u);
      s.probe_generation = 1;
    }
    const uint32_t generation = s.probe_generation;
    const ComponentId source = cn_->ComponentOf(vertex);
    ComponentId targets[simd::kMaskWidth];
    uint8_t reach[simd::kMaskWidth];
    for (size_t i = 0; i < regions.size(); ++i) {
      ++s.counters.queries;
      spatial_index_.CollectCandidates(regions[i], s.candidates);
      s.counters.candidates += s.candidates.size();
      bool found = false;
      for (size_t base = 0; base < s.candidates.size() && !found;
           base += simd::kMaskWidth) {
        const size_t chunk =
            std::min(simd::kMaskWidth, s.candidates.size() - base);
        size_t unknown = 0;
        for (size_t k = 0; k < chunk; ++k) {
          const ComponentId c = s.candidates[base + k].first;
          if (s.probe_epoch[c] != generation) {
            s.probe_epoch[c] = generation;  // Also dedups within the chunk.
            targets[unknown++] = c;
          }
        }
        if (unknown != 0) {
          s.counters.greach_calls += unknown;
          labeling_.CanReachManyInto(source, targets, unknown, reach);
          for (size_t j = 0; j < unknown; ++j) {
            s.probe_reachable[targets[j]] = reach[j];
          }
        }
        for (size_t k = 0; k < chunk; ++k) {
          const auto& [candidate, verified] = s.candidates[base + k];
          if (s.probe_reachable[candidate] == 0) continue;
          if (verified || cn_->AnyMemberPointIn(candidate, regions[i])) {
            found = true;
            break;
          }
        }
      }
      out[i] = found;
    }
  }

  /// Grouped collection: the count/enum analogue of EvaluateGroup above.
  /// Regions of one group share the source's probe memo — a component in
  /// many regions' candidate sets is probed once per group — and each
  /// region's distinct reachable components enumerate their members into
  /// that region's sink (per-region dedup via the epoch-stamped seen
  /// marks, reset O(1) between regions).
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    if (s.probe_epoch.size() < cn_->num_components()) {
      s.probe_epoch.assign(cn_->num_components(), 0);
      s.probe_reachable.assign(cn_->num_components(), 0);
    }
    if (++s.probe_generation == 0) {
      std::fill(s.probe_epoch.begin(), s.probe_epoch.end(), 0u);
      s.probe_generation = 1;
    }
    const uint32_t generation = s.probe_generation;
    const ComponentId source = cn_->ComponentOf(vertex);
    ComponentId targets[simd::kMaskWidth];
    uint8_t reach[simd::kMaskWidth];
    for (size_t i = 0; i < regions.size(); ++i) {
      ++s.counters.queries;
      spatial_index_.CollectCandidates(regions[i], s.candidates);
      s.counters.candidates += s.candidates.size();
      s.seen.BeginPass(cn_->num_components());
      for (size_t base = 0; base < s.candidates.size();
           base += simd::kMaskWidth) {
        const size_t chunk =
            std::min(simd::kMaskWidth, s.candidates.size() - base);
        size_t unknown = 0;
        for (size_t k = 0; k < chunk; ++k) {
          const ComponentId c = s.candidates[base + k].first;
          if (s.probe_epoch[c] != generation) {
            s.probe_epoch[c] = generation;
            targets[unknown++] = c;
          }
        }
        if (unknown != 0) {
          s.counters.greach_calls += unknown;
          labeling_.CanReachManyInto(source, targets, unknown, reach);
          for (size_t j = 0; j < unknown; ++j) {
            s.probe_reachable[targets[j]] = reach[j];
          }
        }
        for (size_t k = 0; k < chunk; ++k) {
          const ComponentId c = s.candidates[base + k].first;
          if (s.probe_reachable[c] == 0) continue;
          if (!s.seen.TestAndSet(c)) continue;
          cn_->ForEachSpatialMemberIn(c, regions[i],
                                      [&](VertexId v) { sinks[i].Add(v); });
        }
      }
    }
  }

 private:
  SpaReachInt(const CondensedNetwork* cn, CondensedSpatialIndex index,
              IntervalLabeling labeling)
      : SpaReachBase(cn, std::move(index), "SpaReach-INT"),
        labeling_(std::move(labeling)) {}

  IntervalLabeling labeling_;
};

/// SpaReach-PLL: spatial-first with a pruned 2-hop labeling answering the
/// GReach queries — the first of the two baseline configurations of the
/// original GeoReach paper (Section 2.2 mentions SpaReach-PLL).
class SpaReachPll : public SpaReachBase {
 public:
  SpaReachPll(const CondensedNetwork* cn, SccSpatialMode mode,
              exec::ThreadPool* pool = nullptr)
      : SpaReachBase(cn, mode, "SpaReach-PLL", pool),
        pll_(PllIndex::Build(cn->dag())) {}

  explicit SpaReachPll(const CondensedNetwork* cn)
      : SpaReachPll(cn, SccSpatialMode::kReplicate) {}

  size_t IndexSizeBytes() const override {
    return spatial_index_.SizeBytes() + pll_.SizeBytes();
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 protected:
  bool CanReachComponent(ComponentId from, ComponentId to,
                         Scratch& /*scratch*/) const override {
    return pll_.CanReach(from, to);  // Pure label intersection.
  }

 private:
  SpaReachPll(const CondensedNetwork* cn, CondensedSpatialIndex index,
              PllIndex pll)
      : SpaReachBase(cn, std::move(index), "SpaReach-PLL"),
        pll_(std::move(pll)) {}

  PllIndex pll_;
};

/// SpaReach-Feline: spatial-first with the Feline reachability index —
/// the second baseline configuration of the original GeoReach paper.
class SpaReachFeline : public SpaReachBase {
 public:
  SpaReachFeline(const CondensedNetwork* cn, SccSpatialMode mode,
                 exec::ThreadPool* pool = nullptr)
      : SpaReachBase(cn, mode, "SpaReach-Feline", pool),
        feline_(FelineIndex::Build(&cn->dag())) {}

  explicit SpaReachFeline(const CondensedNetwork* cn)
      : SpaReachFeline(cn, SccSpatialMode::kReplicate) {}

  /// Adds Feline's guided-DFS state to the spatial-first scratch.
  struct Scratch : SpaReachBase::Scratch {
    FelineIndex::SearchScratch feline;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  size_t IndexSizeBytes() const override {
    return spatial_index_.SizeBytes() + feline_.SizeBytes();
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 protected:
  bool CanReachComponent(ComponentId from, ComponentId to,
                         SpaReachBase::Scratch& scratch) const override {
    return feline_.CanReach(from, to, static_cast<Scratch&>(scratch).feline);
  }

 private:
  SpaReachFeline(const CondensedNetwork* cn, CondensedSpatialIndex index,
                 FelineIndex feline)
      : SpaReachBase(cn, std::move(index), "SpaReach-Feline"),
        feline_(std::move(feline)) {}

  FelineIndex feline_;
};

}  // namespace gsr

#endif  // GSR_CORE_SPA_REACH_H_
