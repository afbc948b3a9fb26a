// Seeded mutation fuzzing of LoadMethodSnapshot. Every golden config's
// snapshot is damaged in one section payload at a time (byte flips,
// word overwrites, truncations and splices), re-sealed with valid
// checksums so the decoders, not the container, meet the damage, and
// loaded in both modes. Each load must return an error Status, or a
// method that answers boolean, count and enum queries without a fault
// or an exception. Agreement with NaiveBFS is not asserted: a forgery
// the loaders cannot tell from a real index (a moved R-tree coordinate)
// may load and answer wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// Mutants per golden config; each is loaded in both modes.
constexpr int kMutantsPerConfig = 150;

/// Damages `bytes` in place with one seeded operator.
void Mutate(std::vector<std::byte>& bytes, Rng& rng) {
  if (bytes.empty()) return;
  const size_t size = bytes.size();
  switch (rng.NextBounded(5)) {
    case 0: {  // Flip one to four random bits.
      const uint64_t flips = 1 + rng.NextBounded(4);
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[rng.NextBounded(size)] ^=
            static_cast<std::byte>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 1: {  // Overwrite one aligned u32 with a boundary or random value.
      if (size < 4) return;
      const uint32_t values[] = {0u, 1u, 2u, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                 static_cast<uint32_t>(rng.NextUint64())};
      const uint32_t value = values[rng.NextBounded(std::size(values))];
      std::memcpy(bytes.data() + 4 * rng.NextBounded(size / 4), &value, 4);
      break;
    }
    case 2:  // Truncate.
      bytes.resize(rng.NextBounded(size));
      break;
    case 3: {  // Splice: copy a chunk over another place.
      const size_t len = 1 + rng.NextBounded(std::min<size_t>(size, 64));
      const size_t from = rng.NextBounded(size - len + 1);
      const size_t to = rng.NextBounded(size - len + 1);
      std::memmove(bytes.data() + to, bytes.data() + from, len);
      break;
    }
    default: {  // Splice: insert a copy of a chunk.
      const size_t len = 1 + rng.NextBounded(std::min<size_t>(size, 64));
      const size_t from = rng.NextBounded(size - len + 1);
      const std::vector<std::byte> chunk(bytes.begin() + from,
                                         bytes.begin() + from + len);
      bytes.insert(bytes.begin() + rng.NextBounded(size + 1), chunk.begin(),
                   chunk.end());
      break;
    }
  }
}

/// A fixed query set: each must run to completion on a loaded method.
void QueryEveryKind(const RangeReachMethod& method,
                    const GeoSocialNetwork& network) {
  Rng rng(77);
  for (int q = 0; q < 12; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    method.Evaluate(v, region);
    method.EvaluateCount(v, region);
    method.EvaluateEnum(v, region);
  }
}

TEST(SnapshotMutationTest, DamagedSectionsErrorOrAnswer) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  const std::vector<MethodConfig> configs = testing::GoldenConfigs();
  const std::string path = testing::TempPath("method_mutant.snap");
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(
        SaveMethodSnapshot(*CreateMethod(&cn, configs[i]), configs[i], cn, path)
            .ok());
    const auto sections = testing::AllSections(path);
    Rng rng(1000 + i);
    int loaded_ok = 0;
    for (int mutant = 0; mutant < kMutantsPerConfig; ++mutant) {
      auto damaged = sections;
      Mutate(damaged[rng.NextBounded(damaged.size())].second, rng);
      testing::WriteSections(path, damaged);
      for (const snapshot::LoadMode mode :
           {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
        SCOPED_TRACE("config " + std::to_string(i) + " mutant " +
                     std::to_string(mutant) + " mode " +
                     std::to_string(static_cast<int>(mode)));
        auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
        if (!loaded.ok()) continue;
        ++loaded_ok;
        QueryEveryKind(*loaded->method, network);
      }
    }
    // Some mutants must get past the loader, or the queries test nothing.
    EXPECT_GT(loaded_ok, 0) << "config " << i;
  }
}

}  // namespace
}  // namespace gsr
