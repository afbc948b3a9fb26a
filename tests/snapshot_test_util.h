#ifndef GSR_TESTS_SNAPSHOT_TEST_UTIL_H_
#define GSR_TESTS_SNAPSHOT_TEST_UTIL_H_

// Snapshot-file helpers shared by the method snapshot tests: the golden
// configs, and raw section access for forging files whose checksums
// stay valid.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/method_factory.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace gsr::testing {

inline std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

/// Every snapshot-able kind in both SCC modes, then a planner over all
/// eight kinds in each mode (no calibration, so its cost models are the
/// deterministic defaults).
inline std::vector<MethodConfig> GoldenConfigs() {
  std::vector<MethodConfig> configs;
  const std::vector<MethodKind> kinds = {
      MethodKind::kSpaReachBfl,    MethodKind::kSpaReachInt,
      MethodKind::kSpaReachPll,    MethodKind::kSpaReachFeline,
      MethodKind::kGeoReach,       MethodKind::kSocReach,
      MethodKind::kThreeDReach,    MethodKind::kThreeDReachRev};
  for (const SccSpatialMode mode :
       {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
    for (const MethodKind kind : kinds) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
    }
  }
  for (const SccSpatialMode mode :
       {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
    MethodConfig config;
    config.kind = MethodKind::kPlanner;
    config.scc_mode = mode;
    config.planner.portfolio = kinds;
    config.planner.calibration_samples = 0;
    configs.push_back(config);
  }
  return configs;
}

/// Raw payload of section `id` of the snapshot file at `path`.
inline std::vector<std::byte> SectionPayload(const std::string& path,
                                             snapshot::SectionId id) {
  auto reader = snapshot::SnapshotReader::Open(path);
  GSR_CHECK(reader.ok());
  auto section = reader->Section(id);
  GSR_CHECK(section.ok());
  std::vector<std::byte> bytes(section->remaining());
  for (std::byte& b : bytes) GSR_CHECK(section->ReadPod(&b).ok());
  return bytes;
}

/// Writes a well-formed snapshot file (valid header, table and checksums)
/// holding exactly `sections`, so the method loader, not the container,
/// is what meets the damage.
inline void WriteSections(
    const std::string& path,
    const std::vector<std::pair<snapshot::SectionId, std::vector<std::byte>>>&
        sections) {
  snapshot::SnapshotWriter writer;
  for (const auto& [id, bytes] : sections) {
    writer.BeginSection(id).WriteBytes(bytes.data(), bytes.size());
  }
  GSR_CHECK(writer.WriteFile(path).ok());
}

/// Every section of the snapshot file at `path`, as (id, payload).
inline std::vector<std::pair<snapshot::SectionId, std::vector<std::byte>>>
AllSections(const std::string& path) {
  auto reader = snapshot::SnapshotReader::Open(path);
  GSR_CHECK(reader.ok());
  std::vector<std::pair<snapshot::SectionId, std::vector<std::byte>>> out;
  for (uint32_t id = 1; id <= 9; ++id) {
    const auto section = static_cast<snapshot::SectionId>(id);
    if (reader->HasSection(section)) {
      out.emplace_back(section, SectionPayload(path, section));
    }
  }
  return out;
}

}  // namespace gsr::testing

#endif  // GSR_TESTS_SNAPSHOT_TEST_UTIL_H_
