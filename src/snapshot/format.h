#ifndef GSR_SNAPSHOT_FORMAT_H_
#define GSR_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace gsr::snapshot {

/// On-disk layout of a snapshot file (see DESIGN.md, "Snapshot binary
/// format"):
///
///   [FileHeader][SectionEntry x section_count][pad][section 0][pad]...
///
/// Every section payload starts at a kPageAlignment boundary so that a
/// memory-mapped file can vend naturally aligned zero-copy array views.
/// The header and table are guarded by `table_checksum`; each payload by
/// its SectionEntry::checksum (both XXH64).

/// First 8 bytes of every snapshot file. The trailing '1' is part of the
/// magic, not the version: a future incompatible rework would bump it so
/// even pre-versioning readers fail loudly.
inline constexpr char kMagic[8] = {'G', 'S', 'R', 'S', 'N', 'A', 'P', '1'};

/// Bumped on any change to section layouts. Readers reject files of any
/// other version.
inline constexpr uint32_t kFormatVersion = 2;

/// Page unit of the format and of the paged access layer: section
/// offsets and array payloads align here, so every array's absolute file
/// offset lands on a page boundary, one cache page never spans two
/// sections, and a 64-byte FrozenRTree<Box3D> node never straddles a
/// page.
inline constexpr size_t kPageAlignment = 4096;

/// Identifies what a section contains. Values are part of the on-disk
/// format: append new ids, never renumber.
enum class SectionId : uint32_t {
  kMeta = 1,          // Method config + dataset fingerprint.
  kLabeling = 2,      // IntervalLabeling (SocReach and spatial methods).
  kRTree = 3,         // FrozenRTree (3DReach / 3DReach-REV).
  kSpatialIndex = 4,  // CondensedSpatialIndex (SpaReach variants).
  kBfl = 5,           // BflIndex.
  kGeoReach = 6,      // GeoReach grid + vertex metadata.
  kPll = 7,           // PllIndex.
  kFeline = 8,        // FelineIndex.
  kPlanner = 9,       // Planner portfolio: members, observations,
                      // histogram and cost models, inline in one stream.
};

/// Fixed 40-byte file header. Field-by-field layout is frozen; all fields
/// little-endian (endian_tag lets a reader detect a foreign-endian file).
struct FileHeader {
  char magic[8];
  uint32_t format_version = 0;
  uint32_t endian_tag = 0;
  uint32_t section_count = 0;
  uint32_t reserved = 0;  // Always zero on disk.
  uint64_t file_size = 0;
  uint64_t table_checksum = 0;  // XXH64 over the section table bytes.

  bool MagicMatches() const {
    return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  }
};
static_assert(std::is_trivially_copyable_v<FileHeader>);
static_assert(sizeof(FileHeader) == 40, "header layout is frozen");

/// One entry of the section table that immediately follows the header.
struct SectionEntry {
  uint32_t id = 0;        // SectionId.
  uint32_t reserved = 0;  // Always zero on disk.
  uint64_t offset = 0;    // From file start; kPageAlignment-aligned.
  uint64_t size = 0;      // Payload bytes (excludes alignment padding).
  uint64_t checksum = 0;  // XXH64 of the payload bytes.
};
static_assert(std::is_trivially_copyable_v<SectionEntry>);
static_assert(sizeof(SectionEntry) == 32, "table layout is frozen");

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_FORMAT_H_
