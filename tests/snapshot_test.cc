#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "snapshot/format.h"
#include "snapshot/page_cache.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace gsr::snapshot {
namespace {

/// Robustness contract of the snapshot container (DESIGN.md, "Snapshot
/// binary format"): any file — valid, truncated, or corrupted — either
/// opens with every integrity check passed or fails with a clean Status.
/// Nothing here may crash the process.

std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<uint64_t> SampleValues() {
  std::vector<uint64_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * i + 7;
  return values;
}

/// Writes a two-section sample snapshot and returns its path.
std::string WriteSample(const std::string& name) {
  SnapshotWriter writer;
  BinaryWriter& meta = writer.BeginSection(SectionId::kMeta);
  meta.WriteU32(42);
  meta.WriteU64(0xDEADBEEFull);
  BinaryWriter& labeling = writer.BeginSection(SectionId::kLabeling);
  labeling.WriteVector(SampleValues());
  const std::string path = TempPath(name);
  EXPECT_TRUE(writer.WriteFile(path).ok());
  return path;
}

constexpr LoadMode kAllModes[] = {LoadMode::kMmap, LoadMode::kPaged};

void ExpectSampleReadsBack(const SnapshotReader& reader) {
  EXPECT_TRUE(reader.HasSection(SectionId::kMeta));
  EXPECT_TRUE(reader.HasSection(SectionId::kLabeling));
  EXPECT_FALSE(reader.HasSection(SectionId::kBfl));

  auto meta = reader.Section(SectionId::kMeta);
  ASSERT_TRUE(meta.ok());
  uint32_t small = 0;
  uint64_t big = 0;
  ASSERT_TRUE(meta->ReadU32(&small).ok());
  ASSERT_TRUE(meta->ReadU64(&big).ok());
  EXPECT_EQ(small, 42u);
  EXPECT_EQ(big, 0xDEADBEEFull);

  auto labeling = reader.Section(SectionId::kLabeling);
  ASSERT_TRUE(labeling.ok());
  std::vector<uint64_t> values;
  ASSERT_TRUE(labeling->ReadVector(&values).ok());
  EXPECT_EQ(values, SampleValues());

  EXPECT_EQ(reader.Section(SectionId::kBfl).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, RoundTripDefaultModeIsMmap) {
  const std::string path = WriteSample("roundtrip_default.snap");
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->mode(), LoadMode::kMmap);
  ExpectSampleReadsBack(*reader);
}

TEST(SnapshotTest, RoundTripMmap) {
  const std::string path = WriteSample("roundtrip_mmap.snap");
  auto reader = SnapshotReader::Open(path, {.mode = LoadMode::kMmap});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->mode(), LoadMode::kMmap);
  EXPECT_TRUE(reader->borrow_context().borrow);
  EXPECT_NE(reader->borrow_context().keepalive, nullptr);
  ExpectSampleReadsBack(*reader);
}

TEST(SnapshotTest, RoundTripPaged) {
  const std::string path = WriteSample("roundtrip_paged.snap");
  auto reader = SnapshotReader::Open(path, {.mode = LoadMode::kPaged});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->mode(), LoadMode::kPaged);
  FileHeader header;
  std::memcpy(&header, ReadFileBytes(path).data(), sizeof(header));
  EXPECT_EQ(header.format_version, kFormatVersion);
  ASSERT_NE(reader->page_cache(), nullptr);
  ExpectSampleReadsBack(*reader);
  // Section() materialization preads directly (a one-shot sequential load
  // must not churn the query-time cache), so the counters stay zero here.
  const PageCache::Stats after_sections = reader->page_cache()->GetStats();
  EXPECT_EQ(after_sections.hits + after_sections.misses +
                after_sections.bypass_reads,
            0u);
  // The cache itself serves the same file bytes: the magic, page by page.
  char magic[sizeof(kMagic)];
  ASSERT_TRUE(reader->page_cache()->Read(0, sizeof(magic), magic).ok());
  EXPECT_EQ(std::memcmp(magic, kMagic, sizeof(magic)), 0);
  EXPECT_GT(reader->page_cache()->GetStats().misses, 0u);
}

TEST(SnapshotTest, ZeroLengthSectionsReadBackInEveryMode) {
  SnapshotWriter writer;
  writer.BeginSection(SectionId::kMeta);  // Deliberately left empty.
  BinaryWriter& labeling = writer.BeginSection(SectionId::kLabeling);
  labeling.WriteU32(7);
  writer.BeginSection(SectionId::kBfl);  // Empty trailing section.
  const std::string path = TempPath("zero_len.snap");
  ASSERT_TRUE(writer.WriteFile(path).ok());

  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE(reader->HasSection(SectionId::kMeta));
    auto meta = reader->Section(SectionId::kMeta);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    uint32_t value = 0;
    EXPECT_FALSE(meta->ReadU32(&value).ok());  // Empty: clean failure.
    auto labeling_in = reader->Section(SectionId::kLabeling);
    ASSERT_TRUE(labeling_in.ok());
    ASSERT_TRUE(labeling_in->ReadU32(&value).ok());
    EXPECT_EQ(value, 7u);
    auto bfl = reader->Section(SectionId::kBfl);
    ASSERT_TRUE(bfl.ok()) << bfl.status().ToString();
  }
}

TEST(SnapshotTest, ReopenAfterRewriteSeesNewContents) {
  // The same path overwritten with different payloads: a fresh open must
  // serve the new bytes in every mode (no stale descriptor or mapping).
  const std::string path = TempPath("reopen.snap");
  for (const uint32_t tag : {111u, 222u}) {
    SnapshotWriter writer;
    writer.BeginSection(SectionId::kMeta).WriteU32(tag);
    ASSERT_TRUE(writer.WriteFile(path).ok());
    for (const LoadMode mode : kAllModes) {
      auto reader = SnapshotReader::Open(path, {.mode = mode});
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      auto meta = reader->Section(SectionId::kMeta);
      ASSERT_TRUE(meta.ok());
      uint32_t value = 0;
      ASSERT_TRUE(meta->ReadU32(&value).ok());
      EXPECT_EQ(value, tag);
    }
  }
}

TEST(SnapshotTest, SectionPayloadsAreAligned) {
  const std::string path = WriteSample("aligned.snap");
  const std::vector<char> bytes = ReadFileBytes(path);
  FileHeader header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_TRUE(header.MagicMatches());
  EXPECT_EQ(header.format_version, kFormatVersion);
  EXPECT_EQ(header.endian_tag, kEndianTag);
  EXPECT_EQ(header.file_size, bytes.size());
  ASSERT_EQ(header.section_count, 2u);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    // Sections start on page boundaries so a cache page never spans two
    // sections.
    EXPECT_EQ(entry.offset % kPageAlignment, 0u);
    EXPECT_LE(entry.offset + entry.size, bytes.size());
  }
}

TEST(SnapshotTest, MissingFileFails) {
  auto reader = SnapshotReader::Open(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotTest, EmptyFileFails) {
  const std::string path = TempPath("empty.snap");
  WriteFileBytes(path, {});
  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SnapshotTest, TruncatedFileFails) {
  const std::string path = WriteSample("truncated.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 16);
  WriteFileBytes(path, bytes);
  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(SnapshotTest, TruncatedFinalPageFails) {
  // Chop a whole trailing page minus one byte: the header's recorded
  // file_size no longer matches, and every mode must refuse up front —
  // kPaged in particular must not defer this to a failing pread later.
  const std::string path = WriteSample("truncated_page.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kPageAlignment);
  bytes.resize(bytes.size() - (kPageAlignment - 1));
  WriteFileBytes(path, bytes);
  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(SnapshotTest, TruncatedInsideHeaderFails) {
  const std::string path = WriteSample("tiny.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  bytes.resize(sizeof(FileHeader) / 2);
  WriteFileBytes(path, bytes);
  auto reader = SnapshotReader::Open(path);
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotTest, BadMagicFails) {
  const std::string path = WriteSample("bad_magic.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  bytes[0] ^= 0x01;
  WriteFileBytes(path, bytes);
  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("magic"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(SnapshotTest, WrongFormatVersionFails) {
  // A future version and the retired v1 (64-byte sections) alike.
  const std::string path = WriteSample("bad_version.snap");
  for (const uint32_t version : {99u, 1u}) {
    std::vector<char> bytes = ReadFileBytes(path);
    std::memcpy(bytes.data() + offsetof(FileHeader, format_version), &version,
                sizeof(version));
    WriteFileBytes(path, bytes);
    for (const LoadMode mode : kAllModes) {
      auto reader = SnapshotReader::Open(path, {.mode = mode});
      ASSERT_FALSE(reader.ok());
      EXPECT_NE(reader.status().message().find(
                    "unsupported snapshot format version " +
                    std::to_string(version)),
                std::string::npos)
          << reader.status().ToString();
    }
  }
}

TEST(SnapshotTest, FlippedPayloadByteFailsChecksum) {
  const std::string path = WriteSample("bad_payload.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  SectionEntry entry;
  std::memcpy(&entry, bytes.data() + sizeof(FileHeader), sizeof(entry));
  ASSERT_GT(entry.size, 0u);
  bytes[entry.offset] ^= 0x40;
  WriteFileBytes(path, bytes);
  auto reader = SnapshotReader::Open(path, {.mode = LoadMode::kMmap});
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("checksum"), std::string::npos)
      << reader.status().ToString();
}

TEST(SnapshotTest, PagedDefersPayloadChecksumToSectionAccess) {
  // kPaged reads only header + table at Open (that is the point of the
  // mode), so a corrupted payload surfaces at Section() — still before
  // any deserialized byte is trusted. Intact sections stay readable.
  const std::string path = WriteSample("bad_payload_paged.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  SectionEntry entry;
  // Corrupt the second section (kLabeling); kMeta stays valid.
  std::memcpy(&entry, bytes.data() + sizeof(FileHeader) + sizeof(entry),
              sizeof(entry));
  ASSERT_GT(entry.size, 0u);
  bytes[entry.offset] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto reader = SnapshotReader::Open(path, {.mode = LoadMode::kPaged});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto meta = reader->Section(SectionId::kMeta);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  auto labeling = reader->Section(SectionId::kLabeling);
  ASSERT_FALSE(labeling.ok());
  EXPECT_NE(labeling.status().message().find("checksum"), std::string::npos)
      << labeling.status().ToString();
}

TEST(SnapshotTest, FlippedTableByteFailsChecksum) {
  const std::string path = WriteSample("bad_table.snap");
  std::vector<char> bytes = ReadFileBytes(path);
  bytes[sizeof(FileHeader) + offsetof(SectionEntry, checksum)] ^= 0x01;
  WriteFileBytes(path, bytes);
  for (const LoadMode mode : kAllModes) {
    auto reader = SnapshotReader::Open(path, {.mode = mode});
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("checksum"), std::string::npos)
        << reader.status().ToString();
  }
}

}  // namespace
}  // namespace gsr::snapshot
