#ifndef GSR_COMMON_BINARY_IO_H_
#define GSR_COMMON_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/paged_array.h"
#include "common/status.h"

namespace gsr {

/// The serialization layer is little-endian only (see DESIGN.md, "Snapshot
/// binary format"): snapshots written on a big-endian host would be
/// rejected at load time rather than silently misread. All mainstream
/// deployment targets are little-endian; a byte-swapping read path can be
/// added behind the same format version if that ever changes.
inline constexpr uint32_t kEndianTag = 0x01020304u;

inline bool HostIsLittleEndian() {
  const uint32_t probe = kEndianTag;
  uint8_t first;
  std::memcpy(&first, &probe, 1);
  return first == 0x04;
}

/// Append-only serializer into an in-memory byte buffer. All multi-byte
/// values are written in host order, which the snapshot header pins to
/// little-endian. Arrays are length-prefixed and 8-byte aligned so that a
/// reader can hand out zero-copy views into a mapped file.
class BinaryWriter {
 public:
  size_t size() const { return buffer_.size(); }
  const std::vector<std::byte>& bytes() const { return buffer_; }
  std::vector<std::byte> TakeBytes() { return std::move(buffer_); }

  /// Alignment (relative to the buffer start) of every WriteArray payload.
  /// Defaults to 8; the page-aligned snapshot format raises it to the page
  /// size so array payloads land on page boundaries in the file. Must be a
  /// power of two >= 8, and the reader must be configured to match.
  void set_array_alignment(size_t alignment) { array_alignment_ = alignment; }
  size_t array_alignment() const { return array_alignment_; }

  /// Zero-pads until the buffer size is a multiple of `alignment`.
  void AlignTo(size_t alignment) {
    const size_t rem = buffer_.size() % alignment;
    if (rem != 0) buffer_.resize(buffer_.size() + (alignment - rem));
  }

  void WriteBytes(const void* data, size_t len) {
    const std::byte* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + len);
  }

  /// Writes one trivially copyable value. Only use for types without
  /// internal padding; padded structs must be written field by field so no
  /// indeterminate bytes reach the checksum.
  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  void WriteU8(uint8_t v) { WritePod(v); }
  void WriteU32(uint32_t v) { WritePod(v); }
  void WriteU64(uint64_t v) { WritePod(v); }
  void WriteI32(int32_t v) { WritePod(v); }
  void WriteF64(double v) { WritePod(v); }

  /// Writes a length-prefixed array of trivially copyable elements. The
  /// payload is aligned to array_alignment() bytes (relative to the buffer
  /// start) so the reader can vend an aligned zero-copy span over it — or,
  /// at page alignment, address it straight off the disk pages.
  template <typename T>
  void WriteArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(values.size());
    AlignTo(array_alignment_);
    WriteBytes(values.data(), values.size() * sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    WriteArray(std::span<const T>(values));
  }

 private:
  std::vector<std::byte> buffer_;
  size_t array_alignment_ = 8;
};

/// Keeps borrowed (zero-copy) deserialization memory alive. `borrow` set
/// means "structures may view into the backing buffer instead of copying";
/// every structure that does so must retain `keepalive`, which owns the
/// buffer (e.g. a whole mapped snapshot file).
///
/// The out-of-core load path sets `paged` instead: pageable structures
/// then record in-file array addresses (`section_file_offset` plus the
/// in-section payload offset) and read through the PagedSource at query
/// time. In that mode the reader's backing buffer is a TEMPORARY section
/// materialization — views into it are valid during Deserialize (for
/// validation) but must not be retained.
///
/// `resident_bytes_left`, when set alongside `paged`, is the part of the
/// reader's budget still free for resident prefixes (PagedArray). It is
/// shared by every structure loaded from one reader: each structure that
/// keeps a prefix copies it out of the section buffer and subtracts what
/// it kept, so structures draw from it in load order.
struct BorrowContext {
  bool borrow = false;
  std::shared_ptr<const void> keepalive;
  std::shared_ptr<PagedSource> paged;
  uint64_t section_file_offset = 0;  // Absolute offset of the section.
  std::shared_ptr<size_t> resident_bytes_left;
};

/// Bounds-checked deserializer over a read-only byte span. Every read
/// returns a Status instead of crashing, so corrupt or truncated snapshot
/// files surface as clean errors. Mirrors BinaryWriter's layout rules.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }

  /// Must match the alignment the writer used. Set by whoever constructs
  /// the reader — the snapshot layer sets its page alignment.
  void set_array_alignment(size_t alignment) { array_alignment_ = alignment; }
  size_t array_alignment() const { return array_alignment_; }

  Status AlignTo(size_t alignment) {
    const size_t rem = offset_ % alignment;
    if (rem == 0) return Status::Ok();
    return Skip(alignment - rem);
  }

  Status Skip(size_t len) {
    if (len > remaining()) {
      return Status::OutOfRange("binary read past end of section");
    }
    offset_ += len;
    return Status::Ok();
  }

  template <typename T>
  Status ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      return Status::OutOfRange("binary read past end of section");
    }
    std::memcpy(out, data_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return Status::Ok();
  }

  Status ReadU8(uint8_t* out) { return ReadPod(out); }
  Status ReadU32(uint32_t* out) { return ReadPod(out); }
  Status ReadU64(uint64_t* out) { return ReadPod(out); }
  Status ReadI32(int32_t* out) { return ReadPod(out); }
  Status ReadF64(double* out) { return ReadPod(out); }

  /// Reads a length-prefixed array into an owned vector.
  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    std::span<const T> view;
    GSR_RETURN_IF_ERROR(ReadArrayView(&view));
    out->assign(view.begin(), view.end());
    return Status::Ok();
  }

  /// Reads a length-prefixed array as a view into the underlying buffer
  /// (no copy). The view is only valid while the buffer lives; callers
  /// must hold a BorrowContext keepalive to extend its lifetime.
  template <typename T>
  Status ReadArrayView(std::span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    GSR_RETURN_IF_ERROR(ReadU64(&count));
    GSR_RETURN_IF_ERROR(AlignTo(array_alignment_));
    if (count > remaining() / sizeof(T)) {
      return Status::OutOfRange("array length exceeds section size");
    }
    const std::byte* base = data_.data() + offset_;
    if (reinterpret_cast<uintptr_t>(base) % alignof(T) != 0) {
      return Status::Internal("misaligned array payload");
    }
    *out = {reinterpret_cast<const T*>(base), static_cast<size_t>(count)};
    offset_ += static_cast<size_t>(count) * sizeof(T);
    return Status::Ok();
  }

  /// Reads a length-prefixed array either as a zero-copy view (when
  /// `ctx.borrow`) or as an owned copy. `*view` always ends up valid:
  /// it aliases the mapped buffer in the borrowed case and `*owned`
  /// otherwise. This is the primitive every mmap-loadable structure's
  /// Deserialize is built on.
  template <typename T>
  Status ReadArrayInto(const BorrowContext& ctx, std::vector<T>* owned,
                       std::span<const T>* view) {
    if (ctx.borrow) {
      owned->clear();
      return ReadArrayView(view);
    }
    GSR_RETURN_IF_ERROR(ReadVector(owned));
    *view = std::span<const T>(*owned);
    return Status::Ok();
  }

  /// ReadArrayInto's sibling for structures that can serve straight from
  /// disk. Without `ctx.paged` it behaves exactly like ReadArrayInto and
  /// leaves `*paged` unset. With `ctx.paged`, it additionally records the
  /// array's absolute file address in `*paged`; `*view` then points into
  /// the reader's TEMPORARY section buffer — run all validation against it
  /// inside Deserialize, then drop it and keep only `*paged`.
  template <typename T>
  Status ReadArrayPageable(const BorrowContext& ctx, std::vector<T>* owned,
                           std::span<const T>* view, PagedArray<T>* paged) {
    *paged = PagedArray<T>{};
    if (ctx.paged == nullptr) {
      return ReadArrayInto(ctx, owned, view);
    }
    owned->clear();
    GSR_RETURN_IF_ERROR(ReadArrayView(view));
    paged->source = ctx.paged;
    paged->file_offset =
        ctx.section_file_offset + (offset_ - view->size() * sizeof(T));
    paged->count = view->size();
    return Status::Ok();
  }

 private:
  std::span<const std::byte> data_;
  size_t offset_ = 0;
  size_t array_alignment_ = 8;
};

}  // namespace gsr

#endif  // GSR_COMMON_BINARY_IO_H_
