#ifndef TREEBENCH_OBJECTS_OBJECT_LAYOUT_H_
#define TREEBENCH_OBJECTS_OBJECT_LAYOUT_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/objects/schema.h"
#include "src/objects/value.h"
#include "src/storage/rid.h"

namespace treebench {

/// Where variable-size string attributes live.
///
/// O2 represents strings as separate records with their own handles (paper
/// Section 4.4); the Derby size accounting of Section 2, however, counts 16
/// bytes of string per attribute inside the object. The engine supports
/// both; kInline is the default used by the Derby databases so that object
/// sizes (~120 B providers, ~60 B patients) and hence page counts match the
/// paper. kSeparateRecord is exercised by the handle-ablation experiments.
enum class StringStorage : uint8_t {
  kInline = 0,
  kSeparateRecord = 1,
};

/// Object record layout:
///   u16 class_id
///   u8  flags            (bit 0: forwarding stub)
///   u8  index_capacity   (number of index-id slots in the header)
///   u8  index_count
///   u8 x index_capacity index ids (1-byte slots keep Derby object sizes
///       at the paper's ~60/~120 bytes: 61 patients per page)
///   attribute fields in class order:
///     int32    -> 4 bytes
///     char     -> 1 byte
///     string   -> inline: u16 length + bytes | separate: 8-byte Rid
///     ref      -> 8-byte Rid
///     set<ref> -> 8-byte Rid of the set record (nil = empty/unset)
///
/// Objects created as members of an indexed collection get
/// kDefaultIndexCapacity slots up front; others get zero, and the *first*
/// index added later forces a record relocation — the Section 3.2 trap.
///
/// A forwarding stub replaces a relocated object at its old Rid:
///   u16 class_id, u8 flags(=kFlagForward), u8 0, u8 0, 8-byte target Rid.
namespace object_layout {

inline constexpr uint8_t kFlagForward = 0x01;
inline constexpr uint8_t kDefaultIndexCapacity = 8;  // paper Section 3.2
inline constexpr size_t kFixedHeaderSize = 5;

inline size_t HeaderSize(uint8_t index_capacity) {
  return kFixedHeaderSize + index_capacity;
}

/// True when `bytes` is long enough for an object header; a shorter record
/// is corrupt.
inline bool HasObjectHeader(std::span<const uint8_t> bytes) {
  return bytes.size() >= kFixedHeaderSize;
}

/// A field value as stored: strings in separate mode and ref-sets are
/// represented by the Rid of their record.
using StoredField = std::variant<int32_t, char, std::string, Rid>;

/// Serializes an object record.
std::vector<uint8_t> Encode(const ClassDef& cls, StringStorage mode,
                            uint8_t index_capacity,
                            std::span<const uint32_t> index_ids,
                            std::span<const StoredField> fields);

/// Serializes a forwarding stub.
std::vector<uint8_t> EncodeForward(uint16_t class_id, const Rid& target);

/// Read-only decoder over an encoded object record.
class ObjectView {
 public:
  ObjectView(std::span<const uint8_t> bytes, const ClassDef* cls,
             StringStorage mode)
      : bytes_(bytes), cls_(cls), mode_(mode) {}

  uint16_t class_id() const;
  uint8_t flags() const { return bytes_[2]; }
  bool IsForward() const { return (flags() & kFlagForward) != 0; }
  Rid ForwardTarget() const;

  uint8_t index_capacity() const { return bytes_[3]; }
  uint8_t index_count() const { return bytes_[4]; }
  uint32_t index_id(uint8_t i) const;

  /// Byte offset of attribute `attr` within the record.
  size_t FieldOffset(size_t attr) const;

  int32_t GetInt32(size_t attr) const;
  char GetChar(size_t attr) const;
  /// Inline-mode string payload (view into the record).
  std::string_view GetInlineString(size_t attr) const;
  /// Separate-mode string record Rid.
  Rid GetStringRid(size_t attr) const;
  Rid GetRef(size_t attr) const;
  /// Rid of the set record backing a set<ref> attribute (nil = empty).
  Rid GetSetRid(size_t attr) const;

  size_t RecordSize() const { return bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  const ClassDef* cls_;
  StringStorage mode_;
};

/// In-place mutators (the new value must occupy the same bytes).
void SetInt32At(std::span<uint8_t> bytes, const ClassDef& cls,
                StringStorage mode, size_t attr, int32_t v);
void SetRefAt(std::span<uint8_t> bytes, const ClassDef& cls,
              StringStorage mode, size_t attr, const Rid& v);
void SetSetRidAt(std::span<uint8_t> bytes, const ClassDef& cls,
                 StringStorage mode, size_t attr, const Rid& v);

/// Appends an index id into a free header slot. Fails with
/// ResourceExhausted when the header has no free slot (relocation needed).
Status AddIndexIdAt(std::span<uint8_t> bytes, uint32_t index_id);

/// A copy of the record with its header grown to `new_capacity` index-id
/// slots (at least the current capacity): same class, flags, index ids and
/// attribute body. The relocation path's record when AddIndexIdAt finds no
/// free slot (Section 3.2).
std::vector<uint8_t> GrowIndexHeader(std::span<const uint8_t> bytes,
                                     uint8_t new_capacity);

/// Removes an index id from the header (no-op if absent).
void RemoveIndexIdAt(std::span<uint8_t> bytes, uint32_t index_id);

}  // namespace object_layout

}  // namespace treebench

#endif  // TREEBENCH_OBJECTS_OBJECT_LAYOUT_H_
