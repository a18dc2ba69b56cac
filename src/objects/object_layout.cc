#include "src/objects/object_layout.h"

#include <algorithm>
#include <cstring>

#include "src/common/byte_io.h"
#include "src/common/logging.h"

namespace treebench {
namespace object_layout {

namespace {

size_t FieldSize(const AttrDef& attr, StringStorage mode,
                 const uint8_t* field_bytes) {
  switch (attr.type) {
    case AttrType::kInt32:
      return 4;
    case AttrType::kChar:
      return 1;
    case AttrType::kString:
      if (mode == StringStorage::kSeparateRecord) return Rid::kEncodedSize;
      return 2 + GetU16(field_bytes);
    case AttrType::kRef:
    case AttrType::kRefSet:
      return Rid::kEncodedSize;
  }
  TB_CHECK(false);
  return 0;
}

}  // namespace

std::vector<uint8_t> Encode(const ClassDef& cls, StringStorage mode,
                            uint8_t index_capacity,
                            std::span<const uint32_t> index_ids,
                            std::span<const StoredField> fields) {
  TB_CHECK(fields.size() == cls.attr_count());
  TB_CHECK(index_ids.size() <= index_capacity);

  // Size pass.
  size_t size = HeaderSize(index_capacity);
  for (size_t i = 0; i < fields.size(); ++i) {
    const AttrDef& attr = cls.attr(i);
    switch (attr.type) {
      case AttrType::kInt32:
        size += 4;
        break;
      case AttrType::kChar:
        size += 1;
        break;
      case AttrType::kString:
        if (mode == StringStorage::kSeparateRecord) {
          size += Rid::kEncodedSize;
        } else {
          size += 2 + std::get<std::string>(fields[i]).size();
        }
        break;
      case AttrType::kRef:
      case AttrType::kRefSet:
        size += Rid::kEncodedSize;
        break;
    }
  }

  std::vector<uint8_t> out(size);
  uint8_t* p = out.data();
  PutU16(p, cls.id());
  p[2] = 0;  // flags
  p[3] = index_capacity;
  p[4] = static_cast<uint8_t>(index_ids.size());
  p += kFixedHeaderSize;
  for (size_t i = 0; i < index_ids.size(); ++i) {
    p[i] = static_cast<uint8_t>(index_ids[i]);
  }
  p += index_capacity;

  for (size_t i = 0; i < fields.size(); ++i) {
    const AttrDef& attr = cls.attr(i);
    switch (attr.type) {
      case AttrType::kInt32:
        PutI32(p, std::get<int32_t>(fields[i]));
        p += 4;
        break;
      case AttrType::kChar:
        *p = static_cast<uint8_t>(std::get<char>(fields[i]));
        p += 1;
        break;
      case AttrType::kString:
        if (mode == StringStorage::kSeparateRecord) {
          std::get<Rid>(fields[i]).EncodeTo(p);
          p += Rid::kEncodedSize;
        } else {
          const std::string& s = std::get<std::string>(fields[i]);
          TB_CHECK(s.size() <= 0xFFFF);
          PutU16(p, static_cast<uint16_t>(s.size()));
          std::memcpy(p + 2, s.data(), s.size());
          p += 2 + s.size();
        }
        break;
      case AttrType::kRef:
      case AttrType::kRefSet:
        std::get<Rid>(fields[i]).EncodeTo(p);
        p += Rid::kEncodedSize;
        break;
    }
  }
  TB_CHECK(p == out.data() + out.size());
  return out;
}

std::vector<uint8_t> EncodeForward(uint16_t class_id, const Rid& target) {
  std::vector<uint8_t> out(kFixedHeaderSize + Rid::kEncodedSize);
  PutU16(out.data(), class_id);
  out[2] = kFlagForward;
  out[3] = 0;
  out[4] = 0;
  target.EncodeTo(out.data() + kFixedHeaderSize);
  return out;
}

uint16_t ObjectView::class_id() const { return GetU16(bytes_.data()); }

Rid ObjectView::ForwardTarget() const {
  TB_DCHECK(IsForward());
  return Rid::DecodeFrom(bytes_.data() + kFixedHeaderSize);
}

uint32_t ObjectView::index_id(uint8_t i) const {
  TB_DCHECK(i < index_count());
  return bytes_[kFixedHeaderSize + i];
}

size_t ObjectView::FieldOffset(size_t attr) const {
  TB_DCHECK(attr < cls_->attr_count());
  size_t off = HeaderSize(index_capacity());
  for (size_t i = 0; i < attr; ++i) {
    off += FieldSize(cls_->attr(i), mode_, bytes_.data() + off);
  }
  return off;
}

int32_t ObjectView::GetInt32(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kInt32);
  return GetI32(bytes_.data() + FieldOffset(attr));
}

char ObjectView::GetChar(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kChar);
  return static_cast<char>(bytes_[FieldOffset(attr)]);
}

std::string_view ObjectView::GetInlineString(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kString);
  TB_DCHECK(mode_ == StringStorage::kInline);
  size_t off = FieldOffset(attr);
  uint16_t len = GetU16(bytes_.data() + off);
  return std::string_view(
      reinterpret_cast<const char*>(bytes_.data() + off + 2), len);
}

Rid ObjectView::GetStringRid(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kString);
  TB_DCHECK(mode_ == StringStorage::kSeparateRecord);
  return Rid::DecodeFrom(bytes_.data() + FieldOffset(attr));
}

Rid ObjectView::GetRef(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kRef);
  return Rid::DecodeFrom(bytes_.data() + FieldOffset(attr));
}

Rid ObjectView::GetSetRid(size_t attr) const {
  TB_DCHECK(cls_->attr(attr).type == AttrType::kRefSet);
  return Rid::DecodeFrom(bytes_.data() + FieldOffset(attr));
}

void SetInt32At(std::span<uint8_t> bytes, const ClassDef& cls,
                StringStorage mode, size_t attr, int32_t v) {
  ObjectView view(bytes, &cls, mode);
  TB_DCHECK(cls.attr(attr).type == AttrType::kInt32);
  PutI32(bytes.data() + view.FieldOffset(attr), v);
}

void SetRefAt(std::span<uint8_t> bytes, const ClassDef& cls,
              StringStorage mode, size_t attr, const Rid& v) {
  ObjectView view(bytes, &cls, mode);
  TB_DCHECK(cls.attr(attr).type == AttrType::kRef);
  v.EncodeTo(bytes.data() + view.FieldOffset(attr));
}

void SetSetRidAt(std::span<uint8_t> bytes, const ClassDef& cls,
                 StringStorage mode, size_t attr, const Rid& v) {
  ObjectView view(bytes, &cls, mode);
  TB_DCHECK(cls.attr(attr).type == AttrType::kRefSet);
  v.EncodeTo(bytes.data() + view.FieldOffset(attr));
}

Status AddIndexIdAt(std::span<uint8_t> bytes, uint32_t index_id) {
  uint8_t capacity = bytes[3];
  uint8_t count = bytes[4];
  // Already present?
  for (uint8_t i = 0; i < count; ++i) {
    if (bytes[kFixedHeaderSize + i] == index_id) {
      return Status::OK();
    }
  }
  if (count >= capacity) {
    return Status::ResourceExhausted(
        "object header has no free index slot; relocation required");
  }
  bytes[kFixedHeaderSize + count] = static_cast<uint8_t>(index_id);
  bytes[4] = static_cast<uint8_t>(count + 1);
  return Status::OK();
}

std::vector<uint8_t> GrowIndexHeader(std::span<const uint8_t> bytes,
                                     uint8_t new_capacity) {
  const size_t old_header = HeaderSize(bytes[3]);
  TB_CHECK(new_capacity >= bytes[3]);
  std::vector<uint8_t> grown(HeaderSize(new_capacity) +
                             (bytes.size() - old_header));
  // Fixed header and the existing index ids, then the attribute body.
  std::copy(bytes.begin(), bytes.begin() + old_header, grown.begin());
  grown[3] = new_capacity;
  std::copy(bytes.begin() + old_header, bytes.end(),
            grown.begin() + HeaderSize(new_capacity));
  return grown;
}

void RemoveIndexIdAt(std::span<uint8_t> bytes, uint32_t index_id) {
  uint8_t count = bytes[4];
  for (uint8_t i = 0; i < count; ++i) {
    if (bytes[kFixedHeaderSize + i] == index_id) {
      // Shift the remaining ids down.
      for (uint8_t j = i; j + 1 < count; ++j) {
        bytes[kFixedHeaderSize + j] = bytes[kFixedHeaderSize + j + 1];
      }
      bytes[4] = static_cast<uint8_t>(count - 1);
      return;
    }
  }
}

}  // namespace object_layout
}  // namespace treebench
