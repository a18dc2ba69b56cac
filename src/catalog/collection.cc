#include "src/catalog/collection.h"

#include "src/common/byte_io.h"
#include "src/common/logging.h"

namespace treebench {

PersistentCollection::PersistentCollection(TwoLevelCache* cache,
                                           SimContext* sim, uint16_t file_id,
                                           std::string name)
    : cache_(cache), sim_(sim), file_id_(file_id), name_(std::move(name)) {
  if (cache_->disk()->NumPages(file_id_) == 0) {
    // Collection setup happens before any fault campaign is armed.
    auto fresh = cache_->NewPage(file_id_);
    TB_CHECK(fresh.ok());
    TB_CHECK(fresh->first == 0);
    PutU64(fresh->second, 0);
  }
}

Result<uint64_t> PersistentCollection::Count() {
  TB_ASSIGN_OR_RETURN(const uint8_t* meta, cache_->GetPage(file_id_, 0));
  return GetU64(meta);
}

Status PersistentCollection::Append(const Rid& rid) {
  uint64_t count = 0;
  TB_ASSIGN_OR_RETURN(count, Count());
  uint32_t page_index = static_cast<uint32_t>(count / kRidsPerPage);
  uint32_t offset = static_cast<uint32_t>(count % kRidsPerPage);
  uint8_t* data;
  if (offset == 0) {
    if (DataPages() > page_index) {
      // A data page past the tail already exists (a SwapRemove shrank the
      // count below a page boundary); reuse it instead of allocating.
      TB_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(file_id_,
                                                        page_index + 1));
    } else {
      std::pair<uint32_t, uint8_t*> fresh{};
      TB_ASSIGN_OR_RETURN(fresh, cache_->NewPage(file_id_));
      TB_CHECK(fresh.first == page_index + 1);
      data = fresh.second;
    }
    PutU16(data, 0);
  } else {
    TB_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(file_id_,
                                                      page_index + 1));
  }
  rid.EncodeTo(data + 2 + offset * Rid::kEncodedSize);
  PutU16(data, static_cast<uint16_t>(offset + 1));
  TB_ASSIGN_OR_RETURN(uint8_t* meta, cache_->GetPageForWrite(file_id_, 0));
  PutU64(meta, count + 1);
  return Status::OK();
}

Result<Rid> PersistentCollection::At(uint64_t i) {
  uint64_t count = 0;
  TB_ASSIGN_OR_RETURN(count, Count());
  if (i >= count) return Status::OutOfRange("collection index");
  uint32_t page_index = static_cast<uint32_t>(i / kRidsPerPage);
  uint32_t offset = static_cast<uint32_t>(i % kRidsPerPage);
  TB_ASSIGN_OR_RETURN(const uint8_t* data,
                      cache_->GetPage(file_id_, page_index + 1));
  return Rid::DecodeFrom(data + 2 + offset * Rid::kEncodedSize);
}

Status PersistentCollection::Set(uint64_t i, const Rid& rid) {
  uint64_t count = 0;
  TB_ASSIGN_OR_RETURN(count, Count());
  if (i >= count) return Status::OutOfRange("collection index");
  uint32_t page_index = static_cast<uint32_t>(i / kRidsPerPage);
  uint32_t offset = static_cast<uint32_t>(i % kRidsPerPage);
  TB_ASSIGN_OR_RETURN(uint8_t* data,
                      cache_->GetPageForWrite(file_id_, page_index + 1));
  rid.EncodeTo(data + 2 + offset * Rid::kEncodedSize);
  return Status::OK();
}

Status PersistentCollection::SwapRemove(uint64_t i) {
  uint64_t count = 0;
  TB_ASSIGN_OR_RETURN(count, Count());
  if (i >= count) return Status::OutOfRange("collection index");
  if (i != count - 1) {
    Rid last;
    TB_ASSIGN_OR_RETURN(last, At(count - 1));
    TB_RETURN_IF_ERROR(Set(i, last));
  }
  // Shrink the tail page's element count, then the collection count.
  uint32_t tail_page = static_cast<uint32_t>((count - 1) / kRidsPerPage);
  uint32_t tail_offset = static_cast<uint32_t>((count - 1) % kRidsPerPage);
  uint8_t* data;
  TB_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(file_id_, tail_page + 1));
  PutU16(data, static_cast<uint16_t>(tail_offset));
  TB_ASSIGN_OR_RETURN(uint8_t* meta, cache_->GetPageForWrite(file_id_, 0));
  PutU64(meta, count - 1);
  return Status::OK();
}

PersistentCollection::Iterator::Iterator(PersistentCollection* col)
    : col_(col) {
  Result<uint64_t> count = col->Count();
  if (!count.ok()) {
    status_ = count.status();
    return;
  }
  count_ = *count;
  Load();
}

void PersistentCollection::Iterator::Load() {
  if (index_ >= count_) return;
  uint32_t page_index = static_cast<uint32_t>(index_ / kRidsPerPage);
  uint32_t offset = static_cast<uint32_t>(index_ % kRidsPerPage);
  status_ = col_->cache_->ReadAhead(col_->file_id_, page_index + 1,
                                    &prefetch_frontier_);
  if (!status_.ok()) return;
  Result<const uint8_t*> data =
      col_->cache_->GetPage(col_->file_id_, page_index + 1);
  if (!data.ok()) {
    status_ = data.status();
    return;
  }
  rid_ = Rid::DecodeFrom(*data + 2 + offset * Rid::kEncodedSize);
}

}  // namespace treebench
