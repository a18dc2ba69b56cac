#include "src/storage/record_file.h"

#include "src/common/logging.h"

namespace treebench {

namespace {
// Space used on a page, as a fraction of the full page.
double UsedFraction(const Page& page) {
  return 1.0 - static_cast<double>(page.FreeSpace()) / kPageSize;
}
}  // namespace

uint32_t RecordFile::NumPages() const {
  return cache_->disk()->NumPages(file_id_);
}

Result<Rid> RecordFile::Append(std::span<const uint8_t> record) {
  TB_CHECK(record.size() <= Page::kMaxRecordSize);
  if (tail_page_ != 0xFFFFFFFF) {
    TB_ASSIGN_OR_RETURN(uint8_t* data,
                        cache_->GetPageForWrite(file_id_, tail_page_));
    Page page(data);
    if (UsedFraction(page) < fill_factor_ && page.Fits(record.size())) {
      Result<uint16_t> slot = page.Insert(record);
      if (slot.ok()) return Rid(file_id_, tail_page_, slot.value());
    }
  }
  std::pair<uint32_t, uint8_t*> fresh{};
  TB_ASSIGN_OR_RETURN(fresh, cache_->NewPage(file_id_));
  tail_page_ = fresh.first;
  Page page(fresh.second);
  Result<uint16_t> slot = page.Insert(record);
  TB_CHECK(slot.ok());
  return Rid(file_id_, fresh.first, slot.value());
}

Result<std::span<const uint8_t>> RecordFile::Read(const Rid& rid) {
  if (rid.file_id != file_id_) {
    return Status::InvalidArgument("rid does not belong to this file");
  }
  TB_ASSIGN_OR_RETURN(const uint8_t* data,
                      cache_->GetPage(file_id_, rid.page_id));
  return Page(const_cast<uint8_t*>(data)).Get(rid.slot);
}

Result<std::span<uint8_t>> RecordFile::ReadMutable(const Rid& rid) {
  if (rid.file_id != file_id_) {
    return Status::InvalidArgument("rid does not belong to this file");
  }
  TB_ASSIGN_OR_RETURN(uint8_t* data,
                      cache_->GetPageForWrite(file_id_, rid.page_id));
  return Page(data).GetMutable(rid.slot);
}

Status RecordFile::Update(const Rid& rid, std::span<const uint8_t> record) {
  if (rid.file_id != file_id_) {
    return Status::InvalidArgument("rid does not belong to this file");
  }
  TB_ASSIGN_OR_RETURN(uint8_t* data,
                      cache_->GetPageForWrite(file_id_, rid.page_id));
  return Page(data).Update(rid.slot, record);
}

Status RecordFile::Delete(const Rid& rid) {
  if (rid.file_id != file_id_) {
    return Status::InvalidArgument("rid does not belong to this file");
  }
  TB_ASSIGN_OR_RETURN(uint8_t* data,
                      cache_->GetPageForWrite(file_id_, rid.page_id));
  return Page(data).Delete(rid.slot);
}

RecordFile::Iterator::Iterator(RecordFile* file, uint32_t start_page)
    : file_(file), page_id_(start_page), slot_(-1) {
  Advance(/*first=*/true);
}

void RecordFile::Iterator::Next() { Advance(/*first=*/false); }

void RecordFile::Iterator::Advance(bool first) {
  (void)first;
  valid_ = false;
  while (page_id_ < file_->NumPages()) {
    status_ = file_->cache_->ReadAhead(file_->file_id_, page_id_,
                                       &prefetch_frontier_);
    if (!status_.ok()) return;
    Result<const uint8_t*> got =
        file_->cache_->GetPage(file_->file_id_, page_id_);
    if (!got.ok()) {
      status_ = got.status();
      return;
    }
    Page page(const_cast<uint8_t*>(*got));
    for (int32_t s = slot_ + 1; s < page.slot_count(); ++s) {
      if (page.IsLive(static_cast<uint16_t>(s))) {
        slot_ = s;
        rid_ = Rid(file_->file_id_, page_id_, static_cast<uint16_t>(s));
        record_ = page.Get(static_cast<uint16_t>(s)).value();
        valid_ = true;
        return;
      }
    }
    ++page_id_;
    slot_ = -1;
  }
}

}  // namespace treebench
