#include "src/objects/object_store.h"

#include <utility>

#include "src/common/logging.h"

namespace treebench {

using object_layout::ObjectView;
using object_layout::StoredField;

ObjectStore::ObjectStore(Schema* schema, TwoLevelCache* cache,
                         SimContext* sim, StringStorage string_mode,
                         double fill_factor, uint64_t handle_arena_bytes)
    : schema_(schema),
      cache_(cache),
      sim_(sim),
      sets_(cache, sim),
      string_mode_(string_mode),
      fill_factor_(fill_factor),
      handle_arena_bytes_(handle_arena_bytes != 0
                              ? handle_arena_bytes
                              : sim->model().ram_bytes / 16) {}

RecordFile* ObjectStore::File(uint16_t file_id) {
  if (file_id >= files_.size()) files_.resize(size_t{file_id} + 1);
  std::unique_ptr<RecordFile>& file = files_[file_id];
  if (file == nullptr) {
    file = std::make_unique<RecordFile>(cache_, file_id, fill_factor_);
  }
  return file.get();
}

void ObjectStore::ResetFileCursors() {
  const uint16_t live = cache_->disk()->file_count();
  if (files_.size() > live) files_.resize(live);
  for (const std::unique_ptr<RecordFile>& file : files_) {
    if (file != nullptr) file->ResetTailCursor();
  }
  if (default_overflow_file_ != 0xFFFF && default_overflow_file_ >= live) {
    default_overflow_file_ = 0xFFFF;  // recreated lazily on next demand
  }
}

uint16_t ObjectStore::DefaultOverflowFile() {
  if (default_overflow_file_ == 0xFFFF) {
    default_overflow_file_ = cache_->disk()->CreateFile("__set_overflow");
  }
  return default_overflow_file_;
}

Result<StoredField> ObjectStore::ToStoredField(const AttrDef& attr,
                                               const Value& v,
                                               RecordFile* home,
                                               uint16_t overflow_file) {
  switch (attr.type) {
    case AttrType::kInt32:
      return StoredField(std::get<int32_t>(v));
    case AttrType::kChar:
      return StoredField(std::get<char>(v));
    case AttrType::kString: {
      const std::string& s = std::get<std::string>(v);
      if (string_mode_ == StringStorage::kInline) return StoredField(s);
      // Separate record: the string payload becomes its own record in the
      // owner's file, referenced by Rid.
      std::vector<uint8_t> bytes(s.begin(), s.end());
      Rid rid;
      TB_ASSIGN_OR_RETURN(rid, home->Append(bytes));
      return StoredField(rid);
    }
    case AttrType::kRef:
      return StoredField(std::get<Rid>(v));
    case AttrType::kRefSet: {
      const auto& elements = std::get<std::vector<Rid>>(v);
      if (elements.empty()) return StoredField(kNilRid);
      Rid rid;
      TB_ASSIGN_OR_RETURN(rid, sets_.Write(home, overflow_file, elements));
      return StoredField(rid);
    }
  }
  return Status::Internal("unknown attribute type");
}

Result<Rid> ObjectStore::CreateObject(uint16_t class_id,
                                      const ObjectData& data,
                                      const CreateOptions& opts) {
  const ClassDef& cls = schema_->GetClass(class_id);
  if (data.size() != cls.attr_count()) {
    return Status::InvalidArgument("attribute count mismatch for class " +
                                   cls.name());
  }
  RecordFile* home = File(opts.file_id);
  uint16_t overflow = opts.set_overflow_file != 0xFFFF
                          ? opts.set_overflow_file
                          : DefaultOverflowFile();

  std::vector<StoredField> fields;
  fields.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    StoredField f(0);
    TB_ASSIGN_OR_RETURN(f, ToStoredField(cls.attr(i), data[i], home,
                                         overflow));
    fields.push_back(std::move(f));
  }

  uint8_t capacity = opts.preallocate_index_header
                         ? object_layout::kDefaultIndexCapacity
                         : 0;
  std::vector<uint8_t> record = object_layout::Encode(
      cls, string_mode_, capacity, /*index_ids=*/{}, fields);
  sim_->ChargeObjectCreate();
  return home->Append(record);
}

Result<std::span<const uint8_t>> ObjectStore::ReadRecord(const Rid& rid,
                                                         Rid* canonical,
                                                         bool delete_stubs) {
  Rid cur = rid;
  for (int hop = 0; hop < kMaxForwardHops; ++hop) {
    std::span<const uint8_t> rec;
    TB_ASSIGN_OR_RETURN(rec, File(cur.file_id)->Read(cur));
    if (!object_layout::HasObjectHeader(rec)) {
      return Status::Corruption("record too small for an object header");
    }
    ObjectView view(rec, nullptr, string_mode_);
    if (!view.IsForward()) {
      *canonical = cur;
      return rec;
    }
    const Rid next = view.ForwardTarget();
    if (delete_stubs) TB_RETURN_IF_ERROR(File(cur.file_id)->Delete(cur));
    cur = next;
  }
  return Status::Corruption("forwarding chain too long");
}

Result<Rid> ObjectStore::ResolveForward(const Rid& rid) {
  Rid canonical;
  TB_RETURN_IF_ERROR(ReadRecord(rid, &canonical).status());
  return canonical;
}

uint64_t ObjectStore::AliasedKey(uint64_t key) const {
  if (ht_->alias.empty()) return key;
  auto it = ht_->alias.find(key);
  return it != ht_->alias.end() ? it->second : key;
}

template <typename OnFresh>
Result<ObjectHandle*> ObjectStore::Grant(const Rid& rid, OnFresh&& on_fresh) {
  if (ObjectHandle* h = ht_->handles.Find(AliasedKey(rid.Packed()))) {
    // Already resident: cheap re-reference (no page access needed — the
    // handle caches the object's location and bookkeeping).
    sim_->ChargeHandleLookup();
    ++h->refcount;
    if (observer_ != nullptr) observer_->OnObjectAccess(h->rid);
    return h;
  }

  // Materialize: read the record (this ensures page residency and charges
  // any fault), then allocate and initialize the handle.
  Rid canonical;
  std::span<const uint8_t> rec;
  TB_ASSIGN_OR_RETURN(rec, ReadRecord(rid, &canonical));
  if (observer_ != nullptr) observer_->OnObjectAccess(canonical);
  uint64_t canon_key = canonical.Packed();
  if (canon_key != rid.Packed()) {
    ht_->alias[rid.Packed()] = canon_key;
    if (ObjectHandle* h = ht_->handles.Find(canon_key)) {
      sim_->ChargeHandleLookup();
      ++h->refcount;
      return h;
    }
  }

  ObjectHandle* h = ht_->handles.Insert(canon_key);
  h->class_id = ObjectView(rec, nullptr, string_mode_).class_id();
  h->refcount = 1;
  on_fresh();
  return h;
}

Result<ObjectHandle*> ObjectStore::Get(const Rid& rid) {
  return Grant(rid, [this] {
    sim_->ChargeHandleGet();
    sim_->AddHandleMemory(static_cast<int64_t>(sim_->HandleBytes()));
    MaybeCollectZombies();
  });
}

Result<std::vector<ObjectHandle*>> ObjectStore::GetBatch(
    std::span<const Rid> rids) {
  std::vector<ObjectHandle*> out;
  out.reserve(rids.size());
  uint64_t materialized = 0;
  Status err = Status::OK();
  for (const Rid& rid : rids) {
    Result<ObjectHandle*> h = Grant(rid, [&materialized] { ++materialized; });
    if (!h.ok()) {
      err = h.status();
      break;
    }
    out.push_back(*h);
  }

  // The grouped allocation: one batch-grab setup amortized over all fresh
  // handles, with handle_gets and the modeled footprint still counting each.
  sim_->ChargeHandleGetBatch(materialized);
  sim_->AddHandleMemory(
      static_cast<int64_t>(materialized * sim_->HandleBytes()));
  MaybeCollectZombies();
  if (!err.ok()) {
    UnrefBatch(out);
    return err;
  }
  return out;
}

void ObjectStore::Unref(ObjectHandle* handle) {
  TB_CHECK(handle != nullptr && handle->refcount > 0);
  sim_->ChargeHandleUnref();
  if (--handle->refcount == 0) {
    // Delayed destruction: park on the zombie list.
    ht_->zombies.push_back(handle->rid.Packed());
  }
}

void ObjectStore::UnrefBatch(std::span<ObjectHandle* const> handles) {
  for (ObjectHandle* handle : handles) {
    TB_CHECK(handle != nullptr && handle->refcount > 0);
    if (--handle->refcount == 0) {
      ht_->zombies.push_back(handle->rid.Packed());
    }
  }
  sim_->ChargeHandleUnrefBatch(handles.size());
}

Status ObjectStore::DeleteRecord(const Rid& rid) {
  // Walk the forwarding chain, deleting each stub, then the record itself.
  Rid canonical;
  TB_RETURN_IF_ERROR(
      ReadRecord(rid, &canonical, /*delete_stubs=*/true).status());
  TB_RETURN_IF_ERROR(File(canonical.file_id)->Delete(canonical));

  uint64_t key = canonical.Packed();
  if (ht_->handles.Erase(key)) {
    sim_->AddHandleMemory(-static_cast<int64_t>(sim_->HandleBytes()));
  }
  // Stale zombie-deque entries for `key` are harmless: collection passes
  // skip keys with no handle entry.
  for (auto a = ht_->alias.begin(); a != ht_->alias.end();) {
    a = (a->second == key) ? ht_->alias.erase(a) : std::next(a);
  }
  return Status::OK();
}

void ObjectStore::FreeIfZombie(uint64_t key) {
  // The deque may name a key that was since erased, or whose handle was
  // re-referenced (and maybe parked again): only a resident refcount-0
  // handle is freed.
  ObjectHandle* h = ht_->handles.Find(key);
  if (h != nullptr && h->refcount == 0) {
    ht_->handles.Erase(key);
    sim_->AddHandleMemory(-static_cast<int64_t>(sim_->HandleBytes()));
  }
}

void ObjectStore::MaybeCollectZombies() {
  uint64_t bytes = sim_->HandleBytes();
  if (ht_->handles.size() * bytes <= handle_arena_bytes_) return;
  size_t target = handle_arena_bytes_ / bytes / 2;
  while (!ht_->zombies.empty() && ht_->handles.size() > target) {
    FreeIfZombie(ht_->zombies.front());
    ht_->zombies.pop_front();
  }
}

void ObjectStore::ReleaseZombies() {
  while (!ht_->zombies.empty()) {
    FreeIfZombie(ht_->zombies.front());
    ht_->zombies.pop_front();
  }
}

void ObjectStore::DropAllHandles() {
  sim_->AddHandleMemory(-static_cast<int64_t>(ht_->handles.size() *
                                              sim_->HandleBytes()));
  ht_->handles.Clear();
  ht_->zombies.clear();
  ht_->alias.clear();
}

template <typename Decode>
auto ObjectStore::ReadAttr(ObjectHandle* h, Decode&& decode) {
  using R = decltype(decode(std::declval<const ObjectView&>()));
  Result<std::span<const uint8_t>> rec = File(h->rid.file_id)->Read(h->rid);
  if (!rec.ok()) return R(rec.status());
  sim_->ChargeAttrAccess();
  return decode(
      ObjectView(*rec, &schema_->GetClass(h->class_id), string_mode_));
}

Result<int32_t> ObjectStore::GetInt32(ObjectHandle* h, size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<int32_t> {
    return view.GetInt32(attr);
  });
}

Result<char> ObjectStore::GetChar(ObjectHandle* h, size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<char> {
    return view.GetChar(attr);
  });
}

Result<std::string> ObjectStore::GetString(ObjectHandle* h, size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<std::string> {
    if (string_mode_ == StringStorage::kInline) {
      return std::string(view.GetInlineString(attr));
    }
    Rid srid = view.GetStringRid(attr);
    std::span<const uint8_t> payload;
    TB_ASSIGN_OR_RETURN(payload, File(srid.file_id)->Read(srid));
    sim_->ChargeLiteralHandle();
    return std::string(reinterpret_cast<const char*>(payload.data()),
                       payload.size());
  });
}

Result<Rid> ObjectStore::GetRef(ObjectHandle* h, size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<Rid> {
    return view.GetRef(attr);
  });
}

Result<std::vector<Rid>> ObjectStore::GetRefSet(ObjectHandle* h,
                                                size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<std::vector<Rid>> {
    Rid set_rid = view.GetSetRid(attr);
    if (!set_rid.valid()) return std::vector<Rid>{};
    return sets_.Read(File(set_rid.file_id), set_rid);
  });
}

Result<uint32_t> ObjectStore::GetRefSetCount(ObjectHandle* h, size_t attr) {
  return ReadAttr(h, [&](const ObjectView& view) -> Result<uint32_t> {
    Rid set_rid = view.GetSetRid(attr);
    if (!set_rid.valid()) return 0u;
    return sets_.Count(File(set_rid.file_id), set_rid);
  });
}

Result<ObjectData> ObjectStore::Materialize(ObjectHandle* h) {
  const ClassDef& cls = schema_->GetClass(h->class_id);
  ObjectData data;
  data.reserve(cls.attr_count());
  for (size_t i = 0; i < cls.attr_count(); ++i) {
    switch (cls.attr(i).type) {
      case AttrType::kInt32: {
        int32_t v = 0;
        TB_ASSIGN_OR_RETURN(v, GetInt32(h, i));
        data.emplace_back(v);
        break;
      }
      case AttrType::kChar: {
        char v = 0;
        TB_ASSIGN_OR_RETURN(v, GetChar(h, i));
        data.emplace_back(v);
        break;
      }
      case AttrType::kString: {
        std::string v;
        TB_ASSIGN_OR_RETURN(v, GetString(h, i));
        data.emplace_back(std::move(v));
        break;
      }
      case AttrType::kRef: {
        Rid v;
        TB_ASSIGN_OR_RETURN(v, GetRef(h, i));
        data.emplace_back(v);
        break;
      }
      case AttrType::kRefSet: {
        std::vector<Rid> v;
        TB_ASSIGN_OR_RETURN(v, GetRefSet(h, i));
        data.emplace_back(std::move(v));
        break;
      }
    }
  }
  return data;
}

Result<std::span<uint8_t>> ObjectStore::MutableRecord(const Rid& rid,
                                                      Rid* canonical) {
  TB_RETURN_IF_ERROR(ReadRecord(rid, canonical).status());
  return File(canonical->file_id)->ReadMutable(*canonical);
}

const ClassDef& ObjectStore::RecordClass(
    std::span<const uint8_t> rec) const {
  return schema_->GetClass(ObjectView(rec, nullptr, string_mode_).class_id());
}

Status ObjectStore::SetInt32(const Rid& rid, size_t attr, int32_t v) {
  Rid canonical;
  std::span<uint8_t> rec;
  TB_ASSIGN_OR_RETURN(rec, MutableRecord(rid, &canonical));
  object_layout::SetInt32At(rec, RecordClass(rec), string_mode_, attr, v);
  return Status::OK();
}

Status ObjectStore::SetRef(const Rid& rid, size_t attr, const Rid& v) {
  Rid canonical;
  std::span<uint8_t> rec;
  TB_ASSIGN_OR_RETURN(rec, MutableRecord(rid, &canonical));
  object_layout::SetRefAt(rec, RecordClass(rec), string_mode_, attr, v);
  return Status::OK();
}

Status ObjectStore::SetRefSet(const Rid& rid, size_t attr,
                              const std::vector<Rid>& elements,
                              uint16_t set_overflow_file) {
  Rid canonical;
  TB_RETURN_IF_ERROR(ReadRecord(rid, &canonical).status());
  uint16_t overflow = set_overflow_file != 0xFFFF ? set_overflow_file
                                                  : DefaultOverflowFile();
  RecordFile* home = File(canonical.file_id);

  std::span<const uint8_t> rec_ro;
  TB_ASSIGN_OR_RETURN(rec_ro, home->Read(canonical));
  const ClassDef& cls = RecordClass(rec_ro);
  Rid old_set = ObjectView(rec_ro, &cls, string_mode_).GetSetRid(attr);

  Rid new_set;
  if (!old_set.valid()) {
    if (elements.empty()) return Status::OK();
    TB_ASSIGN_OR_RETURN(new_set, sets_.Write(home, overflow, elements));
  } else {
    TB_ASSIGN_OR_RETURN(new_set,
                        sets_.Update(home, overflow, old_set, elements));
  }
  if (new_set != old_set) {
    std::span<uint8_t> rec;
    TB_ASSIGN_OR_RETURN(rec, home->ReadMutable(canonical));
    object_layout::SetSetRidAt(rec, cls, string_mode_, attr, new_set);
  }
  return Status::OK();
}

Result<Rid> ObjectStore::AddIndexRef(const Rid& rid, uint32_t index_id) {
  Rid canonical;
  {
    std::span<uint8_t> rec;
    TB_ASSIGN_OR_RETURN(rec, MutableRecord(rid, &canonical));
    Status s = object_layout::AddIndexIdAt(rec, index_id);
    if (s.ok()) return canonical;
    if (!s.IsResourceExhausted()) return s;
  }

  // No free slot: relocate the object with a grown header (the paper's
  // "reallocate all objects on disk so as to add index information in their
  // header" — Section 3.2). The old record becomes a forwarding stub, so
  // existing references stay valid but pay an extra hop, and the physical
  // organization is destroyed.
  RecordFile* home = File(canonical.file_id);
  std::span<const uint8_t> old_rec;
  TB_ASSIGN_OR_RETURN(old_rec, home->Read(canonical));
  ObjectView old_view(old_rec, nullptr, string_mode_);
  const uint16_t class_id = old_view.class_id();
  std::vector<uint8_t> grown = object_layout::GrowIndexHeader(
      old_rec, static_cast<uint8_t>(old_view.index_capacity() +
                                    object_layout::kDefaultIndexCapacity));
  Status add = object_layout::AddIndexIdAt(grown, index_id);
  TB_CHECK(add.ok());

  sim_->ChargeRelocation();
  has_relocations_ = true;
  Rid new_rid;
  TB_ASSIGN_OR_RETURN(new_rid, home->Append(grown));
  std::vector<uint8_t> stub = object_layout::EncodeForward(class_id, new_rid);
  TB_RETURN_IF_ERROR(home->Update(canonical, stub));
  ht_->alias[canonical.Packed()] = new_rid.Packed();
  return new_rid;
}

Result<std::vector<uint32_t>> ObjectStore::GetIndexIds(const Rid& rid) {
  Rid canonical;
  std::span<const uint8_t> rec;
  TB_ASSIGN_OR_RETURN(rec, ReadRecord(rid, &canonical));
  ObjectView view(rec, nullptr, string_mode_);
  std::vector<uint32_t> ids;
  ids.reserve(view.index_count());
  for (uint8_t i = 0; i < view.index_count(); ++i) {
    ids.push_back(view.index_id(i));
  }
  return ids;
}

Status ObjectStore::RemoveIndexRef(const Rid& rid, uint32_t index_id) {
  Rid canonical;
  std::span<uint8_t> rec;
  TB_ASSIGN_OR_RETURN(rec, MutableRecord(rid, &canonical));
  object_layout::RemoveIndexIdAt(rec, index_id);
  return Status::OK();
}

}  // namespace treebench
