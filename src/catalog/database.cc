#include "src/catalog/database.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"

namespace treebench {

std::string_view ClusteringName(ClusteringStrategy c) {
  switch (c) {
    case ClusteringStrategy::kClassClustered:
      return "class";
    case ClusteringStrategy::kRandomized:
      return "random";
    case ClusteringStrategy::kComposition:
      return "composition";
    case ClusteringStrategy::kAssociationOrdered:
      return "association";
  }
  return "unknown";
}

Database::Database(DatabaseOptions opts)
    : opts_(opts),
      sim_(opts.cost),
      cache_(&disk_, &sim_, opts.cache, opts.placement),
      store_(&schema_, &cache_, &sim_, opts.strings, opts.fill_factor) {
  sim_.set_handle_mode(opts.handles);
}

Result<PersistentCollection*> Database::CreateCollection(
    const std::string& name) {
  if (collections_.count(name) != 0) {
    return Status::AlreadyExists("collection " + name + " already exists");
  }
  uint16_t file_id = disk_.CreateFile("__collection_" + name);
  auto col =
      std::make_unique<PersistentCollection>(&cache_, &sim_, file_id, name);
  PersistentCollection* ptr = col.get();
  collections_[name] = std::move(col);
  return ptr;
}

Result<PersistentCollection*> Database::GetCollection(
    const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named " + name);
  }
  return it->second.get();
}

IndexInfo* Database::FindIndex(const std::string& collection, size_t attr) {
  for (auto& idx : indexes_) {
    if (idx->collection == collection && idx->attr == attr) return idx.get();
  }
  return nullptr;
}

IndexInfo* Database::FindIndexByName(const std::string& index_name) {
  for (auto& idx : indexes_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

bool Database::CollectionIsIndexed(const std::string& collection) const {
  for (const auto& idx : indexes_) {
    if (idx->collection == collection) return true;
  }
  return false;
}

Result<IndexInfo*> Database::CreateIndex(const std::string& index_name,
                                         const std::string& collection,
                                         const std::string& class_name,
                                         const std::string& attr_name,
                                         IndexBuildMode mode,
                                         bool clustered) {
  if (FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists("index " + index_name + " already exists");
  }
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, GetCollection(collection));
  const ClassDef* cls = nullptr;
  TB_ASSIGN_OR_RETURN(cls, schema_.FindClass(class_name));
  size_t attr = 0;
  TB_ASSIGN_OR_RETURN(attr, cls->AttrIndex(attr_name));
  if (cls->attr(attr).type != AttrType::kInt32) {
    return Status::InvalidArgument("only int32 attributes are indexable");
  }

  auto info = std::make_unique<IndexInfo>();
  info->id = static_cast<uint32_t>(indexes_.size());
  info->name = index_name;
  info->collection = collection;
  info->class_id = cls->id();
  info->attr = attr;
  info->clustered = clustered;
  uint16_t file_id = disk_.CreateFile("__index_" + index_name);
  info->tree = std::make_unique<BTreeIndex>(&cache_, &sim_, file_id);
  IndexInfo* ptr = info.get();
  indexes_.push_back(std::move(info));

  uint64_t col_count = 0;
  TB_ASSIGN_OR_RETURN(col_count, col->Count());
  if (mode == IndexBuildMode::kPredeclared || col_count == 0) return ptr;

  // The Section 3.2 trap, faithfully: every member's header must record
  // its membership. Objects created without header slots are relocated
  // (forwarding stubs destroy the physical organization); the extent is
  // repaired to point at the new locations.
  const bool incremental = mode == IndexBuildMode::kAfterLoadIncremental;
  std::vector<std::pair<int64_t, Rid>> entries;
  if (!incremental) entries.reserve(col_count);
  uint64_t position = 0;
  auto it = col->Scan();
  for (; it.Valid(); it.Next(), ++position) {
    Rid canonical;
    TB_ASSIGN_OR_RETURN(canonical, store_.AddIndexRef(it.rid(), ptr->id));
    if (canonical != it.rid()) {
      TB_RETURN_IF_ERROR(col->Set(position, canonical));
    }
    int32_t key = 0;
    TB_ASSIGN_OR_RETURN(key, IndexKey(canonical, attr));
    if (incremental) {
      TB_RETURN_IF_ERROR(ptr->tree->Insert(key, canonical));
    } else {
      entries.emplace_back(key, canonical);
    }
  }
  TB_RETURN_IF_ERROR(it.status());
  if (!incremental) TB_RETURN_IF_ERROR(BulkBuildSorted(ptr, &entries));
  return ptr;
}

Result<int32_t> Database::IndexKey(const Rid& rid, size_t attr) {
  ObjectHandle* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, store_.Get(rid));
  int32_t key = 0;
  TB_ASSIGN_OR_RETURN(key, store_.GetInt32(h, attr));
  store_.Unref(h);
  return key;
}

Status Database::BulkBuildSorted(IndexInfo* idx,
                                 std::vector<std::pair<int64_t, Rid>>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.Packed() < b.second.Packed();
            });
  sim_.ChargeSort(entries->size());
  return idx->tree->BulkBuild(*entries);
}

Result<Rid> Database::NotifyInsert(const std::string& collection,
                                   const Rid& rid) {
  Rid canonical = rid;
  for (auto& idx : indexes_) {
    if (idx->collection != collection) continue;
    TB_ASSIGN_OR_RETURN(canonical, store_.AddIndexRef(canonical, idx->id));
    int32_t key = 0;
    TB_ASSIGN_OR_RETURN(key, IndexKey(canonical, idx->attr));
    TB_RETURN_IF_ERROR(idx->tree->Insert(key, canonical));
  }
  return canonical;
}

Status Database::Analyze(const std::string& collection) {
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, GetCollection(collection));
  CollectionStats stats;
  std::unordered_set<uint64_t> pages;
  uint64_t prev_packed = 0;
  bool ordered = true;
  uint16_t class_id = 0xFFFF;
  uint64_t fanout_samples = 0;
  std::map<size_t, uint64_t> fanout_total;

  auto it = col->Scan();
  for (; it.Valid(); it.Next()) {
    const Rid& rid = it.rid();
    ++stats.count;
    pages.insert((static_cast<uint64_t>(rid.file_id) << 32) | rid.page_id);
    if (rid.Packed() < prev_packed) ordered = false;
    prev_packed = rid.Packed();

    ObjectHandle* h = nullptr;
    TB_ASSIGN_OR_RETURN(h, store_.Get(rid));
    if (class_id == 0xFFFF) class_id = h->class_id;
    const ClassDef& cls = schema_.GetClass(h->class_id);
    for (size_t a = 0; a < cls.attr_count(); ++a) {
      if (cls.attr(a).type == AttrType::kInt32) {
        int32_t v = 0;
        TB_ASSIGN_OR_RETURN(v, store_.GetInt32(h, a));
        auto [mit, inserted] = stats.int_attr_range.try_emplace(
            a, std::pair<int64_t, int64_t>{v, v});
        if (!inserted) {
          mit->second.first = std::min<int64_t>(mit->second.first, v);
          mit->second.second = std::max<int64_t>(mit->second.second, v);
        }
      } else if (cls.attr(a).type == AttrType::kRefSet) {
        uint32_t n = 0;
        TB_ASSIGN_OR_RETURN(n, store_.GetRefSetCount(h, a));
        fanout_total[a] += n;
      }
    }
    ++fanout_samples;
    store_.Unref(h);
  }
  TB_RETURN_IF_ERROR(it.status());
  stats.object_pages = pages.size();
  stats.scan_clustered = ordered;
  for (auto& [a, total] : fanout_total) {
    stats.avg_fanout[a] =
        fanout_samples == 0
            ? 0.0
            : static_cast<double>(total) / static_cast<double>(fanout_samples);
  }
  stats_[collection] = std::move(stats);
  return Status::OK();
}

const CollectionStats* Database::GetStats(
    const std::string& collection) const {
  auto it = stats_.find(collection);
  return it == stats_.end() ? nullptr : &it->second;
}

Status Database::UpdateIndexedInt32(const Rid& rid, size_t attr,
                                    int32_t value) {
  Rid canonical;
  TB_ASSIGN_OR_RETURN(canonical, store_.ResolveForward(rid));
  ObjectHandle* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, store_.Get(canonical));
  uint16_t class_id = h->class_id;
  const ClassDef& cls = schema_.GetClass(class_id);
  if (attr >= cls.attr_count() ||
      cls.attr(attr).type != AttrType::kInt32) {
    store_.Unref(h);
    return Status::InvalidArgument("attribute is not int32");
  }
  int32_t old_value = 0;
  TB_ASSIGN_OR_RETURN(old_value, store_.GetInt32(h, attr));
  store_.Unref(h);
  if (old_value == value) return Status::OK();

  // The header tells us exactly which indexes contain this object.
  std::vector<uint32_t> ids;
  TB_ASSIGN_OR_RETURN(ids, store_.GetIndexIds(canonical));
  for (uint32_t id : ids) {
    IndexInfo* idx = IndexById(id);
    if (idx == nullptr || idx->attr != attr || idx->class_id != class_id) {
      continue;
    }
    TB_RETURN_IF_ERROR(idx->tree->Remove(old_value, canonical));
    TB_RETURN_IF_ERROR(idx->tree->Insert(value, canonical));
  }
  return store_.SetInt32(canonical, attr, value);
}

Status Database::RemoveFromIndexes(const Rid& canonical) {
  ObjectHandle* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, store_.Get(canonical));
  uint16_t class_id = h->class_id;
  std::vector<uint32_t> ids;
  Result<std::vector<uint32_t>> ids_r = store_.GetIndexIds(canonical);
  if (!ids_r.ok()) {
    store_.Unref(h);
    return ids_r.status();
  }
  ids = std::move(*ids_r);
  Status st = Status::OK();
  for (uint32_t id : ids) {
    IndexInfo* idx = IndexById(id);
    if (idx == nullptr || idx->class_id != class_id) continue;
    int32_t key = 0;
    Result<int32_t> key_r = store_.GetInt32(h, idx->attr);
    if (!key_r.ok()) {
      st = key_r.status();
      break;
    }
    key = *key_r;
    st = idx->tree->Remove(key, canonical);
    if (!st.ok()) break;
  }
  store_.Unref(h);
  return st;
}

Status Database::DumpAndReload(ClusteringStrategy placement) {
  if (placement != ClusteringStrategy::kClassClustered &&
      placement != ClusteringStrategy::kComposition) {
    return Status::InvalidArgument(
        "dump-and-reload supports class or composition placement");
  }

  // ---- Dump: materialize every collection member ----
  struct Dumped {
    Rid old_rid;
    uint16_t class_id;
    ObjectData data;
  };
  std::map<std::string, std::vector<Dumped>> dumped;
  for (auto& [name, col] : collections_) {
    std::vector<Dumped>& objs = dumped[name];
    uint64_t count = 0;
    TB_ASSIGN_OR_RETURN(count, col->Count());
    objs.reserve(count);
    auto it = col->Scan();
    for (; it.Valid(); it.Next()) {
      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store_.Get(it.rid()));
      Dumped d;
      d.old_rid = h->rid;  // canonical (forwards resolved)
      d.class_id = h->class_id;
      TB_ASSIGN_OR_RETURN(d.data, store_.Materialize(h));
      store_.Unref(h);
      objs.push_back(std::move(d));
    }
    TB_RETURN_IF_ERROR(it.status());
  }
  store_.DropAllHandles();

  // ---- Reload pass 1: rewrite objects compactly, building old->new ----
  std::unordered_map<uint64_t, Rid> remap;
  std::map<std::string, std::vector<Rid>> new_rids;
  ++reload_generation_;

  auto reload_one = [&](const std::string& name, const Dumped& d,
                        uint16_t file_id) -> Status {
    CreateOptions opts;
    opts.file_id = file_id;
    opts.preallocate_index_header = CollectionIsIndexed(name);
    Rid fresh;
    TB_ASSIGN_OR_RETURN(fresh, store_.CreateObject(d.class_id, d.data, opts));
    remap[d.old_rid.Packed()] = fresh;
    new_rids[name].push_back(fresh);
    return Status::OK();
  };
  auto new_file = [&](const std::string& name) {
    return disk_.CreateFile(name + "#reload" +
                            std::to_string(reload_generation_));
  };

  if (placement == ClusteringStrategy::kClassClustered) {
    for (auto& [name, objs] : dumped) {
      uint16_t file_id = new_file(name);
      for (const Dumped& d : objs) {
        TB_RETURN_IF_ERROR(reload_one(name, d, file_id));
      }
    }
  } else {
    // Composition: find parent collections (those whose class has a
    // set<ref> attribute with a declared target) and interleave each
    // parent with its children; remaining collections reload class-wise.
    std::map<std::string, bool> written;
    for (auto& [pname, pobjs] : dumped) {
      if (pobjs.empty() || written[pname]) continue;
      const ClassDef& cls = schema_.GetClass(pobjs.front().class_id);
      int set_attr = -1;
      std::string child_collection;
      for (size_t a = 0; a < cls.attr_count(); ++a) {
        if (cls.attr(a).type != AttrType::kRefSet) continue;
        // Locate the child extent among the dumped collections.
        for (auto& [cname, cobjs] : dumped) {
          if (cname == pname || cobjs.empty() || written[cname]) continue;
          const ClassDef& ccls = schema_.GetClass(cobjs.front().class_id);
          if (ccls.name() == cls.attr(a).target_class) {
            set_attr = static_cast<int>(a);
            child_collection = cname;
            break;
          }
        }
        if (set_attr >= 0) break;
      }
      if (set_attr < 0) continue;  // not a parent; handled below

      uint16_t file_id = new_file(pname);
      std::unordered_map<uint64_t, const Dumped*> child_by_rid;
      for (const Dumped& c : dumped[child_collection]) {
        child_by_rid[c.old_rid.Packed()] = &c;
      }
      std::unordered_set<uint64_t> placed;
      for (const Dumped& p : pobjs) {
        TB_RETURN_IF_ERROR(reload_one(pname, p, file_id));
        for (const Rid& kid :
             AsRefSet(p.data[static_cast<size_t>(set_attr)])) {
          auto it = child_by_rid.find(kid.Packed());
          if (it == child_by_rid.end()) continue;
          TB_RETURN_IF_ERROR(
              reload_one(child_collection, *it->second, file_id));
          placed.insert(kid.Packed());
        }
      }
      // Orphans (children of no dumped parent) go at the tail.
      for (const Dumped& c : dumped[child_collection]) {
        if (placed.count(c.old_rid.Packed()) == 0) {
          TB_RETURN_IF_ERROR(reload_one(child_collection, c, file_id));
        }
      }
      written[pname] = true;
      written[child_collection] = true;
    }
    for (auto& [name, objs] : dumped) {
      if (written[name]) continue;
      uint16_t file_id = new_file(name);
      for (const Dumped& d : objs) {
        TB_RETURN_IF_ERROR(reload_one(name, d, file_id));
      }
    }
  }

  // ---- Pass 2: remap references inside the new objects ----
  // References may still carry pre-relocation rids; resolve through any
  // forwarding stub to the canonical old rid before the lookup.
  auto remapped = [&](const Rid& old) -> Rid {
    auto it = remap.find(old.Packed());
    if (it != remap.end()) return it->second;
    Result<Rid> canonical = store_.ResolveForward(old);
    if (canonical.ok()) {
      it = remap.find(canonical->Packed());
      if (it != remap.end()) return it->second;
    }
    return old;
  };
  for (auto& [name, objs] : dumped) {
    const std::vector<Rid>& fresh = new_rids[name];
    for (size_t i = 0; i < objs.size(); ++i) {
      const ClassDef& cls = schema_.GetClass(objs[i].class_id);
      for (size_t a = 0; a < cls.attr_count(); ++a) {
        if (cls.attr(a).type == AttrType::kRef) {
          const Rid& old_ref = AsRef(objs[i].data[a]);
          if (old_ref.valid()) {
            TB_RETURN_IF_ERROR(
                store_.SetRef(fresh[i], a, remapped(old_ref)));
          }
        } else if (cls.attr(a).type == AttrType::kRefSet) {
          const auto& old_set = AsRefSet(objs[i].data[a]);
          if (old_set.empty()) continue;
          std::vector<Rid> remapped_set;
          remapped_set.reserve(old_set.size());
          for (const Rid& r : old_set) remapped_set.push_back(remapped(r));
          TB_RETURN_IF_ERROR(store_.SetRefSet(fresh[i], a, remapped_set));
        }
      }
    }
  }

  // ---- Pass 3: rebuild extents and indexes ----
  for (auto& [name, col] : collections_) {
    const std::vector<Rid>& fresh = new_rids[name];
    for (size_t i = 0; i < fresh.size(); ++i) {
      TB_RETURN_IF_ERROR(col->Set(i, fresh[i]));
    }
  }
  for (auto& idx : indexes_) {
    std::vector<std::pair<int64_t, Rid>> entries;
    for (const Rid& rid : new_rids[idx->collection]) {
      Rid canonical;
      TB_ASSIGN_OR_RETURN(canonical, store_.AddIndexRef(rid, idx->id));
      int32_t key = 0;
      TB_ASSIGN_OR_RETURN(key, IndexKey(canonical, idx->attr));
      entries.emplace_back(key, canonical);
    }
    TB_RETURN_IF_ERROR(BulkBuildSorted(idx.get(), &entries));
  }

  store_.DropAllHandles();
  store_.clear_relocations_flag();
  set_clustering(placement);
  // Stats that describe physical placement are stale now.
  for (auto& [name, stats] : stats_) {
    TB_RETURN_IF_ERROR(Analyze(name));
  }
  return Status::OK();
}

Status Database::ColdRestart() {
  Status s = cache_.Shutdown();
  store_.DropAllHandles();
  return s;
}

}  // namespace treebench
