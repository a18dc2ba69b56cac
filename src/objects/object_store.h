#ifndef TREEBENCH_OBJECTS_OBJECT_STORE_H_
#define TREEBENCH_OBJECTS_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/two_level_cache.h"
#include "src/common/status.h"
#include "src/cost/sim_context.h"
#include "src/objects/handle_table.h"
#include "src/objects/object_layout.h"
#include "src/objects/schema.h"
#include "src/objects/set_store.h"
#include "src/objects/value.h"
#include "src/storage/record_file.h"
#include "src/storage/rid.h"

namespace treebench {

/// Observation hook on the object-access path (docs/clustering_model.md).
/// The recluster HeatTracker implements it to learn per-page access heat
/// and parent→child traversal edges. Null (off) by default, so the engine
/// pays one pointer test per handle grant on recluster-off runs and stays
/// bit-identical to the unhooked engine.
class ObjectAccessObserver {
 public:
  virtual ~ObjectAccessObserver() = default;
  /// One handle grant (Get/GetBatch re-reference or materialization),
  /// reported with the object's canonical rid.
  virtual void OnObjectAccess(const Rid& canonical) = 0;
  /// One parent→child composition hop, reported by the query layer
  /// (src/query/tree_query.cc) with both canonical rids.
  virtual void OnTraversal(const Rid& parent, const Rid& child) = 0;
};

/// Placement directives for object creation.
struct CreateOptions {
  /// File receiving the object record (chosen by the clustering strategy).
  uint16_t file_id = 0;
  /// Objects created as members of an indexed collection get 8 index-id
  /// slots in their header up front; others get none and pay a record
  /// relocation when their first index arrives (paper Section 3.2).
  bool preallocate_index_header = false;
  /// File for >page set values; 0xFFFF selects the store's default.
  uint16_t set_overflow_file = 0xFFFF;
};

/// Object persistence + in-memory object management over the cached page
/// store: creation, handle-based access with delayed handle destruction,
/// attribute reads/writes, set materialization, forwarding stubs and the
/// index-header growth path.
class ObjectStore {
 public:
  /// Most records one forwarding walk reads: an object behind this many
  /// stubs or more reads as Corruption.
  static constexpr int kMaxForwardHops = 8;

  ObjectStore(Schema* schema, TwoLevelCache* cache, SimContext* sim,
              StringStorage string_mode = StringStorage::kInline,
              double fill_factor = 0.9, uint64_t handle_arena_bytes = 0);

  /// Modeled budget for resident handles before delayed destruction frees
  /// zombie (refcount-0) handles, O2-style ("the destruction of Handles is
  /// delayed as much as possible", Section 4.4). Defaults to 1/16 of the
  /// modeled machine's RAM (8 MB on the paper's 128 MB Sparc 20).
  uint64_t handle_arena_bytes() const { return handle_arena_bytes_; }

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  Schema* schema() { return schema_; }
  TwoLevelCache* cache() { return cache_; }
  SimContext* sim() { return sim_; }
  StringStorage string_mode() const { return string_mode_; }

  /// Record-file wrapper for a disk file (created lazily, shared cursor).
  RecordFile* File(uint16_t file_id);

  /// The store's default overflow file for large set values.
  uint16_t DefaultOverflowFile();

  // ---- Creation ----
  Result<Rid> CreateObject(uint16_t class_id, const ObjectData& data,
                           const CreateOptions& opts);

  // ---- Handle path (what queries use) ----
  /// Materializes (or re-references) the object's handle. Page residency is
  /// ensured through the cache, so a cold Get also pays the page fault.
  Result<ObjectHandle*> Get(const Rid& rid);
  /// Releases one reference; destruction is delayed (zombie list).
  void Unref(ObjectHandle* handle);

  /// Bulk variant of Get for the vectored-fetch scan paths
  /// (docs/fetch_batching.md): materializes (or re-references) every rid,
  /// in order. Re-references charge the usual per-handle lookup; fresh
  /// materializations are charged as ONE grouped allocation — a fixed
  /// batch-grab setup plus the bulk per-handle rate — with handle_gets
  /// still counting each handle. Zombie collection runs once per batch.
  /// On mid-batch failure every handle granted so far is released and the
  /// error is returned.
  Result<std::vector<ObjectHandle*>> GetBatch(std::span<const Rid> rids);

  /// Releases one reference on each handle, charged at the grouped bulk
  /// rate (handle_unrefs still counts each).
  void UnrefBatch(std::span<ObjectHandle* const> handles);

  Result<int32_t> GetInt32(ObjectHandle* h, size_t attr);
  Result<char> GetChar(ObjectHandle* h, size_t attr);
  Result<std::string> GetString(ObjectHandle* h, size_t attr);
  Result<Rid> GetRef(ObjectHandle* h, size_t attr);
  Result<std::vector<Rid>> GetRefSet(ObjectHandle* h, size_t attr);
  Result<uint32_t> GetRefSetCount(ObjectHandle* h, size_t attr);

  /// Materializes every attribute (convenience for tests/examples).
  Result<ObjectData> Materialize(ObjectHandle* h);

  // ---- Raw updates (loader / maintenance path) ----
  Status SetInt32(const Rid& rid, size_t attr, int32_t v);
  Status SetRef(const Rid& rid, size_t attr, const Rid& v);
  /// Replaces a set value; relocates the set record when it grows.
  Status SetRefSet(const Rid& rid, size_t attr,
                   const std::vector<Rid>& elements,
                   uint16_t set_overflow_file = 0xFFFF);

  /// Deletes the object's record, plus any forwarding stubs along the
  /// chain, and drops its resident handle and aliases. Extent, index and
  /// relationship cleanup is the caller's job (Database-level delete,
  /// src/query/dml.cc). Overflow set/string records stay allocated until
  /// the next DumpAndReload — O2 reclaims dead space on reorganization.
  Status DeleteRecord(const Rid& rid);

  // ---- Index header maintenance ----
  /// Records index membership in the object header. When the header has no
  /// slot (object created unindexed), the object is *relocated*: a bigger
  /// record is appended at the file tail and a forwarding stub replaces the
  /// old record — destroying clustering, exactly the Section 3.2 trap.
  /// Returns the object's canonical Rid after the operation.
  Result<Rid> AddIndexRef(const Rid& rid, uint32_t index_id);
  Status RemoveIndexRef(const Rid& rid, uint32_t index_id);

  /// Follows forwarding stubs to the canonical Rid (charges the page
  /// accesses of each hop).
  Result<Rid> ResolveForward(const Rid& rid);

  /// True once any object has been relocated (stale references may exist).
  bool has_relocations() const { return has_relocations_; }
  void clear_relocations_flag() { has_relocations_ = false; }

  /// Index ids recorded in the object's header (Section 4.4: what lets
  /// updates find the indexes to maintain without scanning them all).
  Result<std::vector<uint32_t>> GetIndexIds(const Rid& rid);

  // ---- Handle table introspection ----
  size_t resident_handles() const { return ht_->handles.size(); }

  /// Binds `table` as the active handle space until rebound (nullptr
  /// restores the built-in table). Returns the previously bound table.
  /// Callers must not hold ObjectHandle pointers across a rebind.
  HandleTable* BindHandleTable(HandleTable* table) {
    HandleTable* prev = ht_;
    ht_ = table != nullptr ? table : &own_handles_;
    return prev;
  }
  HandleTable* bound_handle_table() const { return ht_; }
  /// Binds `obs` as the access observer until rebound (nullptr unhooks).
  /// Returns the previously bound observer so callers can nest.
  ObjectAccessObserver* BindAccessObserver(ObjectAccessObserver* obs) {
    ObjectAccessObserver* prev = observer_;
    observer_ = obs;
    return prev;
  }
  ObjectAccessObserver* access_observer() const { return observer_; }

  /// Installs `obs` as the access observer for the life of the scope
  /// (nullptr pauses observation) and reinstalls the previous observer on
  /// every exit path.
  class [[nodiscard]] ObserverScope {
   public:
    ObserverScope(ObjectStore* store, ObjectAccessObserver* obs)
        : store_(store), prev_(store->BindAccessObserver(obs)) {}
    ~ObserverScope() { store_->BindAccessObserver(prev_); }
    ObserverScope(const ObserverScope&) = delete;
    ObserverScope& operator=(const ObserverScope&) = delete;

   private:
    ObjectStore* store_;
    ObjectAccessObserver* prev_;
  };

  /// Frees all zombie handles immediately (e.g. at transaction end).
  void ReleaseZombies();

  /// Drops every handle unconditionally (cold client restart). Callers must
  /// not hold ObjectHandle pointers across this.
  void DropAllHandles();

  /// Re-derives every cached RecordFile append cursor from the disk's
  /// current page counts. Must be called after a disk rollback truncates
  /// files, or appends would target pages past the new end of file. A
  /// rollback can also delete files born inside the aborted transaction
  /// (e.g. a lazily created set-overflow file), so cached RecordFiles and
  /// the overflow-file id are dropped when their id no longer resolves.
  void ResetFileCursors();

 private:
  /// Reads the object record, following forwards (at most kMaxForwardHops
  /// records are read); returns the canonical rid in *canonical. With
  /// `delete_stubs`, each stub is deleted once its target is read off it.
  Result<std::span<const uint8_t>> ReadRecord(const Rid& rid, Rid* canonical,
                                              bool delete_stubs = false);

  /// The canonical record of `rid` (returned in *canonical), writable in
  /// place.
  Result<std::span<uint8_t>> MutableRecord(const Rid& rid, Rid* canonical);

  /// The class a record's header names.
  const ClassDef& RecordClass(std::span<const uint8_t> rec) const;

  /// One handle grant, shared by Get and GetBatch: re-references the
  /// resident handle of `rid` (through its alias when the object was
  /// relocated) or materializes a fresh one and then calls `on_fresh`,
  /// which charges it (per handle in Get, as one grouped grab in GetBatch).
  template <typename OnFresh>
  Result<ObjectHandle*> Grant(const Rid& rid, OnFresh&& on_fresh);

  /// One attribute read, shared by the Get* accessors: reads the handle's
  /// record through the cache, charges one attribute access and returns
  /// `decode` applied to a view of the record. The page is re-touched on
  /// every read, so an evicted page faults again: objects are not pinned
  /// while a handle exists, as in O2's swappable client cache.
  template <typename Decode>
  auto ReadAttr(ObjectHandle* h, Decode&& decode);

  Result<object_layout::StoredField> ToStoredField(const AttrDef& attr,
                                                   const Value& v,
                                                   RecordFile* home,
                                                   uint16_t overflow_file);

  /// The canonical key `key` is aliased to, or `key` itself.
  uint64_t AliasedKey(uint64_t key) const;

  /// Frees the handle under `key` if it is resident with refcount 0.
  void FreeIfZombie(uint64_t key);
  void MaybeCollectZombies();

  Schema* schema_;
  TwoLevelCache* cache_;
  SimContext* sim_;
  SetStore sets_;
  StringStorage string_mode_;
  double fill_factor_;
  uint64_t handle_arena_bytes_;

  std::unordered_map<uint16_t, std::unique_ptr<RecordFile>> files_;
  uint16_t default_overflow_file_ = 0xFFFF;

  // Active handle space (default: own_handles_). See HandleTable.
  HandleTable own_handles_;
  HandleTable* ht_ = &own_handles_;
  ObjectAccessObserver* observer_ = nullptr;
  bool has_relocations_ = false;
};

}  // namespace treebench

#endif  // TREEBENCH_OBJECTS_OBJECT_STORE_H_
