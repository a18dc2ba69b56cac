#ifndef TREEBENCH_CATALOG_DATABASE_H_
#define TREEBENCH_CATALOG_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/two_level_cache.h"
#include "src/catalog/collection.h"
#include "src/common/status.h"
#include "src/cost/cost_model.h"
#include "src/cost/sim_context.h"
#include "src/index/btree_index.h"
#include "src/objects/object_store.h"
#include "src/objects/schema.h"
#include "src/storage/disk_manager.h"

namespace treebench {

/// The three physical organizations of the paper's Figure 2, plus the
/// association-ordered variant the paper suggests in Section 5.3 (store
/// children in their own file but ordered by their parent, as in
/// Carey & Lapis' Starburst join attachment).
enum class ClusteringStrategy {
  kClassClustered,      // one file per class
  kRandomized,          // all objects in one file, random interleaving
  kComposition,         // children placed right after their parent
  kAssociationOrdered,  // separate files, children ordered by parent
};

std::string_view ClusteringName(ClusteringStrategy c);

/// Per-collection statistics the cost-based optimizer consumes. Populated
/// by Database::Analyze.
struct CollectionStats {
  uint64_t count = 0;
  /// Distinct data pages holding the collection's objects.
  uint64_t object_pages = 0;
  /// Min/max per int32 attribute index (for selectivity estimation).
  std::map<size_t, std::pair<int64_t, int64_t>> int_attr_range;
  /// Average cardinality per set<ref> attribute index.
  std::map<size_t, double> avg_fanout;
  /// True when collection-scan order matches physical object order.
  bool scan_clustered = true;
};

/// How CreateIndex builds its entries.
enum class IndexBuildMode {
  /// Index exists before objects do; entries are added per insertion (the
  /// loader calls NotifyInsert). Objects carry preallocated header slots.
  kPredeclared,
  /// Collection already populated: every member's header must grow (the
  /// Section 3.2 relocation storm when headers lack slots), then the tree
  /// is bulk-built from sorted entries — the modern shortcut, used by the
  /// generators when the final state is what matters.
  kAfterLoad,
  /// As kAfterLoad, but entries are inserted into the tree one by one in
  /// scan order, as O2 did in 1997 (random key order thrashes the cache).
  kAfterLoadIncremental,
};

struct IndexInfo {
  uint32_t id = 0;
  std::string name;
  std::string collection;
  uint16_t class_id = 0;
  size_t attr = 0;
  /// Leaf order correlates with physical object order (paper: the mrn/upin
  /// indexes are clustered, the `num` index is not).
  bool clustered = false;
  std::unique_ptr<BTreeIndex> tree;
};

/// Knobs of one simulated database instance.
struct DatabaseOptions {
  CostModel cost = CostModel::Sparc20();
  CacheConfig cache;
  StringStorage strings = StringStorage::kInline;
  HandleMode handles = HandleMode::kFat;
  /// Page fill factor for object files (O2 leaves growth slack).
  double fill_factor = 0.9;
  /// Sharded page service configuration (docs/replication_model.md). The
  /// default — one server, no replication — is the classic engine.
  PlacementOptions placement;
};

/// One client's private slice of the engine: the virtual clock (and Metrics)
/// its work is charged to, its client-level page cache and its handle space.
/// The server cache level, the disk, the catalog and the indexes stay shared.
/// Workload sessions and the background reorganizer each own one; while
/// Database::Bind's scope is alive the shared engine charges, caches and
/// materializes through it.
struct ExecContext {
  explicit ExecContext(uint32_t client_pages) : client_cache(client_pages) {}

  SimClock clock;
  LruPageCache client_cache;
  HandleTable handles;
};

class ExecScope;

/// One O2-like database: simulated disk + two-level cache + schema + object
/// store + named collections + indexes, all charging a single SimContext.
class Database {
 public:
  explicit Database(DatabaseOptions opts = DatabaseOptions{});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SimContext& sim() { return sim_; }
  TwoLevelCache& cache() { return cache_; }
  /// Installs `ctx` as the engine's clock, client cache and handle table
  /// until the returned scope ends, which reinstalls the previous triple.
  /// Scopes nest (LIFO). Callers must not hold ObjectHandle pointers across
  /// a scope boundary.
  [[nodiscard]] ExecScope Bind(ExecContext* ctx);
  /// Current page -> shard placement of the page service.
  const PlacementMap& placement() const { return cache_.placement(); }
  /// Repartitions the page service (validates, flushes through the old
  /// placement, rebuilds cold shards). No-op for the current placement.
  Status ConfigureShards(const PlacementOptions& opts) {
    return cache_.Reconfigure(opts);
  }
  DiskManager& disk() { return disk_; }
  Schema& schema() { return schema_; }
  ObjectStore& store() { return store_; }
  const DatabaseOptions& options() const { return opts_; }

  uint16_t CreateFile(const std::string& name) {
    return disk_.CreateFile(name);
  }

  Result<uint16_t> CreateClass(const std::string& name,
                               std::vector<AttrDef> attrs) {
    return schema_.AddClass(name, std::move(attrs));
  }

  // ---- Named collections (roots) ----
  Result<PersistentCollection*> CreateCollection(const std::string& name);
  Result<PersistentCollection*> GetCollection(const std::string& name);
  /// Every named collection, in name order (stable): what the recluster
  /// subsystem walks for its extent repairs.
  std::vector<PersistentCollection*> AllCollections() {
    std::vector<PersistentCollection*> out;
    out.reserve(collections_.size());
    for (auto& [name, col] : collections_) out.push_back(col.get());
    return out;
  }

  // ---- Indexes ----
  /// Creates an index over `collection` on int attribute `attr_name` of
  /// `class_name`. kPredeclared registers an empty index (entries arrive
  /// via NotifyInsert); kAfterLoad grows every member's header (relocating
  /// objects without free slots) and bulk-builds the tree.
  Result<IndexInfo*> CreateIndex(const std::string& index_name,
                                 const std::string& collection,
                                 const std::string& class_name,
                                 const std::string& attr_name,
                                 IndexBuildMode mode, bool clustered);

  /// Index on (collection, attr), or null.
  IndexInfo* FindIndex(const std::string& collection, size_t attr);
  IndexInfo* FindIndexByName(const std::string& index_name);
  /// Index whose id is `id` (ids are positions in indexes()), or null.
  IndexInfo* IndexById(uint32_t id) {
    return id < indexes_.size() ? indexes_[id].get() : nullptr;
  }
  const std::vector<std::unique_ptr<IndexInfo>>& indexes() const {
    return indexes_;
  }

  /// Loader hook: maintains all indexes declared on `collection` for a
  /// newly inserted object. Returns the object's canonical rid (header
  /// updates may relocate it, though never for preallocated headers).
  Result<Rid> NotifyInsert(const std::string& collection, const Rid& rid);

  /// True if any index is declared on `collection` (drives header
  /// preallocation at object-creation time).
  bool CollectionIsIndexed(const std::string& collection) const;

  // ---- Statistics ----
  /// Scans the collection and computes optimizer statistics.
  Status Analyze(const std::string& collection);
  const CollectionStats* GetStats(const std::string& collection) const;
  /// Loader-installed stats (avoids a full scan for generated data).
  void SetStats(const std::string& collection, CollectionStats stats) {
    stats_[collection] = std::move(stats);
  }

  /// The clustering strategy this database instance was loaded with
  /// (informational; recorded by the loader for the optimizer/benches).
  ClusteringStrategy clustering() const { return clustering_; }
  void set_clustering(ClusteringStrategy c) { clustering_ = c; }

  // ---- Maintenance ----
  /// Updates an int32 attribute of an object AND every index recorded in
  /// the object's header whose key is that attribute — the reason O2
  /// stores index ids inside objects (Section 4.4's "doctor retires"
  /// scenario: without the header, every index would have to be scanned).
  Status UpdateIndexedInt32(const Rid& rid, size_t attr, int32_t value);

  /// Removes the object's entries from every index recorded in its header
  /// (delete path; `rid` must be canonical). Keys are read back from the
  /// object itself, Section 4.4-style.
  Status RemoveFromIndexes(const Rid& canonical);

  /// Rewrites every collection's objects compactly and rebuilds extents,
  /// references and indexes — the paper's "dump and reload the database
  /// once in a while to maintain a reasonable cluster" (Section 2). Clears
  /// forwarding stubs left by relocations. `placement` chooses the
  /// restored physical organization: kClassClustered writes one fresh file
  /// per collection in extent order; kComposition re-interleaves each
  /// parent with its children (using the schema's ODMG inverse
  /// declarations). Other strategies are rejected.
  Status DumpAndReload(ClusteringStrategy placement);

  /// Server shutdown + client restart: flush and empty both caches and drop
  /// all in-memory handles. Every paper measurement runs cold (Section 2).
  /// The flush can fail under an armed fault campaign.
  Status ColdRestart();

  /// ColdRestart + clock/counter reset: the state in which each paper query
  /// is measured.
  Status BeginMeasuredRun() {
    TB_RETURN_IF_ERROR(ColdRestart());
    sim_.ResetClock();
    return Status::OK();
  }

 private:
  /// The int32 key `attr` of the object at `rid`, read through a handle
  /// (Get, GetInt32, Unref). A failed read returns with the handle still
  /// referenced.
  Result<int32_t> IndexKey(const Rid& rid, size_t attr);

  /// Sorts `entries` by (key, rid), charges the sort and bulk-builds
  /// `idx`'s tree from them.
  Status BulkBuildSorted(IndexInfo* idx,
                         std::vector<std::pair<int64_t, Rid>>* entries);

  DatabaseOptions opts_;
  DiskManager disk_;
  SimContext sim_;
  TwoLevelCache cache_;
  Schema schema_;
  ObjectStore store_;

  std::map<std::string, std::unique_ptr<PersistentCollection>> collections_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
  std::map<std::string, CollectionStats> stats_;
  ClusteringStrategy clustering_ = ClusteringStrategy::kClassClustered;
  uint32_t reload_generation_ = 0;
};

/// The guard Database::Bind returns. Binds clock, client cache and handle
/// table in that order and unbinds in reverse on every exit path. The order
/// is load-bearing: BindClientCache drops the readahead state, so another
/// sequence would move the readahead counters.
class [[nodiscard]] ExecScope {
 public:
  ExecScope(Database* db, ExecContext* ctx)
      : db_(db),
        prev_clock_(db->sim().BindClock(&ctx->clock)),
        prev_cache_(db->cache().BindClientCache(&ctx->client_cache)),
        prev_handles_(db->store().BindHandleTable(&ctx->handles)) {}
  ~ExecScope() {
    db_->store().BindHandleTable(prev_handles_);
    db_->cache().BindClientCache(prev_cache_);
    db_->sim().BindClock(prev_clock_);
  }

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  Database* db_;
  SimClock* prev_clock_;
  LruPageCache* prev_cache_;
  HandleTable* prev_handles_;
};

inline ExecScope Database::Bind(ExecContext* ctx) { return {this, ctx}; }

}  // namespace treebench

#endif  // TREEBENCH_CATALOG_DATABASE_H_
