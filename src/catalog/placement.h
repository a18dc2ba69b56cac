#ifndef TREEBENCH_CATALOG_PLACEMENT_H_
#define TREEBENCH_CATALOG_PLACEMENT_H_

#include <cstdint>

#include "src/common/status.h"

namespace treebench {

/// Configuration of the sharded page service: how many simulated servers
/// and whether each shard keeps a primary/backup replica pair. Pages map to
/// shards by a hash of the page key. The default (one server, no
/// replication) is the classic single-server engine.
struct PlacementOptions {
  uint32_t num_servers = 1;
  /// Primary/backup replication: every page write during load is shipped to
  /// the primary AND the backup shard (both charged); reads go primary-first
  /// and fail over to the backup when the primary is down. Requires
  /// num_servers >= 2.
  bool replication = false;

  friend bool operator==(const PlacementOptions&,
                         const PlacementOptions&) = default;
};

/// Catalog-driven page -> shard map consulted on every TwoLevelCache access,
/// the default one-server map included: the cache has no single-server
/// shortcut, because routing to shard 0 of one disarmed, unreplicated server
/// already charges nothing (docs/replication_model.md). Pure function of
/// (options, page key): no state, no charges, deterministic on every
/// platform.
class PlacementMap {
 public:
  explicit PlacementMap(PlacementOptions opts = PlacementOptions{})
      : opts_(opts) {}

  static Status Validate(const PlacementOptions& opts);

  const PlacementOptions& options() const { return opts_; }
  uint32_t num_servers() const { return opts_.num_servers; }
  bool replication() const { return opts_.replication; }

  /// The shard owning (serving reads for) a page key (PageKey,
  /// src/storage/rid.h): a SplitMix64 hash of the key, modulo the server
  /// count. It spreads every collection evenly and destroys physical
  /// adjacency across servers (two consecutive pages of one file usually
  /// live on different shards).
  uint32_t PrimaryShard(uint64_t page_key) const;

  /// The backup replica of a primary shard (replication on): the next shard
  /// in the ring, so every server is primary for one slice of the placement
  /// and backup for its neighbor's.
  uint32_t BackupShard(uint32_t primary) const {
    return (primary + 1) % opts_.num_servers;
  }

 private:
  PlacementOptions opts_;
};

}  // namespace treebench

#endif  // TREEBENCH_CATALOG_PLACEMENT_H_
