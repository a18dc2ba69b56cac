#ifndef TREEBENCH_CATALOG_PLACEMENT_H_
#define TREEBENCH_CATALOG_PLACEMENT_H_

#include <cstdint>

#include "src/common/status.h"

namespace treebench {

/// How pages are partitioned across the simulated page servers
/// (docs/replication_model.md).
enum class PlacementPolicy : uint8_t {
  /// SplitMix64 hash of the page key, modulo the server count: spreads every
  /// collection evenly, destroys physical adjacency across servers (two
  /// consecutive pages of one file usually live on different shards).
  kHash,
  /// Contiguous stripes of `range_block_pages` physically consecutive pages
  /// per shard: sequential runs inside one file stay on one server, so a
  /// clustering-friendly scan talks to one shard at a time.
  kRange,
};

const char* PlacementPolicyName(PlacementPolicy p);

/// Configuration of the sharded page service: how many simulated servers,
/// whether each shard keeps a primary/backup replica pair, and how pages map
/// to shards. The default (one server, no replication) is the classic
/// single-server engine.
struct PlacementOptions {
  uint32_t num_servers = 1;
  /// Primary/backup replication: every page write during load is shipped to
  /// the primary AND the backup shard (both charged); reads go primary-first
  /// and fail over to the backup when the primary is down. Requires
  /// num_servers >= 2.
  bool replication = false;
  PlacementPolicy policy = PlacementPolicy::kHash;
  /// Stripe width (pages) of the kRange policy.
  uint32_t range_block_pages = 64;

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

  /// The shard owning (serving reads for) a page key, as produced by
  /// TwoLevelCache::PageKey.
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
