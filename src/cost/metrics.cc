#include "src/cost/metrics.h"

#include <cstdio>

#include "src/common/artifact.h"

namespace treebench {

// Keeps the table in sync with the struct: adding a counter without listing
// it here (and bumping kNumMetricsFields) fails to compile.
static_assert(sizeof(Metrics) == kNumMetricsFields * sizeof(uint64_t),
              "new Metrics field? add it to MetricsFieldTable()");

namespace {
// Constant-initialized (no runtime constructor): bench-cell worker threads
// walk the table concurrently.
constexpr std::array<MetricsField, kNumMetricsFields> kFields = {{
      {"disk_reads", &Metrics::disk_reads},
      {"disk_writes", &Metrics::disk_writes},
      {"rpc_count", &Metrics::rpc_count},
      {"rpc_bytes", &Metrics::rpc_bytes},
      {"server_cache_hits", &Metrics::server_cache_hits},
      {"server_cache_misses", &Metrics::server_cache_misses},
      {"client_cache_hits", &Metrics::client_cache_hits},
      {"client_cache_misses", &Metrics::client_cache_misses},
      {"client_cache_evictions", &Metrics::client_cache_evictions},
      {"server_cache_evictions", &Metrics::server_cache_evictions},
      {"swap_ios", &Metrics::swap_ios},
      {"handle_gets", &Metrics::handle_gets},
      {"handle_lookups", &Metrics::handle_lookups},
      {"handle_unrefs", &Metrics::handle_unrefs},
      {"literal_handles", &Metrics::literal_handles},
      {"attr_accesses", &Metrics::attr_accesses},
      {"comparisons", &Metrics::comparisons},
      {"hash_inserts", &Metrics::hash_inserts},
      {"hash_probes", &Metrics::hash_probes},
      {"sorted_elements", &Metrics::sorted_elements},
      {"set_appends", &Metrics::set_appends},
      {"tuples_built", &Metrics::tuples_built},
      {"objects_created", &Metrics::objects_created},
      {"commits", &Metrics::commits},
      {"relocations", &Metrics::relocations},
      {"index_inserts", &Metrics::index_inserts},
      {"rpc_retries", &Metrics::rpc_retries},
      {"rpc_failures", &Metrics::rpc_failures},
      {"disk_read_faults", &Metrics::disk_read_faults},
      {"disk_write_faults", &Metrics::disk_write_faults},
      {"corruptions_detected", &Metrics::corruptions_detected},
      {"checkpoint_replays", &Metrics::checkpoint_replays},
      {"retry_backoff_ns", &Metrics::retry_backoff_ns},
      {"rpc_queue_wait_ns", &Metrics::rpc_queue_wait_ns},
      {"batched_rpcs", &Metrics::batched_rpcs},
      {"pages_per_batch", &Metrics::pages_per_batch},
      {"readahead_hits", &Metrics::readahead_hits},
      {"readahead_wasted", &Metrics::readahead_wasted},
      {"server_crashes", &Metrics::server_crashes},
      {"failovers", &Metrics::failovers},
      {"degraded_reads", &Metrics::degraded_reads},
      {"replica_writes", &Metrics::replica_writes},
      {"failover_wait_ns", &Metrics::failover_wait_ns},
      {"txn_begins", &Metrics::txn_begins},
      {"txn_commits", &Metrics::txn_commits},
      {"txn_aborts", &Metrics::txn_aborts},
      {"deadlocks", &Metrics::deadlocks},
      {"lock_acquisitions", &Metrics::lock_acquisitions},
      {"lock_waits", &Metrics::lock_waits},
      {"lock_wait_ns", &Metrics::lock_wait_ns},
      {"logical_updates", &Metrics::logical_updates},
      {"logical_inserts", &Metrics::logical_inserts},
      {"logical_deletes", &Metrics::logical_deletes},
      {"undo_bytes", &Metrics::undo_bytes},
      {"redo_bytes", &Metrics::redo_bytes},
      {"dirty_page_writebacks", &Metrics::dirty_page_writebacks},
      {"heat_samples", &Metrics::heat_samples},
      {"pages_migrated", &Metrics::pages_migrated},
      {"objects_migrated", &Metrics::objects_migrated},
      {"migration_aborts", &Metrics::migration_aborts},
      {"recluster_io_ns", &Metrics::recluster_io_ns},
}};
}  // namespace

const std::array<MetricsField, kNumMetricsFields>& MetricsFieldTable() {
  return kFields;
}

std::string MetricsJsonMembers(const Metrics& m, JsonSpacing spacing) {
  const bool spaced = spacing == JsonSpacing::kSpaced;
  std::string out;
  for (const MetricsField& f : MetricsFieldTable()) {
    const uint64_t v = m.*(f.member);
    if (v == 0) continue;
    if (!out.empty()) out += spaced ? ", " : ",";
    out += '"';
    out += f.name;
    out += spaced ? "\": " : "\":";
    out += FormatUint(v);
  }
  return out;
}

Metrics Metrics::Diff(const Metrics& since) const {
  Metrics out;
  for (const MetricsField& f : MetricsFieldTable()) {
    out.*(f.member) = this->*(f.member) - since.*(f.member);
  }
  return out;
}

Metrics& Metrics::operator+=(const Metrics& other) {
  for (const MetricsField& f : MetricsFieldTable()) {
    this->*(f.member) += other.*(f.member);
  }
  return *this;
}

std::string Metrics::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "disk_reads=%llu disk_writes=%llu rpcs=%llu rpc_bytes=%llu\n"
      "client_cache: hits=%llu faults=%llu miss%%=%.1f evictions=%llu\n"
      "server_cache: hits=%llu misses=%llu miss%%=%.1f evictions=%llu "
      "swap_ios=%llu\n"
      "handles: gets=%llu lookups=%llu unrefs=%llu literals=%llu\n"
      "cpu: attr=%llu cmp=%llu hash_ins=%llu hash_probe=%llu sorted=%llu\n"
      "results: set_appends=%llu tuples=%llu\n"
      "faults: rpc_retries=%llu rpc_failures=%llu disk_rd=%llu disk_wr=%llu "
      "corrupt=%llu replays=%llu backoff_ns=%llu\n"
      "queueing: rpc_queue_wait_ns=%llu\n"
      "batching: group_rpcs=%llu pages=%llu ra_hits=%llu ra_wasted=%llu\n"
      "shards: crashes=%llu failovers=%llu degraded_reads=%llu "
      "replica_writes=%llu failover_wait_ns=%llu\n"
      "txn: begins=%llu commits=%llu aborts=%llu deadlocks=%llu\n"
      "locks: acq=%llu waits=%llu wait_ns=%llu\n"
      "writes: upd=%llu ins=%llu del=%llu undo_b=%llu redo_b=%llu "
      "dirty_wb=%llu\n"
      "recluster: heat_samples=%llu pages_migrated=%llu "
      "objects_migrated=%llu aborts=%llu io_ns=%llu",
      static_cast<unsigned long long>(disk_reads),
      static_cast<unsigned long long>(disk_writes),
      static_cast<unsigned long long>(rpc_count),
      static_cast<unsigned long long>(rpc_bytes),
      static_cast<unsigned long long>(client_cache_hits),
      static_cast<unsigned long long>(client_cache_misses),
      ClientMissRatePct(),
      static_cast<unsigned long long>(client_cache_evictions),
      static_cast<unsigned long long>(server_cache_hits),
      static_cast<unsigned long long>(server_cache_misses),
      ServerMissRatePct(),
      static_cast<unsigned long long>(server_cache_evictions),
      static_cast<unsigned long long>(swap_ios),
      static_cast<unsigned long long>(handle_gets),
      static_cast<unsigned long long>(handle_lookups),
      static_cast<unsigned long long>(handle_unrefs),
      static_cast<unsigned long long>(literal_handles),
      static_cast<unsigned long long>(attr_accesses),
      static_cast<unsigned long long>(comparisons),
      static_cast<unsigned long long>(hash_inserts),
      static_cast<unsigned long long>(hash_probes),
      static_cast<unsigned long long>(sorted_elements),
      static_cast<unsigned long long>(set_appends),
      static_cast<unsigned long long>(tuples_built),
      static_cast<unsigned long long>(rpc_retries),
      static_cast<unsigned long long>(rpc_failures),
      static_cast<unsigned long long>(disk_read_faults),
      static_cast<unsigned long long>(disk_write_faults),
      static_cast<unsigned long long>(corruptions_detected),
      static_cast<unsigned long long>(checkpoint_replays),
      static_cast<unsigned long long>(retry_backoff_ns),
      static_cast<unsigned long long>(rpc_queue_wait_ns),
      static_cast<unsigned long long>(batched_rpcs),
      static_cast<unsigned long long>(pages_per_batch),
      static_cast<unsigned long long>(readahead_hits),
      static_cast<unsigned long long>(readahead_wasted),
      static_cast<unsigned long long>(server_crashes),
      static_cast<unsigned long long>(failovers),
      static_cast<unsigned long long>(degraded_reads),
      static_cast<unsigned long long>(replica_writes),
      static_cast<unsigned long long>(failover_wait_ns),
      static_cast<unsigned long long>(txn_begins),
      static_cast<unsigned long long>(txn_commits),
      static_cast<unsigned long long>(txn_aborts),
      static_cast<unsigned long long>(deadlocks),
      static_cast<unsigned long long>(lock_acquisitions),
      static_cast<unsigned long long>(lock_waits),
      static_cast<unsigned long long>(lock_wait_ns),
      static_cast<unsigned long long>(logical_updates),
      static_cast<unsigned long long>(logical_inserts),
      static_cast<unsigned long long>(logical_deletes),
      static_cast<unsigned long long>(undo_bytes),
      static_cast<unsigned long long>(redo_bytes),
      static_cast<unsigned long long>(dirty_page_writebacks),
      static_cast<unsigned long long>(heat_samples),
      static_cast<unsigned long long>(pages_migrated),
      static_cast<unsigned long long>(objects_migrated),
      static_cast<unsigned long long>(migration_aborts),
      static_cast<unsigned long long>(recluster_io_ns));
  return buf;
}

}  // namespace treebench
