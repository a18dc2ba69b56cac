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
  // Every counter as name=value in MetricsFieldTable order, wrapped at 80
  // columns, then the two miss rates.
  std::string out;
  size_t column = 0;
  for (const MetricsField& f : MetricsFieldTable()) {
    const std::string token =
        std::string(f.name) + '=' + FormatUint(this->*(f.member));
    if (column > 0 && column + 1 + token.size() > 80) {
      out += '\n';
      column = 0;
    } else if (column > 0) {
      out += ' ';
      ++column;
    }
    out += token;
    column += token.size();
  }
  char rates[80];
  std::snprintf(rates, sizeof(rates), "\nclient_miss%%=%.1f server_miss%%=%.1f",
                ClientMissRatePct(), ServerMissRatePct());
  return out + rates;
}

}  // namespace treebench
