#ifndef TREEBENCH_COST_STATION_REGISTRY_H_
#define TREEBENCH_COST_STATION_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/cost/server_station.h"

namespace treebench {

/// The per-shard service stations of the sharded page service
/// (docs/replication_model.md): one ServerStation per simulated page server,
/// each with its own FIFO reservation timeline — queueing on shard 2 never
/// delays an RPC bound for shard 0. The workload scheduler builds one
/// registry per run and binds it to the TwoLevelCache (BindStations), which
/// admits every RPC at the station of the shard it routes the request to
/// and charges any queueing delay through SimContext::ChargeRpcQueueWait.
///
/// With a single shard this is exactly the old one-ServerStation setup:
/// every RPC routes to Station(0).
class StationRegistry {
 public:
  StationRegistry(uint32_t num_shards, double service_ns,
                  uint32_t max_in_flight) {
    if (num_shards == 0) num_shards = 1;
    stations_.reserve(num_shards);
    for (uint32_t i = 0; i < num_shards; ++i) {
      stations_.push_back(
          std::make_unique<ServerStation>(service_ns, max_in_flight));
    }
  }

  StationRegistry(const StationRegistry&) = delete;
  StationRegistry& operator=(const StationRegistry&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(stations_.size()); }
  ServerStation& Station(uint32_t shard) { return *stations_[shard]; }
  const ServerStation& Station(uint32_t shard) const {
    return *stations_[shard];
  }

  // ---- Fleet-wide aggregates (report/telemetry convenience) ----
  double TotalBusyNs() const {
    double total = 0;
    for (const auto& s : stations_) total += s->busy_ns();
    return total;
  }
  uint64_t TotalAdmitted() const {
    uint64_t total = 0;
    for (const auto& s : stations_) total += s->admitted();
    return total;
  }
  uint32_t PeakInFlightAcrossShards() const {
    uint32_t peak = 0;
    for (const auto& s : stations_) {
      if (s->PeakInFlightSinceMark() > peak) peak = s->PeakInFlightSinceMark();
    }
    return peak;
  }
  uint32_t PeakQueueDepthAcrossShards() const {
    uint32_t peak = 0;
    for (const auto& s : stations_) {
      if (s->PeakQueueDepthSinceMark() > peak) {
        peak = s->PeakQueueDepthSinceMark();
      }
    }
    return peak;
  }
  /// Starts a fresh observation window on every shard (telemetry tick).
  void ResetPeakMarks() {
    for (auto& s : stations_) s->ResetPeakMark();
  }

 private:
  // unique_ptr elements because ServerStation is neither copyable nor
  // movable.
  std::vector<std::unique_ptr<ServerStation>> stations_;
};

}  // namespace treebench

#endif  // TREEBENCH_COST_STATION_REGISTRY_H_
