#include "src/catalog/placement.h"

namespace treebench {

Status PlacementMap::Validate(const PlacementOptions& opts) {
  if (opts.num_servers == 0) {
    return Status::InvalidArgument("placement: num_servers must be >= 1");
  }
  if (opts.replication && opts.num_servers < 2) {
    return Status::InvalidArgument(
        "placement: primary/backup replication needs num_servers >= 2");
  }
  return Status::OK();
}

namespace {

// SplitMix64 finalizer: the same platform-independent mix the fault
// injector's stream uses, applied statelessly to the page key.
uint64_t MixKey(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

uint32_t PlacementMap::PrimaryShard(uint64_t page_key) const {
  if (opts_.num_servers <= 1) return 0;
  return static_cast<uint32_t>(MixKey(page_key) % opts_.num_servers);
}

}  // namespace treebench
