#ifndef TREEBENCH_CACHE_READAHEAD_H_
#define TREEBENCH_CACHE_READAHEAD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace treebench {

/// How a batched fetch shapes the pages it requests per group RPC
/// (docs/fetch_batching.md). Page keys are PageKey values
/// (src/storage/rid.h), so consecutive key values are physically
/// consecutive pages of one file.
enum class BatchPolicy {
  /// Detect maximal runs of physically consecutive pages and issue one
  /// group RPC per run — the layout-exploiting mode for class- and
  /// composition-clustered scans, whose first-touch order already is disk
  /// order. A fragmented layout degrades gracefully into smaller requests
  /// instead of pretending scattered pages are sequential.
  kSequentialRuns,
  /// Chunk the first-touch sequence and sort each chunk by physical
  /// position — the paper's Section 4.2 rid-sort trick generalized to
  /// batches, for unclustered fetches whose first-touch order is random.
  kRidSorted,
};

/// One maximal run of consecutive page keys inside an input sequence.
struct PageRun {
  size_t offset = 0;  // index of the run's first key in the input
  size_t length = 0;  // number of keys in the run
  friend bool operator==(const PageRun&, const PageRun&) = default;
};

/// Splits `keys` into maximal runs of consecutive page keys: key[i+1] ==
/// key[i] + 1 extends the current run; anything else — a gap, a backwards
/// step, a file change in the high bits — starts a new one. Empty input
/// yields no runs.
std::vector<PageRun> DetectRuns(std::span<const uint64_t> keys);

/// Drops repeated page keys, keeping first-touch order.
std::vector<uint64_t> DedupFirstTouch(std::span<const uint64_t> keys);

/// Plans the group RPCs for one window of first-touch page keys: each
/// returned batch holds at most `max_batch_pages` pages. kSequentialRuns
/// splits the window at run boundaries (each run capped at the batch
/// limit); kRidSorted chunks the window in first-touch order and sorts each
/// chunk ascending. Either way the concatenation covers exactly the input
/// keys, so a consumer can interleave fetching with in-order delivery.
std::vector<std::vector<uint64_t>> PlanFetchBatches(
    std::span<const uint64_t> first_touch_keys, BatchPolicy policy,
    uint32_t max_batch_pages);

}  // namespace treebench

#endif  // TREEBENCH_CACHE_READAHEAD_H_
