#pragma once
/// \file partition.hpp
/// \brief Intra-flow parallel optimization: partitioned balance/rewrite.
///
/// One large circuit normally occupies a single batch_runner worker for its
/// whole flow.  `optimize_partitioned` splits the gate array into
/// `optimize_params::flow_jobs` contiguous topological regions (disjoint by
/// construction — every gate belongs to exactly one region, and a region's
/// fanins point only at combinational inputs or earlier regions), runs the
/// full resyn script on each region concurrently, and merges the optimized
/// regions back in region order with global structural hashing.
///
/// Determinism contract: the result is a pure function of (circuit,
/// optimize_params) — regions are optimized independently on isolated
/// engines and merged in a fixed order, so running the subtasks on one
/// thread or sixteen produces byte-identical networks
/// (tests/test_opt_arena.cpp pins partition counts 1..8).  The partition
/// count itself *does* change the result (cuts cannot cross region
/// boundaries, and exported boundary nodes must be preserved), which is why
/// flow_jobs joins the flow-options fingerprint.

#include <memory>
#include <mutex>
#include <vector>

#include "aig/aig.hpp"
#include "opt/script.hpp"
#include "util/lru.hpp"

namespace xsfq {

/// How a partitioned run divided the work (observability for benches/tests).
struct partition_info {
  unsigned partitions = 0;           ///< regions actually used (after clamping)
  std::size_t boundary_signals = 0;  ///< gate outputs exported across regions
  std::size_t region_cache_hits = 0;    ///< regions served from the cache
  std::size_t region_cache_misses = 0;  ///< regions optimized live
};

/// Cross-run cache of optimized regions, keyed by (extracted subnetwork
/// content hash, digest of the optimization parameters the region runs
/// under).  This is the engine of ECO resynthesis: with fixed-grain
/// partitioning (optimize_params::partition_grain) a position-stable edit
/// leaves every untouched region's extracted content byte-identical, so a
/// warm cache reduces re-optimization to the one or two regions the edit
/// actually dirtied.  Correctness never depends on it — region optimization
/// is a pure function of the extracted subnetwork, so a hit replays exactly
/// the bytes a live run would produce (the stored optimize_stats make even
/// the work counters match).
///
/// Thread-safe; entries are shared const so concurrent flows can merge from
/// the same stored region.  Bounded by `max_entries` with least-recently-used
/// eviction: every hit refreshes its entry, so the clean regions of a live
/// session stay hot while the regions of long-superseded states age out
/// (eviction affects time, never bytes).
class region_cache {
 public:
  /// One optimized region in the flat form the merge replays, with no
  /// structural-hash index and no spare capacity (in an ECO session about
  /// 1/30 of the optimized `aig` it was made from).  Nodes are numbered
  /// locally — 0 is constant-0, 1..I the region inputs in order, I+1.. the
  /// gates in topological order — and every literal is a signal over that
  /// numbering.
  struct entry {
    std::vector<signal> fanins;   ///< two literals per gate, gate order
    std::vector<signal> outputs;  ///< one literal per exported gate
    optimize_stats stats;  ///< the live run's counters, replayed on a hit

    /// Flattens an optimized region whose PIs are the region inputs.
    static std::shared_ptr<const entry> make(const aig& optimized,
                                             const optimize_stats& stats);
    /// Heap bytes of the literal arrays (capacity, like aig::memory_bytes).
    [[nodiscard]] std::size_t memory_bytes() const;
  };

  static constexpr std::size_t default_capacity = 4096;

  explicit region_cache(std::size_t max_entries = default_capacity)
      : max_entries_(max_entries) {}

  /// The entry under `key` (refreshed to most recently used), or null.
  std::shared_ptr<const entry> lookup(std::uint64_t key);
  /// Stores `e` as the most recently used entry, evicting the least
  /// recently used ones beyond `max_entries`.
  void store(std::uint64_t key, std::shared_ptr<const entry> e);

  struct counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< lookups that found nothing
    std::uint64_t evictions = 0;  ///< entries dropped from the cold end
  };
  [[nodiscard]] counters counts() const;
  [[nodiscard]] std::size_t size() const;
  /// Summed entry::memory_bytes of the held entries.
  [[nodiscard]] std::size_t memory_bytes() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  lru_map<std::uint64_t, std::shared_ptr<const entry>> entries_;
  std::size_t max_entries_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The region count optimize_partitioned will actually use for a network of
/// `num_gates` gates when `flow_jobs` regions are requested (small circuits
/// clamp to fewer regions).  Exposed so cache keys can fingerprint the
/// *effective* count: requests whose clamp coincides share cache entries.
unsigned effective_partition_count(std::size_t num_gates, unsigned flow_jobs);

/// The resyn script over concurrent regions: `params.flow_jobs` proportional
/// shares, or — when params.partition_grain > 0 — fixed regions of that many
/// gates whose boundaries depend on the network alone (the ECO mode; see
/// region_cache).  Subtasks run through params.executor when set (the flow
/// layer passes the batch_runner pool) and inline otherwise — identical
/// results either way.  Regions validate their own passes when
/// params.validate_passes is set, and the merged network is additionally
/// checked against the input.  Small networks are clamped to fewer regions
/// (deterministically, by gate count); a clamp to one region is exactly the
/// sequential script.
aig optimize_partitioned(const aig& network, const optimize_params& params,
                         optimize_stats* stats = nullptr,
                         partition_info* info = nullptr);

}  // namespace xsfq
