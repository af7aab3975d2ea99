// Memory accounting for the exploration stack (DESIGN decision 18).
//
// A MemoryLedger holds per-component byte counters for one exploration:
// configuration storage, adjacency (edge) storage, the dedup hash table, the
// BFS frontier, and packed-codec heap spill. Values are *modeled* bytes — a
// deterministic, content-derived malloc-chunk model (paddedAllocBytes) — not
// allocator introspection. That is deliberate: the ledger is what the byte
// budget (`ExploreOptions::maxBytes`) truncates on, so its value at every
// serial pop must be replayable by the parallel engine's level cut without
// asking the allocator anything. The model tracks glibc closely enough that
// the E27 report pins ledger-total-vs-RSS drift within 15% on a fresh heap.
//
// Threading contract: a ledger is mutated from one thread at a time. The
// parallel exploration engine gives each dedup shard its own ledger (workers
// record insertions contention-free) and folds them into the tracker's
// ledger on the merge thread in fixed shard order — the totals are identical
// to serial because every per-entry cost is a content-derived constant.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/explore_observer.h"

namespace ppn {

/// The attributed components of an exploration's footprint.
enum class MemoryComponent : std::uint32_t {
  kConfigs = 0,    ///< Configuration/adjacency slot arrays + per-node mobile heap
  kAdjacency = 1,  ///< per-node edge allocations
  kDedup = 2,      ///< hash-table nodes, bucket array, id slots
  kFrontier = 3,   ///< BFS frontier entries
  kCodec = 4,      ///< packed-config heap spill beyond the inline buffer
};

inline constexpr std::size_t kMemoryComponentCount = 5;

/// "configs" | "adjacency" | "dedup" | "frontier" | "codec".
const char* memoryComponentName(MemoryComponent c);

/// Models one malloc chunk for a heap request of `bytes`: 8 bytes of header
/// rounded up to 16-byte alignment, 32-byte minimum chunk, and 0 for an
/// empty request (no allocation at all). Matches glibc malloc on LP64.
constexpr std::uint64_t paddedAllocBytes(std::uint64_t bytes) {
  if (bytes == 0) return 0;
  const std::uint64_t chunk = (bytes + 8 + 15) / 16 * 16;
  return chunk < 32 ? 32 : chunk;
}

/// Smallest power of two >= k (k >= 1): the capacity a geometric push_back
/// vector or a ~doubling hash-bucket array has reached after k insertions.
constexpr std::uint64_t grownCapacity(std::uint64_t k) {
  std::uint64_t cap = 1;
  while (cap < k) cap <<= 1;
  return cap;
}

/// Per-component byte counters with high-water marks. All updates are plain
/// (non-atomic) arithmetic — cheap enough for per-expansion hot-path use.
class MemoryLedger {
 public:
  void add(MemoryComponent c, std::uint64_t bytes) {
    bytes_[index(c)] += bytes;
  }
  void sub(MemoryComponent c, std::uint64_t bytes) {
    bytes_[index(c)] -= bytes;
  }
  void set(MemoryComponent c, std::uint64_t bytes) {
    bytes_[index(c)] = bytes;
  }
  std::uint64_t component(MemoryComponent c) const {
    return bytes_[index(c)];
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : bytes_) sum += b;
    return sum;
  }

  /// Folds the current values into the high-water marks. Called at the
  /// deterministic checkpoints (serial: before every pop; parallel: the
  /// replayed per-pop walk), so high-water marks are engine-invariant.
  void checkpoint() {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kMemoryComponentCount; ++i) {
      sum += bytes_[i];
      if (bytes_[i] > highWater_[i]) highWater_[i] = bytes_[i];
    }
    if (sum > totalHighWater_) totalHighWater_ = sum;
  }
  /// High-water folds for totals computed by the parallel engine's per-pop
  /// replay (which simulates serial state without mutating the ledger).
  void noteTotalHighWater(std::uint64_t t) {
    if (t > totalHighWater_) totalHighWater_ = t;
  }
  void noteComponentHighWater(MemoryComponent c, std::uint64_t v) {
    if (v > highWater_[index(c)]) highWater_[index(c)] = v;
  }

  std::uint64_t highWater() const { return totalHighWater_; }
  std::uint64_t componentHighWater(MemoryComponent c) const {
    return highWater_[index(c)];
  }

  /// Component-wise sum of another ledger's current values (per-shard fold;
  /// high-water marks are the merging tracker's business, not the shards').
  void merge(const MemoryLedger& other) {
    for (std::size_t i = 0; i < kMemoryComponentCount; ++i) {
      bytes_[i] += other.bytes_[i];
    }
  }

 private:
  static constexpr std::size_t index(MemoryComponent c) {
    return static_cast<std::size_t>(c);
  }
  std::array<std::uint64_t, kMemoryComponentCount> bytes_{};
  std::array<std::uint64_t, kMemoryComponentCount> highWater_{};
  std::uint64_t totalHighWater_ = 0;
};

/// ExploreObserver that retains the last and peak memory_sample per
/// exploration id — the backing for the bench binaries' --memory-stats-out
/// flag. Thread-safe (samples may arrive from concurrent explorations).
/// Rows are indexed by explore id (O(log n) per sample) and written in
/// ascending id order, so the output does not depend on arrival order.
class MemoryStatsCollector final : public ExploreObserver {
 public:
  void onMemorySample(const MemorySampleEvent& e) override;

  /// {"kind":"ppn-memory-stats", per-exploration last/peak rows, and the
  /// process-wide peak}. Returns false when the file cannot be written.
  bool writeJson(const std::string& path) const;

  std::uint64_t explorations() const;
  std::uint64_t peakTotalBytes() const;

  /// The most recent sample recorded for `exploreId` (once the exploration
  /// finished: the done=true totals). nullopt for an unknown id.
  std::optional<MemorySampleEvent> lastSample(std::uint64_t exploreId) const;

 private:
  struct Row {
    MemorySampleEvent last;
    std::uint64_t peakTotalBytes = 0;
  };
  mutable std::mutex mu_;
  std::map<std::uint64_t, Row> rows_;  // keyed by explore id
};

}  // namespace ppn
