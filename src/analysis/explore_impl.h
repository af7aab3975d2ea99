// Internal machinery shared by the serial (explore.cpp,
// compressed_explore.cpp) and parallel (parallel_explore.cpp) exploration
// engines. Not part of the public API.
//
// The engines must produce bit-identical ConfigGraphs, so everything that
// defines the output — successor enumeration order, edge metadata,
// truncation semantics — lives here exactly once. The enumerators replicate
// the historical serial loops verbatim: orientation 1 before orientation 2,
// orientation 2 suppressed for leader pairs and for coinciding outcomes,
// canonical null edges omitted, canonical duplicate (state_i, state_j)
// combinations skipped via the sortedness of the canonical form.
//
// Enumerator contract: the caller owns two successor buffers (`next`,
// `next2`) and passes the same pair to every call. The enumerators refill
// them with assign() and apply each interaction in place, so once the
// buffers have grown to the population size enumeration allocates nothing.
// Each successor reaches the callback as a `const Configuration&` that is
// valid only during that call — it is one of the two buffers and is
// overwritten by the next successor. A caller that keeps a successor copies
// (or packs) it inside the callback.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "analysis/explore.h"
#include "analysis/packed_config.h"
#include "analysis/spill_store.h"
#include "core/engine.h"
#include "obs/memory.h"

namespace ppn::detail {

/// Everything an Edge carries except the target id (which interning decides).
struct EdgeMeta {
  PairLabel label = 0xffff;
  std::uint16_t initiator = 0;
  std::uint16_t responder = 0;
  bool changed = false;
  bool changedMobile = false;
  bool changedName = false;
};

/// Whether any agent's projected name differs between the two mobile
/// vectors (same length by construction).
inline bool namesDiffer(const Protocol& proto, const std::vector<StateId>& before,
                        const std::vector<StateId>& after) {
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (proto.nameOf(before[i]) != proto.nameOf(after[i])) return true;
  }
  return false;
}

/// Refills `dst` with `src`, reusing dst's mobile capacity.
inline void assignConfig(Configuration& dst, const Configuration& src) {
  dst.mobile.assign(src.mobile.begin(), src.mobile.end());
  dst.leader = src.leader;
}

/// Enumerates the concrete successors of `current` in the canonical serial
/// order, calling fn(const Configuration&, const EdgeMeta&) once per edge
/// (including null self-loops — weak-fairness coverage needs them).
/// `next`/`next2` are the caller's reusable buffers (contract above).
template <class Fn>
void forEachConcreteSuccessor(const Protocol& proto, const Configuration& current,
                              std::uint32_t numParticipants,
                              const InteractionGraph* topology,
                              Configuration& next, Configuration& next2,
                              Fn&& fn) {
  const std::uint32_t m = numParticipants;
  const bool hasLeader = proto.hasLeader();
  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = i + 1; j < m; ++j) {
      if (topology != nullptr && !topology->hasEdge(i, j)) continue;
      const PairLabel label = pairLabel(i, j, m);
      // Orientation 1: i initiates.
      assignConfig(next, current);
      applyInteraction(proto, next, Interaction{i, j});
      const bool changed1 = !(next == current);
      const bool mobile1 = next.mobile != current.mobile;
      const bool name1 =
          mobile1 && namesDiffer(proto, current.mobile, next.mobile);
      const EdgeMeta meta1{label, static_cast<std::uint16_t>(i),
                           static_cast<std::uint16_t>(j), changed1, mobile1,
                           name1};
      // Orientation 2: j initiates (distinct only for asymmetric
      // mobile-mobile rules; leader interactions are orientation-free).
      const bool involvesLeader = hasLeader && j == m - 1;
      if (involvesLeader) {
        fn(static_cast<const Configuration&>(next), meta1);
        continue;
      }
      assignConfig(next2, current);
      applyInteraction(proto, next2, Interaction{j, i});
      const bool distinct = !(next2 == next);
      fn(static_cast<const Configuration&>(next), meta1);
      if (distinct) {
        const bool mobile2 = next2.mobile != current.mobile;
        const bool name2 =
            mobile2 && namesDiffer(proto, current.mobile, next2.mobile);
        fn(static_cast<const Configuration&>(next2),
           EdgeMeta{label, static_cast<std::uint16_t>(j),
                    static_cast<std::uint16_t>(i), !(next2 == current), mobile2,
                    name2});
      }
    }
  }
}

/// Enumerates the canonical successors of the canonical configuration
/// `current` in the canonical serial order. Null transitions are omitted;
/// emitted configurations are already canonicalized (sorted in place in the
/// caller's buffer). `next`/`next2` as in forEachConcreteSuccessor.
template <class Fn>
void forEachCanonicalSuccessor(const Protocol& proto, const Configuration& current,
                               std::uint32_t numMobile, Configuration& next,
                               Configuration& next2, Fn&& fn) {
  const std::uint32_t n = numMobile;
  // `succ` holds `current` with one interaction applied.
  auto emit = [&](Configuration& succ) {
    const bool changedMobile = succ.mobile != current.mobile;
    const bool changedName =
        changedMobile && namesDiffer(proto, current.mobile, succ.mobile);
    std::sort(succ.mobile.begin(), succ.mobile.end());
    const bool changed = changedMobile || !(succ == current) ||
                         succ.leader != current.leader;
    if (!changed) return;  // canonical graphs omit null edges
    fn(static_cast<const Configuration&>(succ),
       EdgeMeta{0xffff, 0, 0, true, changedMobile, changedName});
  };

  // Mobile-mobile interactions: pick representative agent indices for each
  // present state pair. The canonical form is sorted, so equal states are
  // adjacent; scanning index pairs over *distinct positions* covers every
  // state pair including homonym pairs, with duplicates deduplicated by
  // interning. N is tiny in checker workloads, so the O(N^2) scan is fine.
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      // Skip repeats of the same (state_i, state_j) combination.
      if (i > 0 && current.mobile[i - 1] == current.mobile[i]) continue;
      if (j > i + 1 && current.mobile[j - 1] == current.mobile[j]) continue;
      assignConfig(next, current);
      applyInteraction(proto, next, Interaction{i, j});
      emit(next);
      assignConfig(next2, current);
      applyInteraction(proto, next2, Interaction{j, i});
      emit(next2);
    }
  }
  if (proto.hasLeader()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i > 0 && current.mobile[i - 1] == current.mobile[i]) continue;
      assignConfig(next, current);
      applyInteraction(proto, next, Interaction{n, i});
      emit(next);
    }
  }
}

/// Progress + memory bookkeeping for one exploration. Event emission is a
/// single-branch no-op when no observer is attached, so the unobserved BFS
/// stays bit-identical to the pre-telemetry loop. The MemoryLedger updates
/// are unconditional — the byte budget (ExploreOptions.maxBytes) consults
/// them whether or not anyone is listening — but they are a handful of
/// arithmetic ops per interned node.
///
/// Byte accounting follows the deterministic malloc-chunk model of DESIGN.md
/// decision 18: every charge is a pure function of exploration CONTENT (node
/// count, per-node edge counts, the codec's packed width), never of engine
/// internals, so serial and parallel runs agree bit-for-bit and the parallel
/// cut replay can recompute any prefix of the serial charge sequence in
/// closed form. ExploreProgressEvent.bytesEstimate reports the ledger total.
class ExploreTracker {
 public:
  ExploreTracker(ExploreObserver* obs, std::uint64_t exploreId,
                 const ConfigGraph& g, const PackedCodec& codec,
                 std::uint32_t numMobile)
      : obs_(obs),
        exploreId_(exploreId),
        g_(&g),
        mobileHeapBytes_(
            paddedAllocBytes(std::uint64_t{numMobile} * sizeof(StateId))),
        dedupNodeBytes_(dedupEntryBytes()),
        codecSpillBytes_(codec.packedBytes() > PackedConfig::kInlineBytes
                             ? paddedAllocBytes(codec.packedBytes())
                             : 0) {
    if (obs_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Modeled heap cost of one dedup-table entry: the unordered_map hash node
  /// (next pointer + cached hash + the PackedConfig/id pair) plus the slot
  /// the parallel engine's shard keeps per entry.
  static constexpr std::uint64_t dedupEntryBytes() {
    return paddedAllocBytes(
               2 * sizeof(void*) +
               sizeof(std::pair<const PackedConfig, std::uint32_t>)) +
           sizeof(std::uint32_t);
  }

  void recordEdge(bool dedupHit) {
    if (obs_ == nullptr) return;
    ++edges_;
    if (dedupHit) ++dedupHits_;
  }

  /// One configuration was interned (serial engine; parallel rebasing goes
  /// through setInterned). Charges the node-dependent components.
  void recordInterned() { setInterned(nodes_ + 1); }

  /// Rebases every node-derived component to `nodes` interned nodes. The
  /// per-entry costs are content-derived constants, so this equals the
  /// serial per-intern accrual at the same node count.
  void setInterned(std::uint64_t nodes) {
    nodes_ = nodes;
    ledger_.set(MemoryComponent::kConfigs,
                slotArrayBytes(nodes) + nodes * mobileHeapBytes_);
    ledger_.set(MemoryComponent::kDedup,
                paddedAllocBytes(grownCapacity(nodes) * 8) +
                    nodes * dedupNodeBytes_);
    ledger_.set(MemoryComponent::kCodec, nodes * codecSpillBytes_);
  }

  /// Parallel merge thread: rebase node-derived components from the ledgers
  /// the dedup shards accrued (folded in fixed shard order), plus the
  /// k-derived array terms. Dedup entries are 1:1 with interned nodes and
  /// every per-entry charge is a content-derived constant, so the result is
  /// bit-identical to the serial setInterned at the same node count.
  void applyShardFold(std::uint64_t nodes, const MemoryLedger& fold) {
    nodes_ = nodes;
    ledger_.set(MemoryComponent::kConfigs,
                slotArrayBytes(nodes) + nodes * mobileHeapBytes_);
    ledger_.set(MemoryComponent::kDedup,
                paddedAllocBytes(grownCapacity(nodes) * 8) +
                    fold.component(MemoryComponent::kDedup));
    ledger_.set(MemoryComponent::kCodec,
                fold.component(MemoryComponent::kCodec));
  }

  std::uint64_t codecSpillBytes() const { return codecSpillBytes_; }

  /// A node's expansion is complete: charge its edge vector's payload.
  void recordNodeExpanded(std::size_t edgeCount) {
    ledger_.add(MemoryComponent::kAdjacency,
                paddedAllocBytes(std::uint64_t{edgeCount} * sizeof(Edge)));
  }

  /// Top-of-loop bookkeeping: refresh the frontier component and fold the
  /// current totals into the high-water marks. The serial loop calls this
  /// once per pop; the parallel engine replays the identical sequence in its
  /// phase-3 cut walk (noteReplayState), so high-water marks are
  /// engine-invariant.
  void checkpoint(std::size_t frontierSize) {
    ledger_.set(MemoryComponent::kFrontier,
                std::uint64_t{frontierSize} * sizeof(std::uint32_t));
    ledger_.checkpoint();
  }

  /// Parallel phase-3 replay: fold one simulated top-of-loop state (total
  /// modeled bytes + frontier entries) into the high-water marks without
  /// touching the current component values.
  void noteReplayState(std::uint64_t totalBytes, std::uint64_t frontierEntries) {
    ledger_.noteTotalHighWater(totalBytes);
    ledger_.noteComponentHighWater(
        MemoryComponent::kFrontier,
        frontierEntries * sizeof(std::uint32_t));
  }

  /// Compressed-mode replay additionally folds the dedup component per step:
  /// unlike configs/adjacency it is NOT monotone (a spill flush shrinks it),
  /// so the final checkpoint cannot recover its peak.
  void noteReplayDedup(std::uint64_t dedupBytes) {
    ledger_.noteComponentHighWater(MemoryComponent::kDedup, dedupBytes);
  }

  /// Compressed-mode component sync: the stores' modeled bytes ARE the
  /// allocation-exact footprint (ByteBuf capacity == grownCapacity(size)),
  /// and kCodec is idle — compressed interning never retains a PackedConfig.
  void setCompressedComponents(std::uint64_t configsBytes,
                               std::uint64_t adjacencyBytes,
                               std::uint64_t dedupBytes) {
    ledger_.set(MemoryComponent::kConfigs, configsBytes);
    ledger_.set(MemoryComponent::kAdjacency, adjacencyBytes);
    ledger_.set(MemoryComponent::kDedup, dedupBytes);
    ledger_.set(MemoryComponent::kCodec, 0);
  }

  /// Current spill-tier state (compressed mode): on-DISK run bytes and live
  /// run count. Reported on memory samples, deliberately outside the ledger
  /// total — the ledger models RAM and disk is what spilling trades it for.
  void setSpillState(std::uint64_t diskBytes, std::uint64_t runCount) {
    spillDiskBytes_ = diskBytes;
    spillRuns_ = runCount;
  }

  /// Sections of the exploration loop timed for per-phase throughput
  /// reporting (ExploreProgressEvent expand/dedup/append/io fields).
  enum class Section { kExpand = 0, kDedup = 1, kAppend = 2, kIo = 3 };

  /// Whether section timing is worth measuring (an observer is listening).
  /// Wall-clock fields are exempt from the bit-identity contract, like
  /// nodesPerSec.
  bool timing() const { return obs_ != nullptr; }

  void addSectionSeconds(Section s, double seconds) {
    sectionSeconds_[static_cast<int>(s)] += seconds;
  }

  /// Node-derived modeled bytes at `k` interned nodes (configs + dedup +
  /// codec spill) — the closed form the parallel cut replay sums with its
  /// adjacency prefix and frontier term.
  std::uint64_t nodeDependentBytes(std::uint64_t k) const {
    return slotArrayBytes(k) + k * mobileHeapBytes_ +
           paddedAllocBytes(grownCapacity(k) * 8) + k * dedupNodeBytes_ +
           k * codecSpillBytes_;
  }

  std::uint64_t totalBytes() const { return ledger_.total(); }
  std::uint64_t adjacencyBytes() const {
    return ledger_.component(MemoryComponent::kAdjacency);
  }
  MemoryLedger& ledger() { return ledger_; }

  void recordExpansion(std::size_t frontierSize) {
    if (obs_ == nullptr) return;
    ++expanded_;
    if (expanded_ % kExploreProgressStride == 0) emit(frontierSize, false);
  }

  /// Bulk variant for the parallel engine (merge thread only): accounts one
  /// completed BFS level and emits at most one progress event when the level
  /// crossed a stride boundary.
  void recordLevel(std::uint64_t expandedNodes, std::uint64_t edges,
                   std::uint64_t dedupHits, std::size_t frontierSize) {
    if (obs_ == nullptr) return;
    expanded_ += expandedNodes;
    edges_ += edges;
    dedupHits_ += dedupHits;
    if (expanded_ / kExploreProgressStride > emittedStrides_) {
      emittedStrides_ = expanded_ / kExploreProgressStride;
      emit(frontierSize, false);
    }
  }

  template <class Container>
  void recordTruncation(std::size_t maxNodes, std::uint64_t maxBytes,
                        bool byBudget, const Container& frontier) {
    if (obs_ == nullptr) return;
    ExploreTruncatedEvent e;
    e.exploreId = exploreId_;
    e.nodes = g_->size();
    e.maxNodes = maxNodes;
    e.frontier.assign(frontier.begin(), frontier.end());
    e.maxBytes = maxBytes;
    e.bytesAtCut = ledger_.total();
    e.byBudget = byBudget;
    obs_->onTruncated(e);
  }

  void finish(std::size_t frontierSize) {
    if (obs_ == nullptr) return;
    emit(frontierSize, true);
  }

 private:
  /// Modeled allocations backing the graph's slot vectors at `k` nodes: the
  /// configs array and the adjacency vector-header array, both grown
  /// geometrically.
  static std::uint64_t slotArrayBytes(std::uint64_t k) {
    return paddedAllocBytes(grownCapacity(k) * sizeof(Configuration)) +
           paddedAllocBytes(grownCapacity(k) * sizeof(std::vector<Edge>));
  }

  void emit(std::size_t frontierSize, bool done) {
    // Fold the at-emission state so high_water >= total holds on every
    // sample (the serial loop's last checkpoint predates the final node's
    // adjacency charge).
    checkpoint(frontierSize);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    ExploreProgressEvent e;
    e.exploreId = exploreId_;
    e.nodes = g_->size();
    e.frontier = frontierSize;
    e.edges = edges_;
    e.dedupHits = dedupHits_;
    e.bytesEstimate = ledger_.total();
    e.nodesPerSec =
        elapsed > 0.0 ? static_cast<double>(expanded_) / elapsed : 0.0;
    e.elapsedMillis = elapsed * 1e3;
    const double expandSec = sectionSeconds_[0];
    const double dedupSec = sectionSeconds_[1];
    e.expandMillis = expandSec * 1e3;
    e.dedupMillis = dedupSec * 1e3;
    e.appendMillis = sectionSeconds_[2] * 1e3;
    e.ioMillis = sectionSeconds_[3] * 1e3;
    e.expandNodesPerSec =
        expandSec > 0.0 ? static_cast<double>(expanded_) / expandSec : 0.0;
    e.dedupNodesPerSec =
        dedupSec > 0.0 ? static_cast<double>(expanded_) / dedupSec : 0.0;
    e.done = done;
    obs_->onExploreProgress(e);
    emitMemorySample(elapsed * 1e3, done);
  }

  void emitMemorySample(double elapsedMillis, bool done);

  ExploreObserver* obs_;
  std::uint64_t exploreId_;
  const ConfigGraph* g_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t mobileHeapBytes_ = 0;
  std::uint64_t dedupNodeBytes_ = 0;
  std::uint64_t codecSpillBytes_ = 0;
  std::uint64_t nodes_ = 0;
  MemoryLedger ledger_;
  std::uint64_t expanded_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t dedupHits_ = 0;
  std::uint64_t emittedStrides_ = 0;
  std::uint64_t spillDiskBytes_ = 0;
  std::uint64_t spillRuns_ = 0;
  double sectionSeconds_[4] = {0.0, 0.0, 0.0, 0.0};
};

/// RAII section timer; a no-op (no clock read) when nobody observes.
class SectionTimer {
 public:
  SectionTimer(ExploreTracker& tracker, ExploreTracker::Section section)
      : tracker_(tracker), section_(section) {
    if (tracker_.timing()) start_ = std::chrono::steady_clock::now();
  }
  ~SectionTimer() {
    if (tracker_.timing()) {
      tracker_.addSectionSeconds(
          section_, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }
  SectionTimer(const SectionTimer&) = delete;
  SectionTimer& operator=(const SectionTimer&) = delete;

 private:
  ExploreTracker& tracker_;
  ExploreTracker::Section section_;
  std::chrono::steady_clock::time_point start_;
};

/// 0 = hardware concurrency, otherwise the requested count.
inline std::uint32_t resolveThreads(std::uint32_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

/// The level-synchronous parallel engine (parallel_explore.cpp). Inputs are
/// pre-validated by the public entry points; produces a graph bit-identical
/// to the serial loop for any thread count.
ConfigGraph exploreParallelImpl(const Protocol& proto,
                                const std::vector<Configuration>& initials,
                                const ExploreOptions& options, bool canonical);

/// Materializes one SpillPolicy flush decision: drains the RAM table, sorts
/// by (fingerprint, id), writes a run, and compacts if the action says so.
/// Shared by the serial loop and the parallel merge thread
/// (compressed_explore.cpp).
void flushTableToRun(FpTable& table, SpillRunSet& runs,
                     const SpillPolicy::Action& action);

/// The serial compressed-storage engine (compressed_explore.cpp): identical
/// BFS, interning against the two-tier fingerprint table and appending to
/// the delta-coded stores. Inputs pre-validated by the public entry points.
ConfigGraph exploreSerialCompressed(const Protocol& proto,
                                    const std::vector<Configuration>& initials,
                                    const ExploreOptions& options,
                                    bool canonical);

}  // namespace ppn::detail
