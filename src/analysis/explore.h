// Exhaustive exploration of the configuration graph of a protocol instance.
//
// Two granularities:
//  * exploreConcrete — nodes are concrete configurations (one state per
//    agent). Needed whenever agent identity matters: weak fairness is a
//    property of *agent pairs* (paper, Section 2), so its checker must see
//    which pair each edge corresponds to.
//  * exploreCanonical — nodes are canonical (sorted-multiset) configurations,
//    the paper's "equivalent configurations" (Section 3.1). Transitions
//    commute with agent permutations and all analysed predicates are
//    permutation-invariant, so this quotient is sound for global fairness and
//    exponentially smaller.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/compressed_graph.h"
#include "core/configuration.h"
#include "core/interaction_graph.h"
#include "core/protocol.h"
#include "obs/explore_observer.h"

namespace ppn {

/// Identifier of the unordered participant pair {i, j}, i < j, in the
/// triangular enumeration used by pairLabel(). The leader (participant N)
/// takes part like any other participant.
using PairLabel = std::uint16_t;

/// Number of unordered pairs among `numParticipants`.
constexpr std::uint32_t numPairs(std::uint32_t numParticipants) {
  return numParticipants * (numParticipants - 1) / 2;
}

/// Triangular index of {i, j} with i < j among numParticipants participants.
constexpr PairLabel pairLabel(std::uint32_t i, std::uint32_t j,
                              std::uint32_t numParticipants) {
  return static_cast<PairLabel>(i * numParticipants - i * (i + 1) / 2 +
                                (j - i - 1));
}

struct Edge {
  std::uint32_t to = 0;
  /// Pair label for concrete graphs; 0xffff (unlabeled) in canonical graphs.
  PairLabel label = 0xffff;
  /// The oriented interaction that produced this edge (valid in concrete
  /// graphs) — lets the adversary synthesizer emit replayable schedules.
  std::uint16_t initiator = 0;
  std::uint16_t responder = 0;
  /// Whether the transition changed anything at all (non-null).
  bool changed = false;
  /// Whether any *mobile* agent's state changed (leader-only housekeeping
  /// does not count).
  bool changedMobile = false;
  /// Whether any agent's projected NAME (Protocol::nameOf) changed — what
  /// naming quiescence is judged on. Equals changedMobile for identity
  /// projections.
  bool changedName = false;

  Interaction interaction() const { return Interaction{initiator, responder}; }
};

/// The explored graph, in one of two storage representations (DESIGN.md
/// decision 19). kExplicit materializes `configs` and `adj` below; the
/// default kCompressed leaves them empty and stores the same graph — same
/// node ids, same edge order — delta-coded in `packed`. Consumers that go
/// through the accessors (config(), forEachEdge(), edges(), findConfig())
/// work identically on both; tests may still hand-build explicit graphs by
/// filling the public vectors.
struct ConfigGraph {
  std::vector<Configuration> configs;
  std::vector<std::vector<Edge>> adj;
  detail::CompressedGraph packed;
  std::uint32_t numParticipants = 0;
  /// True when exploration hit maxNodes (or the byte budget) before closing
  /// the frontier; any verdict computed from a truncated graph is unreliable
  /// and the checkers refuse to produce one.
  bool truncated = false;
  /// True when the BYTE budget (ExploreOptions.maxBytes) fired the cut, not
  /// the node cap. Only meaningful when `truncated` is set.
  bool truncatedByBudget = false;

  bool compressed() const { return packed.engaged(); }
  std::size_t size() const {
    return compressed() ? packed.nodeCount() : configs.size();
  }

  /// Node `id`'s configuration. Returns by value: compressed graphs decode
  /// on demand. (Explicit callers that want a reference can still index
  /// `configs` directly.)
  Configuration config(std::uint32_t id) const {
    return compressed() ? packed.config(id) : configs[id];
  }

  /// Decodes nodes one at a time into one reused configuration. On a
  /// compressed graph ascending ids (an SCC's members) cost one delta each;
  /// on an explicit graph it returns the stored configuration.
  class Reader {
   public:
    explicit Reader(const ConfigGraph& g) : g_(g) {
      if (g.compressed()) cursor_.reset(g.packed.configStore());
    }
    const Configuration& at(std::uint32_t id) {
      if (!g_.compressed()) return g_.configs[id];
      g_.packed.codec().unpackInto(cursor_.at(id), current_);
      return current_;
    }

   private:
    const ConfigGraph& g_;
    detail::ConfigStore::Cursor cursor_;
    Configuration current_;
  };

  std::size_t edgeCount(std::uint32_t id) const {
    return compressed() ? packed.edgeStore().edgeCount(id) : adj[id].size();
  }

  /// Visits node `id`'s out-edges in their exploration order as
  /// fn(const Edge&) — the storage-independent way to walk adjacency.
  /// Compressed graphs decode the varint stream on the fly; nodes never
  /// expanded (a truncated frontier) have no edges in either storage.
  template <class Fn>
  void forEachEdge(std::uint32_t id, Fn&& fn) const {
    if (!compressed()) {
      for (const Edge& e : adj[id]) fn(e);
      return;
    }
    const bool concrete = packed.edgeStore().concrete();
    packed.edgeStore().forEachEdgeRaw(id, [&](const detail::RawEdge& r) {
      Edge e;
      e.to = r.to;
      e.changed = (r.flags & 1) != 0;
      e.changedMobile = (r.flags & 2) != 0;
      e.changedName = (r.flags & 4) != 0;
      if (concrete) {
        e.initiator = r.initiator;
        e.responder = r.responder;
        const std::uint32_t lo = std::min<std::uint32_t>(r.initiator, r.responder);
        const std::uint32_t hi = std::max<std::uint32_t>(r.initiator, r.responder);
        e.label = pairLabel(lo, hi, numParticipants);
      }
      fn(e);
    });
  }

  /// Materialized copy of node `id`'s out-edges, for consumers that need
  /// random access within the list (e.g. path reconstruction).
  std::vector<Edge> edges(std::uint32_t id) const {
    std::vector<Edge> out;
    out.reserve(edgeCount(id));
    forEachEdge(id, [&](const Edge& e) { out.push_back(e); });
    return out;
  }

  /// Id of the node equal to `c`, if interned. Linear scan in both storages
  /// (callers use it for initial configurations only).
  std::optional<std::uint32_t> findConfig(const Configuration& c) const {
    const auto n = static_cast<std::uint32_t>(size());
    for (std::uint32_t id = 0; id < n; ++id) {
      if (config(id) == c) return id;
    }
    return std::nullopt;
  }
};

/// How often exploration reports progress: one ExploreProgressEvent per this
/// many expanded nodes (plus a final done=true event per exploration).
constexpr std::uint64_t kExploreProgressStride = 1024;

/// Exact heap footprint of a ConfigGraph as returned. Explicit storage:
/// interned configurations (struct + mobile payload at its real capacity)
/// plus adjacency (vector headers + edge payload at its real capacity).
/// Compressed storage: the delta-coded config blob and edge streams with
/// their sample indexes, at their real (modeled == allocated) capacities.
/// Note this is the GRAPH's footprint only — ExploreProgressEvent.
/// bytesEstimate reports the MemoryLedger total (DESIGN.md decision 18),
/// which additionally charges the dedup table, the BFS frontier and (in
/// explicit mode) packed-codec heap spill, so the final done=true event
/// reads >= configGraphBytes() of the returned graph.
std::uint64_t configGraphBytes(const ConfigGraph& g);

/// In-RAM representation of the explored graph (ConfigGraph docs above).
enum class GraphStorage {
  /// Materialized vectors: fastest to traverse, 330-430 bytes/node.
  kExplicit,
  /// Delta-coded stores decoded on demand: ~3-8x smaller, and the only mode
  /// that can spill its dedup table to disk. The graph is identical
  /// node-for-node and edge-for-edge to kExplicit (differential-tested).
  kCompressed,
};

/// Knobs shared by both explorers (and forwarded by the checkers).
struct ExploreOptions {
  std::size_t maxNodes = 4'000'000;
  /// Byte budget over the exploration's MODELED footprint (the MemoryLedger
  /// total: configs + adjacency + dedup table + frontier + codec spill;
  /// DESIGN.md decision 18). 0 disables the budget. When the ledger total
  /// exceeds this, exploration truncates deterministically with the same
  /// serial-replayed cut discipline as maxNodes: node ids, edge order, the
  /// ExploreTruncatedEvent and the final graph are bit-identical at every
  /// thread count. The node cap is checked first, so a run that trips both
  /// reports the maxNodes cut.
  std::uint64_t maxBytes = 0;
  /// Worker threads for the level-synchronous parallel BFS. 1 (the default)
  /// runs the serial reference loop; 0 means hardware concurrency. Any value
  /// produces a bit-identical ConfigGraph — node ids, edge order and
  /// truncation behavior all match the serial result (DESIGN.md, decision
  /// 14) — so callers may tune this freely.
  std::uint32_t threads = 1;
  /// Restricts interactions to a graph (concrete exploration only; must be
  /// null for exploreCanonical).
  const InteractionGraph* topology = nullptr;
  ExploreObserver* observer = nullptr;
  std::uint64_t exploreId = 0;
  /// Graph representation (see GraphStorage). Compressed is the default;
  /// both produce the same node ids, edge order and truncation behavior.
  GraphStorage storage = GraphStorage::kCompressed;
  /// Two-tier dedup spill threshold, compressed storage only: when the
  /// modeled bytes of the in-RAM dedup table exceed this, the table drains
  /// to a sorted run file on disk (DESIGN.md decision 19) and probing falls
  /// back to external memory, so a maxBytes budget degrades to disk instead
  /// of to an UNKNOWN verdict. 0 disables spilling. Ignored (with no effect
  /// on the graph) under kExplicit storage.
  std::uint64_t spillBytes = 0;
  /// Directory for spill run files; empty = the system temp directory.
  /// Files are created 0600 and unlinked when the graph's exploration ends.
  std::string spillDir;
};

/// Explores all configurations reachable from `initials`. Every applicable
/// interaction contributes an edge, *including null transitions* (self-loop
/// edges with changed = false) — weak-fairness coverage analysis needs them.
/// When `topology` is non-null, only its edges may interact (restricted
/// interaction graph); it must span the same participant count.
///
/// When `observer` is non-null it receives an "explore" phase pair, one
/// ExploreProgressEvent per kExploreProgressStride expanded nodes plus a
/// final done=true event, and — when maxNodes fires — an
/// ExploreTruncatedEvent carrying the unexpanded frontier. The observer only
/// reads; a null observer leaves behavior bit-identical.
ConfigGraph exploreConcrete(const Protocol& proto,
                            const std::vector<Configuration>& initials,
                            const ExploreOptions& options);

/// Explores the canonical quotient graph. Edges are unlabeled and null
/// transitions are omitted (global-fairness analysis does not need them).
/// Observer contract as in exploreConcrete. options.topology must be null.
ConfigGraph exploreCanonical(const Protocol& proto,
                             const std::vector<Configuration>& initials,
                             const ExploreOptions& options);

/// Positional convenience overloads (serial, threads = 1).
ConfigGraph exploreConcrete(const Protocol& proto,
                            const std::vector<Configuration>& initials,
                            std::size_t maxNodes = 4'000'000,
                            const InteractionGraph* topology = nullptr,
                            ExploreObserver* observer = nullptr,
                            std::uint64_t exploreId = 0);

ConfigGraph exploreCanonical(const Protocol& proto,
                             const std::vector<Configuration>& initials,
                             std::size_t maxNodes = 4'000'000,
                             ExploreObserver* observer = nullptr,
                             std::uint64_t exploreId = 0);

/// Human-readable reason string for a truncated exploration, shared by the
/// fairness checkers' UNKNOWN verdicts: names the node cap or, when
/// truncatedByBudget is set, the byte budget that fired.
std::string truncationReason(const ConfigGraph& g, const ExploreOptions& options);

}  // namespace ppn
