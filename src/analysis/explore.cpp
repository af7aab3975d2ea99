#include "analysis/explore.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>
#include <unordered_map>

#include <unistd.h>

#include "analysis/explore_impl.h"
#include "analysis/packed_config.h"
#include "obs/resource_sampler.h"

namespace ppn {

namespace {

/// Visited table keyed by the packed encoding: probes cost one precomputed
/// hash load plus a memcmp instead of re-hashing a std::vector<StateId>.
/// A new node's configuration is decoded from its key, so a successor is
/// materialized only when the graph keeps it.
class Interner {
 public:
  Interner(ConfigGraph& g, const PackedCodec& codec) : graph_(g), codec_(codec) {}

  /// Returns (id, isNew).
  std::pair<std::uint32_t, bool> intern(PackedConfig&& key) {
    const auto [it, inserted] = ids_.try_emplace(
        std::move(key), static_cast<std::uint32_t>(graph_.configs.size()));
    if (inserted) {
      graph_.configs.push_back(codec_.unpack(it->first));
      graph_.adj.emplace_back();
    }
    return {it->second, inserted};
  }

 private:
  ConfigGraph& graph_;
  const PackedCodec& codec_;
  std::unordered_map<PackedConfig, std::uint32_t, PackedConfigHash> ids_;
};

void validateInitials(const char* where,
                      const std::vector<Configuration>& initials) {
  if (initials.empty()) {
    throw std::invalid_argument(std::string(where) +
                                ": no initial configurations");
  }
  const std::uint32_t n = initials.front().numMobile();
  for (const auto& c : initials) {
    if (c.numMobile() != n) {
      throw std::invalid_argument(std::string(where) +
                                  ": mixed population sizes");
    }
  }
}

}  // namespace

namespace detail {

void ExploreTracker::emitMemorySample(double elapsedMillis, bool done) {
  MemorySampleEvent m;
  m.exploreId = exploreId_;
  m.configsBytes = ledger_.component(MemoryComponent::kConfigs);
  m.adjacencyBytes = ledger_.component(MemoryComponent::kAdjacency);
  m.dedupBytes = ledger_.component(MemoryComponent::kDedup);
  m.frontierBytes = ledger_.component(MemoryComponent::kFrontier);
  m.codecBytes = ledger_.component(MemoryComponent::kCodec);
  m.totalBytes = ledger_.total();
  m.highWaterBytes = ledger_.highWater();
  m.spillBytes = spillDiskBytes_;
  m.spillRuns = spillRuns_;
  if (const auto self =
          sampleProcessResources(static_cast<std::int64_t>(::getpid()))) {
    m.rssBytes = self->rssBytes;
  }
  m.elapsedMillis = elapsedMillis;
  m.done = done;
  obs_->onMemorySample(m);
}

}  // namespace detail

std::string truncationReason(const ConfigGraph& g,
                             const ExploreOptions& options) {
  if (g.truncatedByBudget) {
    return "state space exceeded the " + std::to_string(options.maxBytes) +
           "-byte memory budget; no verdict";
  }
  return "state space exceeded " + std::to_string(options.maxNodes) +
         " configurations; no verdict";
}

std::uint64_t configGraphBytes(const ConfigGraph& g) {
  if (g.compressed()) return g.packed.modeledBytes();
  std::uint64_t bytes = 0;
  for (const Configuration& c : g.configs) {
    bytes += sizeof(Configuration) + c.mobile.capacity() * sizeof(StateId);
  }
  for (const auto& edges : g.adj) {
    bytes += sizeof(std::vector<Edge>) + edges.capacity() * sizeof(Edge);
  }
  return bytes;
}

namespace {

/// The serial explicit-storage loop, concrete or canonical: the same BFS as
/// the compressed engine, interning into materialized configs/adj vectors.
/// A new node's id is configs.size() at interning and pops take ids in
/// interning order, so the frontier is the id range [head, configs.size()).
ConfigGraph exploreSerialExplicit(const Protocol& proto,
                                  const std::vector<Configuration>& initials,
                                  const ExploreOptions& options,
                                  bool canonical) {
  const std::uint32_t n = initials.front().numMobile();
  const std::uint32_t m = n + (proto.hasLeader() ? 1u : 0u);
  ConfigGraph g;
  g.numParticipants = m;
  const PhaseScope phase(options.observer, options.exploreId, "explore");
  const PackedCodec codec(canonical ? PackedCodec::Form::kCanonical
                                    : PackedCodec::Form::kConcrete,
                          proto, n);
  detail::ExploreTracker tracker(options.observer, options.exploreId, g, codec,
                                 n);
  Interner interner(g, codec);
  Configuration next;
  Configuration next2;
  for (const auto& c : initials) {
    detail::assignConfig(next, c);
    if (canonical) std::sort(next.mobile.begin(), next.mobile.end());
    if (interner.intern(codec.pack(next)).second) tracker.recordInterned();
  }

  std::uint32_t head = 0;
  const auto frontierSize = [&] { return g.configs.size() - head; };
  std::vector<std::pair<PackedConfig, detail::EdgeMeta>> cands;
  std::vector<std::uint32_t> targets;
  while (head < g.configs.size()) {
    tracker.checkpoint(frontierSize());
    const bool overNodes = g.size() > options.maxNodes;
    const bool overBytes =
        options.maxBytes != 0 && tracker.totalBytes() > options.maxBytes;
    if (overNodes || overBytes) {
      g.truncated = true;
      g.truncatedByBudget = overBytes && !overNodes;
      tracker.recordTruncation(
          options.maxNodes, options.maxBytes, g.truncatedByBudget,
          std::views::iota(head, static_cast<std::uint32_t>(g.configs.size())));
      break;
    }
    const std::uint32_t id = head++;
    tracker.recordExpansion(frontierSize());

    // Enumerate-then-intern: same candidate order as the fused loop (the
    // enumerators never read graph state), sectioned so the tracker can
    // report expand vs dedup throughput separately. Interning starts only
    // after expansion, so `current` may reference configs directly.
    {
      const detail::SectionTimer timer(tracker,
                                       detail::ExploreTracker::Section::kExpand);
      const Configuration& current = g.configs[id];
      cands.clear();
      const auto keep = [&](const Configuration& succ,
                            const detail::EdgeMeta& meta) {
        cands.emplace_back(codec.pack(succ), meta);
      };
      if (canonical) {
        detail::forEachCanonicalSuccessor(proto, current, n, next, next2, keep);
      } else {
        detail::forEachConcreteSuccessor(proto, current, m, options.topology,
                                         next, next2, keep);
      }
    }
    targets.clear();
    {
      const detail::SectionTimer timer(tracker,
                                       detail::ExploreTracker::Section::kDedup);
      for (auto& [key, meta] : cands) {
        const auto [to, isNew] = interner.intern(std::move(key));
        if (isNew) tracker.recordInterned();
        tracker.recordEdge(!isNew);
        targets.push_back(to);
      }
    }
    {
      const detail::SectionTimer timer(tracker,
                                       detail::ExploreTracker::Section::kAppend);
      for (std::size_t k = 0; k < cands.size(); ++k) {
        const detail::EdgeMeta& meta = cands[k].second;
        g.adj[id].push_back(Edge{targets[k], meta.label, meta.initiator,
                                 meta.responder, meta.changed,
                                 meta.changedMobile, meta.changedName});
      }
    }
    tracker.recordNodeExpanded(g.adj[id].size());
  }
  tracker.finish(frontierSize());
  return g;
}

}  // namespace

ConfigGraph exploreConcrete(const Protocol& proto,
                            const std::vector<Configuration>& initials,
                            const ExploreOptions& options) {
  validateInitials("exploreConcrete", initials);
  const std::uint32_t n = initials.front().numMobile();
  const std::uint32_t m = n + (proto.hasLeader() ? 1u : 0u);
  if (options.topology != nullptr &&
      options.topology->numParticipants() != m) {
    throw std::invalid_argument(
        "exploreConcrete: topology participant count mismatch");
  }
  if (detail::resolveThreads(options.threads) > 1) {
    return detail::exploreParallelImpl(proto, initials, options,
                                       /*canonical=*/false);
  }
  if (options.storage == GraphStorage::kCompressed) {
    return detail::exploreSerialCompressed(proto, initials, options,
                                           /*canonical=*/false);
  }
  return exploreSerialExplicit(proto, initials, options, /*canonical=*/false);
}

ConfigGraph exploreCanonical(const Protocol& proto,
                             const std::vector<Configuration>& initials,
                             const ExploreOptions& options) {
  validateInitials("exploreCanonical", initials);
  if (options.topology != nullptr) {
    throw std::invalid_argument(
        "exploreCanonical: topologies require the concrete graph");
  }
  if (detail::resolveThreads(options.threads) > 1) {
    return detail::exploreParallelImpl(proto, initials, options,
                                       /*canonical=*/true);
  }
  if (options.storage == GraphStorage::kCompressed) {
    return detail::exploreSerialCompressed(proto, initials, options,
                                           /*canonical=*/true);
  }
  return exploreSerialExplicit(proto, initials, options, /*canonical=*/true);
}

ConfigGraph exploreConcrete(const Protocol& proto,
                            const std::vector<Configuration>& initials,
                            std::size_t maxNodes,
                            const InteractionGraph* topology,
                            ExploreObserver* observer,
                            std::uint64_t exploreId) {
  ExploreOptions options;
  options.maxNodes = maxNodes;
  options.topology = topology;
  options.observer = observer;
  options.exploreId = exploreId;
  return exploreConcrete(proto, initials, options);
}

ConfigGraph exploreCanonical(const Protocol& proto,
                             const std::vector<Configuration>& initials,
                             std::size_t maxNodes, ExploreObserver* observer,
                             std::uint64_t exploreId) {
  ExploreOptions options;
  options.maxNodes = maxNodes;
  options.observer = observer;
  options.exploreId = exploreId;
  return exploreCanonical(proto, initials, options);
}

}  // namespace ppn
