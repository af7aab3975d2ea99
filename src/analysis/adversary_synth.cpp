#include "analysis/adversary_synth.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>

#include "analysis/scc.h"
#include "core/engine.h"

namespace ppn {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// BFS from `from` to any node satisfying `isTarget`, using edges accepted by
/// `edgeOk`. Returns the interaction sequence and final node, or nullopt.
std::optional<std::pair<std::vector<Interaction>, std::uint32_t>> bfsPath(
    const ConfigGraph& graph, std::uint32_t from,
    const std::function<bool(std::uint32_t)>& isTarget,
    const std::function<bool(std::uint32_t, const Edge&)>& edgeOk) {
  if (isTarget(from)) return std::pair{std::vector<Interaction>{}, from};
  std::vector<std::uint32_t> parent(graph.size(), kNone);
  std::vector<Interaction> via(graph.size());
  std::deque<std::uint32_t> queue{from};
  parent[from] = from;
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    std::optional<std::uint32_t> hit;
    graph.forEachEdge(v, [&](const Edge& e) {
      if (hit.has_value()) return;
      if (!edgeOk(v, e)) return;
      if (parent[e.to] != kNone) return;
      parent[e.to] = v;
      via[e.to] = e.interaction();
      if (isTarget(e.to)) {
        hit = e.to;
        return;
      }
      queue.push_back(e.to);
    });
    if (hit.has_value()) {
      std::vector<Interaction> path;
      for (std::uint32_t w = *hit; w != from; w = parent[w]) {
        path.push_back(via[w]);
      }
      std::reverse(path.begin(), path.end());
      return std::pair{std::move(path), *hit};
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<AdversarySchedule> synthesizeWeakAdversary(
    const Protocol& proto, const Problem& problem,
    const std::vector<Configuration>& initials, std::size_t maxNodes,
    const InteractionGraph* topology, ExploreObserver* observer,
    std::uint64_t exploreId) {
  ExploreOptions options;
  options.maxNodes = maxNodes;
  options.topology = topology;
  options.observer = observer;
  options.exploreId = exploreId;
  return synthesizeWeakAdversary(proto, problem, initials, options);
}

std::optional<AdversarySchedule> synthesizeWeakAdversary(
    const Protocol& proto, const Problem& problem,
    const std::vector<Configuration>& initials, const ExploreOptions& options) {
  ExploreObserver* observer = options.observer;
  const std::uint64_t exploreId = options.exploreId;
  const InteractionGraph* topology = options.topology;
  const PhaseScope synthPhase(observer, exploreId, "synthesize");
  const ConfigGraph graph = exploreConcrete(proto, initials, options);
  if (graph.truncated) return std::nullopt;
  SccDecomposition scc;
  {
    const PhaseScope sccPhase(observer, exploreId, "scc");
    scc = decomposeScc(graph);
  }
  const std::uint32_t pairs = numPairs(graph.numParticipants);
  const std::uint32_t required =
      topology == nullptr ? pairs
                          : static_cast<std::uint32_t>(topology->numEdges());

  // Find the first violating fair SCC, mirroring checkWeakFairness.
  ConfigGraph::Reader configs(graph);
  for (std::uint32_t s = 0; s < scc.numSccs; ++s) {
    // One internal edge per label, plus one mobile-changing internal edge.
    std::vector<std::pair<std::uint32_t, Edge>> labelEdge(
        pairs, {kNone, Edge{}});
    std::uint32_t covered = 0;
    std::optional<std::pair<std::uint32_t, Edge>> mobileChangeEdge;
    for (const std::uint32_t node : scc.members[s]) {
      graph.forEachEdge(node, [&](const Edge& e) {
        if (scc.sccOf[e.to] != s) return;
        if (e.label < pairs && labelEdge[e.label].first == kNone) {
          labelEdge[e.label] = {node, e};
          ++covered;
        }
        if (e.changedName && !mobileChangeEdge.has_value()) {
          mobileChangeEdge = {node, e};
        }
      });
    }
    if (covered != required) continue;

    std::optional<std::uint32_t> badConfig;
    for (const std::uint32_t node : scc.members[s]) {
      if (!problem.holds(configs.at(node))) {
        badConfig = node;
        break;
      }
    }
    const bool violating =
        badConfig.has_value() ||
        (problem.requireMobileQuiescence && mobileChangeEdge.has_value());
    if (!violating) continue;

    // --- Synthesize. Entry: BFS from any initial node into S.
    auto inScc = [&](std::uint32_t v) { return scc.sccOf[v] == s; };
    auto anyEdge = [](std::uint32_t, const Edge&) { return true; };
    auto internalEdge = [&](std::uint32_t, const Edge& e) {
      return scc.sccOf[e.to] == s;
    };

    // Initial node: initials were interned first, so their ids are the ids
    // of their configurations; find them by lookup.
    std::optional<std::pair<std::vector<Interaction>, std::uint32_t>> entry;
    for (const auto& init : initials) {
      const std::optional<std::uint32_t> initId = graph.findConfig(init);
      if (!initId.has_value()) continue;
      const std::uint32_t from = *initId;
      entry = bfsPath(graph, from, inScc, anyEdge);
      if (entry.has_value()) {
        AdversarySchedule schedule;
        schedule.start = init;
        schedule.prefix = std::move(entry->first);
        schedule.numParticipants = graph.numParticipants;

        // Waypoints: every label's chosen edge, the mobile-change edge (for
        // quiescence violations), and the predicate-violating config.
        std::uint32_t cursor = entry->second;
        const std::uint32_t home = cursor;
        auto walkTo = [&](std::uint32_t target) {
          const auto leg =
              bfsPath(graph, cursor, [&](std::uint32_t v) { return v == target; },
                      internalEdge);
          // Within an SCC a path always exists.
          schedule.cycle.insert(schedule.cycle.end(), leg->first.begin(),
                                leg->first.end());
          cursor = target;
        };
        auto takeEdge = [&](const std::pair<std::uint32_t, Edge>& stop) {
          walkTo(stop.first);
          schedule.cycle.push_back(stop.second.interaction());
          cursor = stop.second.to;
        };

        for (std::uint32_t label = 0; label < pairs; ++label) {
          if (labelEdge[label].first != kNone) takeEdge(labelEdge[label]);
        }
        if (problem.requireMobileQuiescence && mobileChangeEdge.has_value()) {
          takeEdge(*mobileChangeEdge);
        }
        if (badConfig.has_value()) walkTo(*badConfig);
        walkTo(home);  // close the loop
        return schedule;
      }
    }
  }
  return std::nullopt;
}

ReplayReport replayAdversary(const Protocol& proto, const Problem& problem,
                             const AdversarySchedule& schedule,
                             const InteractionGraph* topology) {
  ReplayReport report;
  Engine engine(proto, schedule.start);
  for (const Interaction it : schedule.prefix) engine.step(it);

  const Configuration entry = engine.config();
  const std::uint32_t pairs = numPairs(schedule.numParticipants);
  std::vector<std::uint8_t> seen(pairs, 0);
  bool violated = !problem.holds(engine.config());
  for (const Interaction it : schedule.cycle) {
    const std::uint32_t a = std::min(it.initiator, it.responder);
    const std::uint32_t b = std::max(it.initiator, it.responder);
    seen[pairLabel(a, b, schedule.numParticipants)] = 1;
    const Configuration before = engine.config();
    engine.step(it);
    if (problem.requireMobileQuiescence) {
      for (std::size_t k = 0; k < before.mobile.size(); ++k) {
        if (proto.nameOf(before.mobile[k]) !=
            proto.nameOf(engine.config().mobile[k])) {
          violated = true;
          break;
        }
      }
    }
    if (!problem.holds(engine.config())) violated = true;
  }

  report.cycleClosed = engine.config() == entry;
  const std::uint32_t required =
      topology == nullptr ? pairs
                          : static_cast<std::uint32_t>(topology->numEdges());
  std::uint32_t covered = 0;
  for (const auto flag : seen) covered += flag;
  report.allPairsScheduled = covered >= required;
  report.violationWitnessed = violated;
  return report;
}

}  // namespace ppn
