#include "analysis/weak_checker.h"

#include "analysis/scc.h"

namespace ppn {

WeakVerdict checkWeakFairness(const Protocol& proto, const Problem& problem,
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
  return checkWeakFairness(proto, problem, initials, options);
}

WeakVerdict checkWeakFairness(const Protocol& proto, const Problem& problem,
                              const std::vector<Configuration>& initials,
                              const ExploreOptions& options) {
  ExploreObserver* observer = options.observer;
  const std::uint64_t exploreId = options.exploreId;
  const InteractionGraph* topology = options.topology;
  const PhaseScope checkPhase(observer, exploreId, "check");
  WeakVerdict verdict;
  const ConfigGraph graph = exploreConcrete(proto, initials, options);
  verdict.numConfigs = graph.size();
  if (graph.truncated) {
    verdict.reason = truncationReason(graph, options);
    return verdict;
  }
  verdict.explored = true;

  SccDecomposition scc;
  {
    const PhaseScope sccPhase(observer, exploreId, "scc");
    scc = decomposeScc(graph);
  }
  const PhaseScope verdictPhase(observer, exploreId, "verdict");
  verdict.numSccs = scc.numSccs;
  const std::uint32_t pairs = numPairs(graph.numParticipants);
  // Required labels: all pairs in the complete model, or the topology edges.
  const std::uint32_t required =
      topology == nullptr ? pairs
                          : static_cast<std::uint32_t>(topology->numEdges());

  std::vector<std::uint8_t> labelSeen(pairs);
  ConfigGraph::Reader configs(graph);
  for (std::uint32_t s = 0; s < scc.numSccs; ++s) {
    // Coverage: which pair labels appear on S-internal edges, and whether
    // any internal edge changes mobile state.
    std::fill(labelSeen.begin(), labelSeen.end(), 0);
    std::uint32_t covered = 0;
    bool internalMobileChange = false;
    for (const std::uint32_t node : scc.members[s]) {
      graph.forEachEdge(node, [&](const Edge& e) {
        if (scc.sccOf[e.to] != s) return;
        if (e.label < pairs && !labelSeen[e.label]) {
          labelSeen[e.label] = 1;
          ++covered;
        }
        if (e.changedName) internalMobileChange = true;
      });
    }
    if (covered != required) continue;  // not fair: some pair can't recur

    bool predicateFails = false;
    std::optional<Configuration> failWitness;
    for (const std::uint32_t node : scc.members[s]) {
      const Configuration& c = configs.at(node);
      if (!problem.holds(c)) {
        predicateFails = true;
        failWitness = c;
        break;
      }
    }
    const bool violating =
        predicateFails ||
        (problem.requireMobileQuiescence && internalMobileChange);
    if (violating) {
      ++verdict.violatingSccs;
      if (!verdict.witness.has_value()) {
        verdict.witness = failWitness.has_value()
                              ? std::move(*failWitness)
                              : graph.config(scc.members[s].front());
        verdict.witnessSccSize = scc.members[s].size();
        verdict.reason =
            predicateFails
                ? "weakly fair SCC of " + std::to_string(scc.members[s].size()) +
                      " configuration(s) violates '" + problem.name + "'"
                : "weakly fair SCC of " + std::to_string(scc.members[s].size()) +
                      " configuration(s) changes mobile states forever";
      }
    }
  }

  verdict.solves = (verdict.violatingSccs == 0);
  if (verdict.solves) {
    verdict.reason = "no violating weakly fair SCC among " +
                     std::to_string(verdict.numSccs) + " SCC(s)";
  }
  return verdict;
}

}  // namespace ppn
