#include "analysis/global_checker.h"

#include "analysis/scc.h"
#include "core/engine.h"

namespace ppn {

GlobalVerdict checkGlobalFairness(const Protocol& proto, const Problem& problem,
                                  const std::vector<Configuration>& initials,
                                  std::size_t maxNodes,
                                  ExploreObserver* observer,
                                  std::uint64_t exploreId) {
  ExploreOptions options;
  options.maxNodes = maxNodes;
  options.observer = observer;
  options.exploreId = exploreId;
  return checkGlobalFairness(proto, problem, initials, options);
}

GlobalVerdict checkGlobalFairness(const Protocol& proto, const Problem& problem,
                                  const std::vector<Configuration>& initials,
                                  const ExploreOptions& options) {
  ExploreObserver* observer = options.observer;
  const std::uint64_t exploreId = options.exploreId;
  const PhaseScope checkPhase(observer, exploreId, "check");
  GlobalVerdict verdict;
  const ConfigGraph graph = exploreCanonical(proto, initials, options);
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
  verdict.solves = true;
  ConfigGraph::Reader configs(graph);
  for (std::uint32_t s = 0; s < scc.numSccs; ++s) {
    if (!scc.bottom[s]) continue;
    ++verdict.numBottomSccs;
    for (const std::uint32_t node : scc.members[s]) {
      const Configuration& c = configs.at(node);
      if (!problem.holds(c)) {
        verdict.solves = false;
        verdict.witness = c;
        verdict.reason = "bottom SCC contains a configuration violating '" +
                         problem.name + "'";
        return verdict;
      }
      if (problem.requireMobileQuiescence && !isNameQuiescent(proto, c)) {
        verdict.solves = false;
        verdict.witness = c;
        verdict.reason =
            "bottom SCC keeps changing mobile states (names never freeze)";
        return verdict;
      }
    }
  }
  verdict.reason = "all " + std::to_string(verdict.numBottomSccs) +
                   " bottom SCC(s) satisfy '" + problem.name + "'";
  return verdict;
}

GlobalVerdict checkGlobalFairnessConcrete(
    const Protocol& proto, const Problem& problem,
    const std::vector<Configuration>& initials, std::size_t maxNodes,
    const InteractionGraph* topology, ExploreObserver* observer,
    std::uint64_t exploreId) {
  ExploreOptions options;
  options.maxNodes = maxNodes;
  options.topology = topology;
  options.observer = observer;
  options.exploreId = exploreId;
  return checkGlobalFairnessConcrete(proto, problem, initials, options);
}

GlobalVerdict checkGlobalFairnessConcrete(
    const Protocol& proto, const Problem& problem,
    const std::vector<Configuration>& initials, const ExploreOptions& options) {
  ExploreObserver* observer = options.observer;
  const std::uint64_t exploreId = options.exploreId;
  const PhaseScope checkPhase(observer, exploreId, "check");
  GlobalVerdict verdict;
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
  verdict.solves = true;
  ConfigGraph::Reader configs(graph);
  for (std::uint32_t s = 0; s < scc.numSccs; ++s) {
    if (!scc.bottom[s]) continue;
    ++verdict.numBottomSccs;
    for (const std::uint32_t node : scc.members[s]) {
      const Configuration& c = configs.at(node);
      if (!problem.holds(c)) {
        verdict.solves = false;
        verdict.witness = c;
        verdict.reason = "bottom SCC contains a configuration violating '" +
                         problem.name + "'";
        return verdict;
      }
      if (problem.requireMobileQuiescence) {
        bool nameChange = false;
        graph.forEachEdge(node, [&](const Edge& e) {
          if (e.changedName) nameChange = true;
        });
        if (nameChange) {
          verdict.solves = false;
          verdict.witness = c;
          verdict.reason =
              "bottom SCC keeps changing mobile states (names never freeze)";
          return verdict;
        }
      }
    }
  }
  verdict.reason = "all " + std::to_string(verdict.numBottomSccs) +
                   " bottom SCC(s) satisfy '" + problem.name + "'";
  return verdict;
}

}  // namespace ppn
