// Stale-scratch suite: the serial compressed explorer and decomposeScc keep
// per-thread working memory across calls (DESIGN.md decision 19), so a
// graph must not depend on what the same thread explored before it. Each
// test runs explorations of different shapes back to back on one thread —
// large then tiny, concrete and canonical, leader and leaderless, 1-, 2- and
// 4-byte codec widths, truncated then complete, spilled then in RAM — and
// requires every graph, and its SCC decomposition, to equal those of a fresh
// explicit-storage exploration. The last test interleaves the same checks
// with a 4-thread searchProblem's candidate explorations on its workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/explore.h"
#include "analysis/initial_sets.h"
#include "analysis/problem.h"
#include "analysis/protocol_search.h"
#include "analysis/scc.h"
#include "naming/registry.h"

namespace ppn {
namespace {

/// `numStates` states; two agents in the same state push the responder a
/// third of the state space up (saturating), every other pair is null. Its
/// reachable graphs are tiny however large the state space, so it exercises
/// the concrete codec's 2- and 4-byte element widths cheaply.
class WideStepProtocol final : public Protocol {
 public:
  explicit WideStepProtocol(StateId numStates) : numStates_(numStates) {}
  std::string name() const override { return "wide-step"; }
  StateId numMobileStates() const override { return numStates_; }
  bool isSymmetric() const override { return false; }
  MobilePair mobileDelta(StateId initiator, StateId responder) const override {
    if (initiator != responder) return {initiator, responder};
    const StateId up = std::min<StateId>(numStates_ - 1,
                                         responder + numStates_ / 3);
    return {initiator, up};
  }

 private:
  StateId numStates_;
};

/// Two states; two agents in state 0 turn the responder into 1. From all-0,
/// its canonical graph is a 256-node chain at N = 256, whose occupancy
/// counts need the canonical codec's 2-byte elements.
class CountUpProtocol final : public Protocol {
 public:
  std::string name() const override { return "count-up"; }
  StateId numMobileStates() const override { return 2; }
  bool isSymmetric() const override { return false; }
  MobilePair mobileDelta(StateId initiator, StateId responder) const override {
    if (initiator == 0 && responder == 0) return {0, 1};
    return {initiator, responder};
  }
};

Configuration uniform(std::uint32_t n, StateId s) {
  Configuration c;
  c.mobile.assign(n, s);
  return c;
}

/// One exploration to repeat under both storages.
struct Shape {
  std::string name;
  std::shared_ptr<const Protocol> proto;
  std::vector<Configuration> initials;
  bool canonical = false;
  std::size_t maxNodes = 4'000'000;
  std::uint64_t spillBytes = 0;
};

ConfigGraph exploreShape(const Shape& s, GraphStorage storage) {
  ExploreOptions options;
  options.storage = storage;
  options.maxNodes = s.maxNodes;
  if (storage == GraphStorage::kCompressed) {
    options.spillBytes = s.spillBytes;
    if (s.spillBytes != 0) {
      const auto dir = std::filesystem::temp_directory_path() /
                       "ppn-explore-scratch-test";
      std::filesystem::create_directories(dir);
      options.spillDir = dir.string();
    }
  }
  return s.canonical ? exploreCanonical(*s.proto, s.initials, options)
                     : exploreConcrete(*s.proto, s.initials, options);
}

void expectSameGraph(const ConfigGraph& got, const ConfigGraph& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.numParticipants, want.numParticipants) << where;
  EXPECT_EQ(got.truncated, want.truncated) << where;
  EXPECT_EQ(got.truncatedByBudget, want.truncatedByBudget) << where;
  ConfigGraph::Reader gotConfigs(got);
  for (std::uint32_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.config(i), want.config(i)) << where << " node " << i;
    ASSERT_EQ(gotConfigs.at(i), want.config(i)) << where << " node " << i;
    const std::vector<Edge> ge = got.edges(i);
    const std::vector<Edge> we = want.edges(i);
    ASSERT_EQ(ge.size(), we.size()) << where << " node " << i;
    for (std::size_t k = 0; k < ge.size(); ++k) {
      const Edge& x = ge[k];
      const Edge& y = we[k];
      ASSERT_TRUE(x.to == y.to && x.label == y.label &&
                  x.initiator == y.initiator && x.responder == y.responder &&
                  x.changed == y.changed && x.changedMobile == y.changedMobile &&
                  x.changedName == y.changedName)
          << where << " node " << i << " edge " << k;
    }
  }
}

void expectSameScc(const ConfigGraph& got, const ConfigGraph& want,
                   const std::string& where) {
  const SccDecomposition sg = decomposeScc(got);
  const SccDecomposition sw = decomposeScc(want);
  EXPECT_EQ(sg.numSccs, sw.numSccs) << where;
  EXPECT_EQ(sg.sccOf, sw.sccOf) << where;
  EXPECT_EQ(sg.members, sw.members) << where;
  EXPECT_EQ(sg.bottom, sw.bottom) << where;
}

/// Explores `s` under compressed storage on the calling thread (reusing its
/// scratch) and checks graph and SCCs against a fresh explicit exploration.
void checkShape(const Shape& s) {
  const ConfigGraph got = exploreShape(s, GraphStorage::kCompressed);
  ASSERT_TRUE(got.compressed()) << s.name;
  const ConfigGraph want = exploreShape(s, GraphStorage::kExplicit);
  ASSERT_FALSE(want.compressed()) << s.name;
  expectSameGraph(got, want, s.name);
  expectSameScc(got, want, s.name);
}

/// Small shapes covering every codec width, form and leader mode.
std::vector<Shape> smallShapes() {
  const std::shared_ptr<const Protocol> asym = makeProtocol("asymmetric", 3);
  const std::shared_ptr<const Protocol> leader =
      makeProtocol("leader-uniform", 3);
  const std::shared_ptr<const Protocol> wide2 =
      std::make_shared<WideStepProtocol>(300);
  const std::shared_ptr<const Protocol> wide4 =
      std::make_shared<WideStepProtocol>(70'000);
  const std::shared_ptr<const Protocol> countUp =
      std::make_shared<CountUpProtocol>();
  Configuration distinct;
  distinct.mobile = {0, 100, 200};
  std::vector<Shape> shapes;
  // Every interaction is null: a one-node graph, so the next exploration's
  // first pop has the same id as this one's last.
  shapes.push_back({"single silent node", wide2, {distinct}, false});
  shapes.push_back({"tiny concrete leaderless", asym,
                    allConcreteConfigurations(*asym, 2), false});
  shapes.push_back({"tiny canonical leaderless", asym,
                    allCanonicalConfigurations(*asym, 3), true});
  shapes.push_back({"concrete leader", leader,
                    allUniformInitials(*leader, 3), false});
  shapes.push_back({"canonical leader", leader,
                    allUniformInitials(*leader, 3), true});
  shapes.push_back({"concrete 2-byte width", wide2, {uniform(3, 0)}, false});
  shapes.push_back({"concrete 4-byte width", wide4, {uniform(3, 0)}, false});
  shapes.push_back({"canonical 2-byte width", countUp, {uniform(256, 0)}, true});
  return shapes;
}

TEST(ExploreScratch, AnchorThenTinyShapesMatchFreshExplicit) {
  // The 92,378-node anchor grows every per-thread buffer (and is large
  // enough that its dedup table is released afterwards); the tiny shapes
  // after it must not see any of it.
  const std::shared_ptr<const Protocol> asym = makeProtocol("asymmetric", 10);
  checkShape({"anchor asymmetric P=10 N=10", asym,
              allCanonicalConfigurations(*asym, 10), true});
  for (const Shape& s : smallShapes()) checkShape(s);
}

TEST(ExploreScratch, WidthsAndFormsInterleaved) {
  const std::vector<Shape> shapes = smallShapes();
  // Every ordered pair of shapes, so each one runs right after each other.
  for (const Shape& first : shapes) {
    for (const Shape& second : shapes) {
      checkShape(first);
      checkShape(second);
    }
  }
}

TEST(ExploreScratch, TruncatedThenComplete) {
  const std::shared_ptr<const Protocol> asym = makeProtocol("asymmetric", 4);
  Shape full{"complete concrete", asym, allConcreteConfigurations(*asym, 4),
             false};
  Shape cut = full;
  cut.name = "truncated concrete";
  cut.maxNodes = 40;
  checkShape(cut);
  ASSERT_TRUE(exploreShape(cut, GraphStorage::kCompressed).truncated);
  checkShape(full);
  ASSERT_FALSE(exploreShape(full, GraphStorage::kCompressed).truncated);
  Shape cutCanonical{"truncated canonical", asym,
                     allCanonicalConfigurations(*asym, 4), true, 7};
  checkShape(cutCanonical);
  for (const Shape& s : smallShapes()) checkShape(s);
}

TEST(ExploreScratch, SpilledThenInRam) {
  // 15,625 concrete configurations: a 64 KiB spill threshold drains the
  // dedup table to disk several times.
  const std::shared_ptr<const Protocol> asym = makeProtocol("asymmetric", 5);
  Shape spilled{"spilled concrete", asym, allConcreteConfigurations(*asym, 6),
                false};
  spilled.spillBytes = 64 * 1024;
  Shape inRam = spilled;
  inRam.name = "in-RAM concrete";
  inRam.spillBytes = 0;
  checkShape(spilled);
  checkShape(inRam);
  for (const Shape& s : smallShapes()) checkShape(s);
  checkShape(spilled);
  for (const Shape& s : smallShapes()) checkShape(s);
}

TEST(ExploreScratch, FourThreadSearchWorkersMatchFreshExplicit) {
  // Each candidate's problem factory runs on the worker that then explores
  // the candidate, so the shape checks below interleave with the search's
  // own explorations in every worker's scratch.
  const std::vector<Shape> shapes = smallShapes();
  std::atomic<std::uint64_t> calls{0};
  const auto problemFor = [&](const Protocol& proto) {
    const std::uint64_t k = calls.fetch_add(1, std::memory_order_relaxed);
    if (k % 16 == 0) checkShape(shapes[(k / 16) % shapes.size()]);
    return namingProblem(proto);
  };
  SearchOptions par;
  par.threads = 4;
  const SearchOutcome got =
      searchProblem(2, 3, Fairness::kWeak, /*symmetricSpace=*/false,
                    /*selfStabilizing=*/true, problemFor, par);
  SearchOptions serialExplicit;
  serialExplicit.storage = GraphStorage::kExplicit;
  const SearchOutcome want = searchProblem(
      2, 3, Fairness::kWeak, /*symmetricSpace=*/false,
      /*selfStabilizing=*/true,
      [](const Protocol& proto) { return namingProblem(proto); },
      serialExplicit);
  EXPECT_EQ(got.examined, want.examined);
  EXPECT_EQ(got.solvers, want.solvers);
  EXPECT_EQ(got.unknown, want.unknown);
  EXPECT_EQ(got.solverIndices, want.solverIndices);
  EXPECT_GE(calls.load(), shapes.size() * 16);
}

}  // namespace
}  // namespace ppn
