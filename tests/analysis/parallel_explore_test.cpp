// Differential tests for the parallel exploration engine: threads = K must
// produce BIT-IDENTICAL output to the serial reference path (threads = 1) —
// same node ids, same edge order, same truncation behavior, same checker
// verdicts — across every registry protocol at small P. This is the
// determinism contract of DESIGN.md decision 14.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "analysis/explore.h"
#include "analysis/global_checker.h"
#include "analysis/initial_sets.h"
#include "analysis/packed_config.h"
#include "analysis/problem.h"
#include "analysis/protocol_search.h"
#include "analysis/weak_checker.h"
#include "core/interaction_graph.h"
#include "naming/registry.h"
#include "obs/explore_observer.h"

namespace ppn {
namespace {

// ---------------------------------------------------------------------------
// Bit-identity helpers.

void expectEdgesEqual(const Edge& a, const Edge& b, const char* where,
                      std::size_t node, std::size_t k) {
  EXPECT_EQ(a.to, b.to) << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.label, b.label) << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.initiator, b.initiator)
      << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.responder, b.responder)
      << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.changed, b.changed) << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.changedMobile, b.changedMobile)
      << where << " node " << node << " edge " << k;
  EXPECT_EQ(a.changedName, b.changedName)
      << where << " node " << node << " edge " << k;
}

void expectGraphsIdentical(const ConfigGraph& serial, const ConfigGraph& par,
                           const char* where) {
  ASSERT_EQ(serial.size(), par.size()) << where;
  EXPECT_EQ(serial.numParticipants, par.numParticipants) << where;
  EXPECT_EQ(serial.truncated, par.truncated) << where;
  EXPECT_EQ(serial.truncatedByBudget, par.truncatedByBudget) << where;
  for (std::uint32_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.config(i), par.config(i)) << where << " node " << i;
    const std::vector<Edge> se = serial.edges(i);
    const std::vector<Edge> pe = par.edges(i);
    ASSERT_EQ(se.size(), pe.size()) << where << " node " << i;
    for (std::size_t k = 0; k < se.size(); ++k) {
      expectEdgesEqual(se[k], pe[k], where, i, k);
    }
  }
}

ExploreOptions withThreads(std::uint32_t threads,
                           std::size_t maxNodes = 4'000'000) {
  ExploreOptions options;
  options.threads = threads;
  options.maxNodes = maxNodes;
  return options;
}

// Small P per registry key such that the canonical graph over ALL
// configurations closes quickly.
struct RegistryCase {
  const char* key;
  StateId p;
  std::uint32_t n;  ///< mobile population
};

std::vector<RegistryCase> smallCases() {
  return {{"asymmetric", 3, 3},    {"symmetric-global", 2, 3},
          {"leader-uniform", 3, 3}, {"counting", 2, 3},
          {"selfstab-weak", 2, 3},  {"global-leader", 3, 3}};
}

// ---------------------------------------------------------------------------
// Canonical + concrete bit-identity across the whole registry.

TEST(ParallelExplore, CanonicalBitIdenticalAcrossRegistry) {
  for (const RegistryCase& rc : smallCases()) {
    const auto proto = makeProtocol(rc.key, rc.p);
    const auto initials = allCanonicalConfigurations(*proto, rc.n);
    const ConfigGraph serial =
        exploreCanonical(*proto, initials, withThreads(1));
    for (const std::uint32_t threads : {2u, 4u}) {
      const ConfigGraph par =
          exploreCanonical(*proto, initials, withThreads(threads));
      expectGraphsIdentical(serial, par, rc.key);
    }
  }
}

TEST(ParallelExplore, ConcreteBitIdenticalAcrossRegistry) {
  for (const RegistryCase& rc : smallCases()) {
    const auto proto = makeProtocol(rc.key, rc.p);
    const auto initials = allConcreteConfigurations(*proto, rc.n);
    const ConfigGraph serial = exploreConcrete(*proto, initials, withThreads(1));
    for (const std::uint32_t threads : {2u, 4u}) {
      const ConfigGraph par =
          exploreConcrete(*proto, initials, withThreads(threads));
      expectGraphsIdentical(serial, par, rc.key);
    }
  }
}

TEST(ParallelExplore, ThreadsZeroMeansHardwareConcurrency) {
  const auto proto = makeProtocol("asymmetric", 3);
  const auto initials = allCanonicalConfigurations(*proto, 3);
  const ConfigGraph serial = exploreCanonical(*proto, initials, withThreads(1));
  const ConfigGraph par = exploreCanonical(*proto, initials, withThreads(0));
  expectGraphsIdentical(serial, par, "threads=0");
}

TEST(ParallelExplore, TopologyRestrictedConcreteBitIdentical) {
  const auto proto = makeProtocol("asymmetric", 3);
  const auto initials = allUniformInitials(*proto, 4);
  for (const InteractionGraph& topo :
       {InteractionGraph::ring(4), InteractionGraph::line(4),
        InteractionGraph::star(4, 0)}) {
    ExploreOptions serialOpt = withThreads(1);
    serialOpt.topology = &topo;
    const ConfigGraph serial = exploreConcrete(*proto, initials, serialOpt);
    ExploreOptions parOpt = withThreads(4);
    parOpt.topology = &topo;
    const ConfigGraph par = exploreConcrete(*proto, initials, parOpt);
    expectGraphsIdentical(serial, par, "topology");
  }
}

// ---------------------------------------------------------------------------
// Truncation under parallelism: for EVERY cap value, the parallel engine must
// reproduce the serial cut exactly — node count, truncated flag, and the
// contents/order of everything interned before the cut. Sweeping all caps
// exercises entry-of-level cuts, mid-level cuts and the no-cut case.

TEST(ParallelExplore, TruncationSweepMatchesSerialAtEveryCap) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  const ConfigGraph full = exploreCanonical(*proto, initials, withThreads(1));
  ASSERT_GT(full.size(), initials.size()) << "graph must grow to test cuts";
  for (std::size_t cap = initials.size(); cap <= full.size() + 1; ++cap) {
    const ConfigGraph serial =
        exploreCanonical(*proto, initials, withThreads(1, cap));
    for (const std::uint32_t threads : {2u, 4u}) {
      const ConfigGraph par =
          exploreCanonical(*proto, initials, withThreads(threads, cap));
      expectGraphsIdentical(serial, par, "truncation");
    }
  }
}

TEST(ParallelExplore, TruncationSweepConcrete) {
  const auto proto = makeProtocol("asymmetric", 3);
  const auto initials = allUniformInitials(*proto, 3);
  const ConfigGraph full = exploreConcrete(*proto, initials, withThreads(1));
  for (std::size_t cap = initials.size(); cap <= full.size() + 1; ++cap) {
    const ConfigGraph serial =
        exploreConcrete(*proto, initials, withThreads(1, cap));
    const ConfigGraph par =
        exploreConcrete(*proto, initials, withThreads(4, cap));
    expectGraphsIdentical(serial, par, "truncation-concrete");
  }
}

// The truncation EVENT must also match: same frontier ids in the same order.
class TruncationCapture final : public ExploreObserver {
 public:
  void onTruncated(const ExploreTruncatedEvent& e) override {
    events.push_back(e);
  }
  std::vector<ExploreTruncatedEvent> events;
};

TEST(ParallelExplore, TruncationEventFrontierMatchesSerial) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  const ConfigGraph full = exploreCanonical(*proto, initials, withThreads(1));
  // Pick a mid-growth cap so the cut lands inside a level.
  const std::size_t cap = initials.size() + (full.size() - initials.size()) / 2;
  TruncationCapture serialCap;
  ExploreOptions serialOpt = withThreads(1, cap);
  serialOpt.observer = &serialCap;
  exploreCanonical(*proto, initials, serialOpt);
  TruncationCapture parCap;
  ExploreOptions parOpt = withThreads(4, cap);
  parOpt.observer = &parCap;
  exploreCanonical(*proto, initials, parOpt);
  ASSERT_EQ(serialCap.events.size(), parCap.events.size());
  for (std::size_t i = 0; i < serialCap.events.size(); ++i) {
    EXPECT_EQ(serialCap.events[i].nodes, parCap.events[i].nodes);
    EXPECT_EQ(serialCap.events[i].maxNodes, parCap.events[i].maxNodes);
    EXPECT_EQ(serialCap.events[i].frontier, parCap.events[i].frontier);
  }
}

// ---------------------------------------------------------------------------
// Checker verdicts: identical at threads = 1 vs 4 across the registry.

TEST(ParallelExplore, WeakVerdictIdenticalAcrossRegistry) {
  for (const RegistryCase& rc : smallCases()) {
    const auto proto = makeProtocol(rc.key, rc.p);
    const Problem problem = namingProblem(*proto);
    const auto initials = allCanonicalConfigurations(*proto, rc.n);
    const WeakVerdict serial =
        checkWeakFairness(*proto, problem, initials, withThreads(1));
    const WeakVerdict par =
        checkWeakFairness(*proto, problem, initials, withThreads(4));
    EXPECT_EQ(serial.explored, par.explored) << rc.key;
    EXPECT_EQ(serial.solves, par.solves) << rc.key;
    EXPECT_EQ(serial.numConfigs, par.numConfigs) << rc.key;
    EXPECT_EQ(serial.numSccs, par.numSccs) << rc.key;
    EXPECT_EQ(serial.violatingSccs, par.violatingSccs) << rc.key;
    EXPECT_EQ(serial.witness, par.witness) << rc.key;
    EXPECT_EQ(serial.witnessSccSize, par.witnessSccSize) << rc.key;
    EXPECT_EQ(serial.reason, par.reason) << rc.key;
  }
}

TEST(ParallelExplore, GlobalVerdictIdenticalAcrossRegistry) {
  for (const RegistryCase& rc : smallCases()) {
    const auto proto = makeProtocol(rc.key, rc.p);
    const Problem problem = namingProblem(*proto);
    const auto initials = allCanonicalConfigurations(*proto, rc.n);
    const GlobalVerdict serial =
        checkGlobalFairness(*proto, problem, initials, withThreads(1));
    const GlobalVerdict par =
        checkGlobalFairness(*proto, problem, initials, withThreads(4));
    EXPECT_EQ(serial.explored, par.explored) << rc.key;
    EXPECT_EQ(serial.solves, par.solves) << rc.key;
    EXPECT_EQ(serial.numConfigs, par.numConfigs) << rc.key;
    EXPECT_EQ(serial.numBottomSccs, par.numBottomSccs) << rc.key;
    EXPECT_EQ(serial.witness, par.witness) << rc.key;
    EXPECT_EQ(serial.reason, par.reason) << rc.key;
  }
}

// ---------------------------------------------------------------------------
// Parallel protocol search: deterministic outcome, equal to serial.

void expectOutcomesEqual(const SearchOutcome& a, const SearchOutcome& b,
                         const char* where) {
  EXPECT_EQ(a.examined, b.examined) << where;
  EXPECT_EQ(a.solvers, b.solvers) << where;
  EXPECT_EQ(a.unknown, b.unknown) << where;
  EXPECT_EQ(a.solverIndices, b.solverIndices) << where;
}

TEST(ParallelSearch, UniformNamingSymmetricSpaceMatchesSerial) {
  SearchOptions serial;
  serial.threads = 1;
  SearchOptions par;
  par.threads = 4;
  const SearchOutcome s =
      searchUniformNaming(2, 2, Fairness::kGlobal, /*symmetricSpace=*/true,
                          serial);
  const SearchOutcome p =
      searchUniformNaming(2, 2, Fairness::kGlobal, /*symmetricSpace=*/true,
                          par);
  expectOutcomesEqual(s, p, "symmetric-global");
}

TEST(ParallelSearch, UniformNamingFullSpaceMatchesSerial) {
  SearchOptions serial;
  serial.threads = 1;
  SearchOptions par;
  par.threads = 4;
  const SearchOutcome s = searchUniformNaming(
      2, 2, Fairness::kWeak, /*symmetricSpace=*/false, serial);
  const SearchOutcome p =
      searchUniformNaming(2, 2, Fairness::kWeak, /*symmetricSpace=*/false, par);
  expectOutcomesEqual(s, p, "full-weak");
  // Positive control: the full asymmetric space at q=2 does contain solvers,
  // so solverIndices is non-empty and its determinism is meaningful.
  EXPECT_GT(s.solvers, 0u);
  EXPECT_FALSE(s.solverIndices.empty());
}

TEST(ParallelSearch, SelfStabilizingNamingMatchesSerial) {
  SearchOptions serial;
  serial.threads = 1;
  SearchOptions par;
  par.threads = 3;  // deliberately not a divisor of the space size
  const SearchOutcome s = searchSelfStabilizingNaming(
      2, 2, Fairness::kGlobal, /*symmetricSpace=*/true, serial);
  const SearchOutcome p = searchSelfStabilizingNaming(
      2, 2, Fairness::kGlobal, /*symmetricSpace=*/true, par);
  expectOutcomesEqual(s, p, "selfstab");
}

TEST(ParallelSearch, MoreThreadsThanCandidatesIsSafe) {
  SearchOptions par;
  par.threads = 64;  // symmetric q=2 space has only 16 candidates
  const SearchOutcome p =
      searchUniformNaming(2, 2, Fairness::kGlobal, /*symmetricSpace=*/true,
                          par);
  const SearchOutcome s = searchUniformNaming(2, 2, Fairness::kGlobal,
                                              /*symmetricSpace=*/true);
  expectOutcomesEqual(s, p, "overprovisioned");
}

// Progress events through the serialized observer stay per-search monotone.
class SearchProgressCapture final : public ExploreObserver {
 public:
  void onSearchProgress(const SearchProgressEvent& e) override {
    events.push_back(e);
  }
  std::vector<SearchProgressEvent> events;
};

TEST(ParallelSearch, ProgressEventsMonotoneAndTerminated) {
  SearchProgressCapture capture;
  SearchOptions options;
  options.threads = 4;
  options.observer = &capture;
  options.searchId = 7;
  const SearchOutcome outcome = searchUniformNaming(
      2, 2, Fairness::kWeak, /*symmetricSpace=*/false, options);
  ASSERT_FALSE(capture.events.empty());
  std::uint64_t last = 0;
  for (const SearchProgressEvent& e : capture.events) {
    EXPECT_EQ(e.searchId, 7u);
    EXPECT_GE(e.examined, last);
    last = e.examined;
  }
  EXPECT_TRUE(capture.events.back().done);
  EXPECT_EQ(capture.events.back().examined, outcome.examined);
  EXPECT_EQ(capture.events.back().solvers, outcome.solvers);
}

// ---------------------------------------------------------------------------
// PackedConfig / PackedCodec unit coverage.

TEST(PackedCodec, ConcreteRoundtrip) {
  const auto proto = makeProtocol("leader-uniform", 5);
  const PackedCodec codec(PackedCodec::Form::kConcrete, *proto, 4);
  const Configuration c{{0, 4, 2, 1}, std::uint64_t{3}};
  const PackedConfig packed = codec.pack(c);
  EXPECT_EQ(codec.unpack(packed), c);
}

TEST(PackedCodec, CanonicalRoundtripAndInjectivity) {
  const auto proto = makeProtocol("asymmetric", 4);
  const PackedCodec codec(PackedCodec::Form::kCanonical, *proto, 5);
  const auto initials = allCanonicalConfigurations(*proto, 5);
  std::vector<PackedConfig> keys;
  for (const Configuration& c : initials) {
    PackedConfig packed = codec.pack(c);
    EXPECT_EQ(codec.unpack(packed), c);
    for (const PackedConfig& other : keys) {
      EXPECT_FALSE(other == packed) << "distinct configs must pack distinctly";
    }
    keys.push_back(std::move(packed));
  }
}

TEST(PackedCodec, EqualConfigsPackEqualWithEqualHashes) {
  const auto proto = makeProtocol("counting", 3);
  const PackedCodec codec(PackedCodec::Form::kConcrete, *proto, 3);
  const Configuration c{{1, 0, 2}, std::uint64_t{5}};
  const PackedConfig a = codec.pack(c);
  const PackedConfig b = codec.pack(c);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(PackedCodec, WideStateSpaceUsesMultiByteElements) {
  // 300 mobile states forces 2-byte elements in concrete form.
  class Wide final : public Protocol {
   public:
    std::string name() const override { return "wide"; }
    StateId numMobileStates() const override { return 300; }
    bool isSymmetric() const override { return true; }
    MobilePair mobileDelta(StateId a, StateId b) const override {
      return {a, b};
    }
  };
  const Wide proto;
  const PackedCodec codec(PackedCodec::Form::kConcrete, proto, 3);
  const Configuration c{{299, 0, 257}, std::nullopt};
  EXPECT_EQ(codec.unpack(codec.pack(c)), c);
}

// ---------------------------------------------------------------------------
// Memory estimates: configGraphBytes must charge CAPACITY, not size, for
// per-node heap allocations, and the final done-event estimate (the memory
// ledger's total, which additionally counts the dedup table, frontier and
// codec spill) must cover it, match the final memory_sample exactly, and be
// engine-invariant.

TEST(ConfigGraphBytes, ChargesCapacityNotSize) {
  ConfigGraph g;
  g.numParticipants = 3;
  Configuration c{{0, 1, 2}, std::nullopt};
  c.mobile.reserve(10);  // capacity deliberately exceeds size
  g.configs.push_back(std::move(c));
  g.adj.emplace_back();
  g.adj[0].reserve(7);
  g.adj[0].push_back(Edge{});

  const std::uint64_t expected =
      (sizeof(Configuration) +
       g.configs[0].mobile.capacity() * sizeof(StateId)) +
      (sizeof(std::vector<Edge>) + g.adj[0].capacity() * sizeof(Edge));
  EXPECT_EQ(configGraphBytes(g), expected);
  // The capacity surcharge must actually be visible: a size-based estimate
  // would be strictly smaller.
  const std::uint64_t sizeBased =
      (sizeof(Configuration) + g.configs[0].mobile.size() * sizeof(StateId)) +
      (sizeof(std::vector<Edge>) + g.adj[0].size() * sizeof(Edge));
  EXPECT_GT(configGraphBytes(g), sizeBased);
}

class ProgressCapture final : public ExploreObserver {
 public:
  void onExploreProgress(const ExploreProgressEvent& e) override {
    events.push_back(e);
  }
  void onMemorySample(const MemorySampleEvent& e) override {
    samples.push_back(e);
  }
  std::vector<ExploreProgressEvent> events;
  std::vector<MemorySampleEvent> samples;
};

TEST(ConfigGraphBytes, FinalProgressEventMatchesLedgerTotal) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  std::uint64_t serialEstimate = 0;
  for (const std::uint32_t threads : {1u, 4u}) {
    ProgressCapture capture;
    ExploreOptions options = withThreads(threads);
    options.observer = &capture;
    const ConfigGraph g = exploreCanonical(*proto, initials, options);
    ASSERT_FALSE(capture.events.empty()) << "threads=" << threads;
    ASSERT_FALSE(capture.samples.empty()) << "threads=" << threads;
    const ExploreProgressEvent& done = capture.events.back();
    const MemorySampleEvent& mem = capture.samples.back();
    EXPECT_TRUE(done.done);
    EXPECT_TRUE(mem.done);
    EXPECT_EQ(done.nodes, g.size());
    // The estimate is the ledger total: it must agree with the final
    // memory_sample bit-for-bit, decompose into its components, cover the
    // retained graph (it additionally counts the dedup table), and not
    // depend on the engine.
    EXPECT_EQ(done.bytesEstimate, mem.totalBytes) << "threads=" << threads;
    EXPECT_EQ(mem.totalBytes, mem.configsBytes + mem.adjacencyBytes +
                                  mem.dedupBytes + mem.frontierBytes +
                                  mem.codecBytes)
        << "threads=" << threads;
    EXPECT_GE(done.bytesEstimate, configGraphBytes(g)) << "threads=" << threads;
    EXPECT_GT(mem.dedupBytes, 0u) << "threads=" << threads;
    EXPECT_GE(mem.highWaterBytes, mem.totalBytes) << "threads=" << threads;
    if (threads == 1) {
      serialEstimate = done.bytesEstimate;
    } else {
      EXPECT_EQ(done.bytesEstimate, serialEstimate) << "threads=" << threads;
    }
  }
}

TEST(ConfigGraphBytes, TruncatedGraphStillMatchesLedger) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  const ConfigGraph full = exploreCanonical(*proto, initials, withThreads(1));
  const std::size_t cap = initials.size() + (full.size() - initials.size()) / 2;
  std::uint64_t serialEstimate = 0;
  for (const std::uint32_t threads : {1u, 4u}) {
    ProgressCapture capture;
    ExploreOptions options = withThreads(threads, cap);
    options.observer = &capture;
    const ConfigGraph g = exploreCanonical(*proto, initials, options);
    ASSERT_TRUE(g.truncated);
    ASSERT_FALSE(capture.events.empty());
    ASSERT_FALSE(capture.samples.empty());
    EXPECT_EQ(capture.events.back().bytesEstimate,
              capture.samples.back().totalBytes)
        << "threads=" << threads;
    EXPECT_GE(capture.events.back().bytesEstimate, configGraphBytes(g))
        << "threads=" << threads;
    if (threads == 1) {
      serialEstimate = capture.events.back().bytesEstimate;
    } else {
      EXPECT_EQ(capture.events.back().bytesEstimate, serialEstimate)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ppn
