// Memory telemetry + byte-budget governor (DESIGN decision 18):
//  * MemoryLedger unit coverage — the malloc-chunk model, growth model,
//    component arithmetic, checkpointed high-water marks, and shard merge;
//  * MemoryBudget differential coverage — a budget high enough never to fire
//    leaves graph AND event stream bit-identical to a no-budget run, a
//    budget that DOES fire truncates bit-identically at every thread count,
//    and the checkers surface budget truncation as an UNKNOWN verdict whose
//    reason names the byte budget.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/explore.h"
#include "analysis/initial_sets.h"
#include "analysis/problem.h"
#include "analysis/weak_checker.h"
#include "naming/registry.h"
#include "obs/explore_observer.h"
#include "obs/memory.h"

namespace ppn {
namespace {

// ---------------------------------------------------------------------------
// MemoryLedger unit coverage.

TEST(MemoryLedger, PaddedAllocBytesModelsMallocChunks) {
  EXPECT_EQ(paddedAllocBytes(0), 0u);   // no request, no chunk
  EXPECT_EQ(paddedAllocBytes(1), 32u);  // minimum chunk
  EXPECT_EQ(paddedAllocBytes(24), 32u);
  EXPECT_EQ(paddedAllocBytes(25), 48u);  // 25 + 8 header -> 48 after rounding
  EXPECT_EQ(paddedAllocBytes(56), 64u);
  EXPECT_EQ(paddedAllocBytes(64), 80u);
  EXPECT_EQ(paddedAllocBytes(1024), 1040u);
}

TEST(MemoryLedger, GrownCapacityIsSmallestPowerOfTwoCover) {
  EXPECT_EQ(grownCapacity(1), 1u);
  EXPECT_EQ(grownCapacity(2), 2u);
  EXPECT_EQ(grownCapacity(3), 4u);
  EXPECT_EQ(grownCapacity(4), 4u);
  EXPECT_EQ(grownCapacity(5), 8u);
  EXPECT_EQ(grownCapacity(1024), 1024u);
  EXPECT_EQ(grownCapacity(1025), 2048u);
}

TEST(MemoryLedger, ComponentArithmeticAndTotal) {
  MemoryLedger ledger;
  EXPECT_EQ(ledger.total(), 0u);
  ledger.add(MemoryComponent::kConfigs, 100);
  ledger.add(MemoryComponent::kAdjacency, 50);
  ledger.add(MemoryComponent::kAdjacency, 25);
  ledger.set(MemoryComponent::kFrontier, 40);
  ledger.sub(MemoryComponent::kAdjacency, 15);
  EXPECT_EQ(ledger.component(MemoryComponent::kConfigs), 100u);
  EXPECT_EQ(ledger.component(MemoryComponent::kAdjacency), 60u);
  EXPECT_EQ(ledger.component(MemoryComponent::kFrontier), 40u);
  EXPECT_EQ(ledger.component(MemoryComponent::kDedup), 0u);
  EXPECT_EQ(ledger.total(), 200u);
}

TEST(MemoryLedger, CheckpointFoldsHighWaterMarks) {
  MemoryLedger ledger;
  ledger.set(MemoryComponent::kConfigs, 100);
  ledger.set(MemoryComponent::kFrontier, 80);
  ledger.checkpoint();
  EXPECT_EQ(ledger.highWater(), 180u);
  EXPECT_EQ(ledger.componentHighWater(MemoryComponent::kFrontier), 80u);
  // Shrinking the frontier must not lower any high-water mark.
  ledger.set(MemoryComponent::kFrontier, 10);
  ledger.checkpoint();
  EXPECT_EQ(ledger.highWater(), 180u);
  EXPECT_EQ(ledger.componentHighWater(MemoryComponent::kFrontier), 80u);
  EXPECT_EQ(ledger.total(), 110u);
  // A new peak raises them again.
  ledger.set(MemoryComponent::kConfigs, 300);
  ledger.checkpoint();
  EXPECT_EQ(ledger.highWater(), 310u);
  EXPECT_EQ(ledger.componentHighWater(MemoryComponent::kConfigs), 300u);
}

TEST(MemoryLedger, NoteHighWaterFoldsWithoutMutatingCurrents) {
  MemoryLedger ledger;
  ledger.set(MemoryComponent::kConfigs, 10);
  ledger.noteTotalHighWater(500);
  ledger.noteComponentHighWater(MemoryComponent::kFrontier, 77);
  EXPECT_EQ(ledger.highWater(), 500u);
  EXPECT_EQ(ledger.componentHighWater(MemoryComponent::kFrontier), 77u);
  EXPECT_EQ(ledger.component(MemoryComponent::kFrontier), 0u);
  EXPECT_EQ(ledger.total(), 10u);
  // A lower note never regresses the mark.
  ledger.noteTotalHighWater(100);
  EXPECT_EQ(ledger.highWater(), 500u);
}

TEST(MemoryLedger, MergeSumsCurrentValuesComponentwise) {
  MemoryLedger a;
  a.add(MemoryComponent::kDedup, 100);
  a.add(MemoryComponent::kCodec, 30);
  MemoryLedger b;
  b.add(MemoryComponent::kDedup, 50);
  b.add(MemoryComponent::kConfigs, 7);
  a.merge(b);
  EXPECT_EQ(a.component(MemoryComponent::kDedup), 150u);
  EXPECT_EQ(a.component(MemoryComponent::kCodec), 30u);
  EXPECT_EQ(a.component(MemoryComponent::kConfigs), 7u);
  EXPECT_EQ(a.total(), 187u);
}

TEST(MemoryLedger, ComponentNamesAreStable) {
  EXPECT_STREQ(memoryComponentName(MemoryComponent::kConfigs), "configs");
  EXPECT_STREQ(memoryComponentName(MemoryComponent::kAdjacency), "adjacency");
  EXPECT_STREQ(memoryComponentName(MemoryComponent::kDedup), "dedup");
  EXPECT_STREQ(memoryComponentName(MemoryComponent::kFrontier), "frontier");
  EXPECT_STREQ(memoryComponentName(MemoryComponent::kCodec), "codec");
}

// ---------------------------------------------------------------------------
// Budget differential coverage.

/// Captures every deterministic field of the explore event stream (wall-time
/// and RSS fields excluded by construction — they are documented as
/// non-deterministic).
class StreamCapture final : public ExploreObserver {
 public:
  void onExploreProgress(const ExploreProgressEvent& e) override {
    progress.push_back(e);
  }
  void onMemorySample(const MemorySampleEvent& e) override {
    samples.push_back(e);
  }
  void onTruncated(const ExploreTruncatedEvent& e) override {
    truncations.push_back(e);
  }
  std::vector<ExploreProgressEvent> progress;
  std::vector<MemorySampleEvent> samples;
  std::vector<ExploreTruncatedEvent> truncations;
};

void expectStreamsIdentical(const StreamCapture& a, const StreamCapture& b,
                            const char* where) {
  ASSERT_EQ(a.progress.size(), b.progress.size()) << where;
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].nodes, b.progress[i].nodes) << where << " #" << i;
    EXPECT_EQ(a.progress[i].frontier, b.progress[i].frontier)
        << where << " #" << i;
    EXPECT_EQ(a.progress[i].edges, b.progress[i].edges) << where << " #" << i;
    EXPECT_EQ(a.progress[i].dedupHits, b.progress[i].dedupHits)
        << where << " #" << i;
    EXPECT_EQ(a.progress[i].bytesEstimate, b.progress[i].bytesEstimate)
        << where << " #" << i;
    EXPECT_EQ(a.progress[i].done, b.progress[i].done) << where << " #" << i;
  }
  ASSERT_EQ(a.samples.size(), b.samples.size()) << where;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].configsBytes, b.samples[i].configsBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].adjacencyBytes, b.samples[i].adjacencyBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].dedupBytes, b.samples[i].dedupBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].frontierBytes, b.samples[i].frontierBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].codecBytes, b.samples[i].codecBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].totalBytes, b.samples[i].totalBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].highWaterBytes, b.samples[i].highWaterBytes)
        << where << " #" << i;
    EXPECT_EQ(a.samples[i].done, b.samples[i].done) << where << " #" << i;
  }
  ASSERT_EQ(a.truncations.size(), b.truncations.size()) << where;
  for (std::size_t i = 0; i < a.truncations.size(); ++i) {
    EXPECT_EQ(a.truncations[i].nodes, b.truncations[i].nodes) << where;
    EXPECT_EQ(a.truncations[i].maxNodes, b.truncations[i].maxNodes) << where;
    EXPECT_EQ(a.truncations[i].maxBytes, b.truncations[i].maxBytes) << where;
    EXPECT_EQ(a.truncations[i].bytesAtCut, b.truncations[i].bytesAtCut)
        << where;
    EXPECT_EQ(a.truncations[i].byBudget, b.truncations[i].byBudget) << where;
    EXPECT_EQ(a.truncations[i].frontier, b.truncations[i].frontier) << where;
  }
}

void expectGraphsEqual(const ConfigGraph& a, const ConfigGraph& b,
                       const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(a.truncated, b.truncated) << where;
  EXPECT_EQ(a.truncatedByBudget, b.truncatedByBudget) << where;
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.config(i), b.config(i)) << where << " node " << i;
    const std::vector<Edge> ae = a.edges(i);
    const std::vector<Edge> be = b.edges(i);
    ASSERT_EQ(ae.size(), be.size()) << where << " node " << i;
    for (std::size_t k = 0; k < ae.size(); ++k) {
      EXPECT_EQ(ae[k].to, be[k].to) << where << " node " << i << " edge " << k;
      EXPECT_EQ(ae[k].changed, be[k].changed)
          << where << " node " << i << " edge " << k;
    }
  }
}

ExploreOptions budgetOptions(std::uint32_t threads, std::uint64_t maxBytes,
                             ExploreObserver* observer) {
  ExploreOptions options;
  options.threads = threads;
  options.maxBytes = maxBytes;
  options.observer = observer;
  options.exploreId = 1;
  return options;
}

TEST(MemoryBudget, HighBudgetIsBitIdenticalToNoBudget) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  StreamCapture unbudgeted;
  const ConfigGraph reference = exploreCanonical(
      *proto, initials, budgetOptions(1, 0, &unbudgeted));
  ASSERT_FALSE(reference.truncated);
  for (const std::uint32_t threads : {1u, 4u}) {
    StreamCapture capture;
    const ConfigGraph g = exploreCanonical(
        *proto, initials, budgetOptions(threads, std::uint64_t{1} << 40,
                                        &capture));
    expectGraphsEqual(reference, g, "high-budget");
    expectStreamsIdentical(unbudgeted, capture, "high-budget");
  }
}

TEST(MemoryBudget, BudgetTruncationBitIdenticalAcrossThreads) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  StreamCapture probe;
  const ConfigGraph full = exploreCanonical(
      *proto, initials, budgetOptions(1, 0, &probe));
  ASSERT_FALSE(probe.samples.empty());
  const std::uint64_t fullBytes = probe.samples.back().totalBytes;
  // Sweep budgets from "fires immediately" to "never fires": every cut
  // position the serial loop can produce must be reproduced bit-identically
  // by the parallel engine.
  for (const std::uint64_t budget :
       {fullBytes / 8, fullBytes / 4, fullBytes / 2, (fullBytes * 3) / 4}) {
    StreamCapture serialCapture;
    const ConfigGraph serial = exploreCanonical(
        *proto, initials, budgetOptions(1, budget, &serialCapture));
    ASSERT_TRUE(serial.truncated) << "budget " << budget;
    EXPECT_TRUE(serial.truncatedByBudget) << "budget " << budget;
    ASSERT_EQ(serialCapture.truncations.size(), 1u);
    EXPECT_TRUE(serialCapture.truncations[0].byBudget);
    EXPECT_GT(serialCapture.truncations[0].bytesAtCut, budget);
    for (const std::uint32_t threads : {2u, 4u}) {
      StreamCapture parCapture;
      const ConfigGraph par = exploreCanonical(
          *proto, initials, budgetOptions(threads, budget, &parCapture));
      expectGraphsEqual(serial, par, "budget-truncated");
      expectStreamsIdentical(serialCapture, parCapture, "budget-truncated");
    }
  }
}

TEST(MemoryBudget, ConcreteBudgetTruncationMatchesAcrossThreads) {
  const auto proto = makeProtocol("asymmetric", 3);
  const auto initials = allUniformInitials(*proto, 3);
  StreamCapture probe;
  const ConfigGraph full = exploreConcrete(
      *proto, initials, budgetOptions(1, 0, &probe));
  ASSERT_FALSE(probe.samples.empty());
  const std::uint64_t budget = probe.samples.back().totalBytes / 2;
  StreamCapture serialCapture;
  const ConfigGraph serial = exploreConcrete(
      *proto, initials, budgetOptions(1, budget, &serialCapture));
  ASSERT_TRUE(serial.truncatedByBudget);
  StreamCapture parCapture;
  const ConfigGraph par = exploreConcrete(
      *proto, initials, budgetOptions(4, budget, &parCapture));
  expectGraphsEqual(serial, par, "concrete-budget");
  expectStreamsIdentical(serialCapture, parCapture, "concrete-budget");
}

TEST(MemoryBudget, NodeCapStillWinsWhenOnlyItFires) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  const ConfigGraph full = exploreCanonical(*proto, initials, ExploreOptions{});
  ExploreOptions options;
  options.maxNodes = initials.size() + 2;
  options.maxBytes = std::uint64_t{1} << 40;  // never fires
  const ConfigGraph g = exploreCanonical(*proto, initials, options);
  ASSERT_TRUE(g.truncated);
  EXPECT_FALSE(g.truncatedByBudget);
  ASSERT_LT(g.size(), full.size());
}

TEST(MemoryBudget, WeakCheckerReportsByteBudgetInUnknownReason) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  ExploreOptions options;
  options.maxBytes = 4096;  // tiny: fires almost immediately
  const WeakVerdict v =
      checkWeakFairness(*proto, namingProblem(*proto), initials, options);
  EXPECT_FALSE(v.explored);
  EXPECT_NE(v.reason.find("memory budget"), std::string::npos) << v.reason;
  EXPECT_NE(v.reason.find("4096"), std::string::npos) << v.reason;
}

TEST(MemoryBudget, HighWaterIsMonotoneAcrossSamples) {
  const auto proto = makeProtocol("counting", 3);
  const auto initials = allCanonicalConfigurations(*proto, 4);
  for (const std::uint32_t threads : {1u, 4u}) {
    StreamCapture capture;
    exploreCanonical(*proto, initials, budgetOptions(threads, 0, &capture));
    ASSERT_FALSE(capture.samples.empty());
    std::uint64_t prev = 0;
    for (const MemorySampleEvent& s : capture.samples) {
      EXPECT_GE(s.highWaterBytes, prev) << "threads=" << threads;
      EXPECT_GE(s.highWaterBytes, s.totalBytes) << "threads=" << threads;
      EXPECT_EQ(s.totalBytes, s.configsBytes + s.adjacencyBytes +
                                  s.dedupBytes + s.frontierBytes +
                                  s.codecBytes)
          << "threads=" << threads;
      prev = s.highWaterBytes;
    }
  }
}

TEST(MemoryStatsCollector, IndexesRowsByIdAndWritesThemSorted) {
  // Samples arrive interleaved and out of id order, as they do from a
  // parallel search; the summary must not depend on that order.
  MemoryStatsCollector stats;
  auto sample = [&](std::uint64_t id, std::uint64_t total, bool done) {
    MemorySampleEvent e;
    e.exploreId = id;
    e.totalBytes = total;
    e.done = done;
    stats.onMemorySample(e);
  };
  sample(9, 100, false);
  sample(2, 300, false);
  sample(5, 50, true);
  sample(2, 200, true);
  sample(9, 120, true);
  EXPECT_EQ(stats.explorations(), 3u);
  EXPECT_EQ(stats.peakTotalBytes(), 300u);
  ASSERT_TRUE(stats.lastSample(2).has_value());
  EXPECT_EQ(stats.lastSample(2)->totalBytes, 200u);
  EXPECT_TRUE(stats.lastSample(2)->done);
  EXPECT_FALSE(stats.lastSample(7).has_value());

  const std::string path = ::testing::TempDir() + "memory_stats_sorted.json";
  ASSERT_TRUE(stats.writeJson(path));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto at2 = json.find("\"explore\":2,");
  const auto at5 = json.find("\"explore\":5,");
  const auto at9 = json.find("\"explore\":9,");
  ASSERT_NE(at2, std::string::npos);
  ASSERT_NE(at5, std::string::npos);
  ASSERT_NE(at9, std::string::npos);
  EXPECT_LT(at2, at5);
  EXPECT_LT(at5, at9);
  EXPECT_NE(json.find("\"total_bytes\":200,\"high_water_bytes\":0,"
                      "\"spill_bytes\":0,\"spill_runs\":0,"
                      "\"peak_total_bytes\":300"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace ppn
