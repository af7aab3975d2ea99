// The orbit-quotiented exhaustive search against an in-test oracle.
//
// The naming searches model-check one representative per S_q relabeling
// orbit and weight it by the orbit size (DESIGN decision 20). The oracle here
// is the plain loop the quotient replaces: every candidate index, decoded and
// handed to the checkers, no group anywhere. The two must agree on every
// count and on solverIndices for all nine E13 jobs, at one and four threads,
// and a byte budget must switch the quotient off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/global_checker.h"
#include "analysis/initial_sets.h"
#include "analysis/problem.h"
#include "analysis/protocol_search.h"
#include "analysis/weak_checker.h"
#include "obs/explore_observer.h"

namespace ppn {
namespace {

struct Job {
  const char* key;
  StateId q;
  std::uint32_t n;
  Fairness fairness;
  bool symmetric;
  bool selfStab;
};

// The nine lower_bound_search jobs (EXPERIMENTS.md E13), in its order.
const Job kE13Jobs[] = {
    {"SymQ2N2Global", 2, 2, Fairness::kGlobal, true, false},
    {"SymQ2N2Weak", 2, 2, Fairness::kWeak, true, false},
    {"SymQ3N3Global", 3, 3, Fairness::kGlobal, true, false},
    {"SymQ3N3Weak", 3, 3, Fairness::kWeak, true, false},
    {"SymQ3N2Weak", 3, 2, Fairness::kWeak, true, false},
    {"SymQ3N2Global", 3, 2, Fairness::kGlobal, true, false},
    {"AllQ2N2Global", 2, 2, Fairness::kGlobal, false, false},
    {"AllQ2N2Weak", 2, 2, Fairness::kWeak, false, false},
    {"AllQ2N2WeakSelfStab", 2, 2, Fairness::kWeak, false, true},
};

/// One checker call: true/false when explored, nullopt when truncated.
std::optional<bool> oracleSolves(const Protocol& proto, const Job& job,
                                 const std::vector<Configuration>& initials,
                                 std::uint64_t maxBytes) {
  const Problem problem = namingProblem(proto);
  ExploreOptions options;
  options.maxNodes = SearchOptions{}.maxNodes;
  options.maxBytes = maxBytes;
  if (job.fairness == Fairness::kGlobal) {
    const GlobalVerdict v = checkGlobalFairness(proto, problem, initials,
                                                options);
    if (!v.explored) return std::nullopt;
    return v.solves;
  }
  const WeakVerdict v = checkWeakFairness(proto, problem, initials, options);
  if (!v.explored) return std::nullopt;
  return v.solves;
}

/// Every candidate, one by one: the search without any quotient.
SearchOutcome oracleSearch(const Job& job, std::uint64_t maxBytes) {
  const std::uint64_t total = job.symmetric ? symmetricProtocolCount(job.q)
                                            : allProtocolCount(job.q);
  SearchOutcome out;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    const TabularProtocol proto = job.symmetric
                                      ? decodeSymmetricProtocol(job.q, idx)
                                      : decodeAnyProtocol(job.q, idx);
    bool solves = false;
    bool unknown = false;
    if (job.selfStab) {
      const std::optional<bool> v = oracleSolves(
          proto, job,
          job.fairness == Fairness::kGlobal
              ? allCanonicalConfigurations(proto, job.n)
              : allConcreteConfigurations(proto, job.n),
          maxBytes);
      solves = v == std::optional<bool>(true);
      unknown = !v.has_value();
    } else {
      for (StateId s = 0; s < job.q; ++s) {
        Configuration c;
        c.mobile.assign(job.n, s);
        const std::optional<bool> v = oracleSolves(proto, job, {c}, maxBytes);
        solves = solves || v == std::optional<bool>(true);
        unknown = unknown || !v.has_value();
      }
    }
    ++out.examined;
    if (solves) {
      ++out.solvers;
      if (out.solverIndices.size() < 8) out.solverIndices.push_back(idx);
    } else if (unknown) {
      ++out.unknown;
    }
  }
  return out;
}

SearchOutcome librarySearch(const Job& job, std::uint32_t threads,
                            std::uint64_t maxBytes) {
  SearchOptions options;
  options.threads = threads;
  options.maxBytes = maxBytes;
  return job.selfStab
             ? searchSelfStabilizingNaming(job.q, job.n, job.fairness,
                                           job.symmetric, options)
             : searchUniformNaming(job.q, job.n, job.fairness, job.symmetric,
                                   options);
}

void expectSameOutcome(const SearchOutcome& want, const SearchOutcome& got,
                       const std::string& label) {
  EXPECT_EQ(got.examined, want.examined) << label;
  EXPECT_EQ(got.solvers, want.solvers) << label;
  EXPECT_EQ(got.unknown, want.unknown) << label;
  EXPECT_EQ(got.solverIndices, want.solverIndices) << label;
}

class OrbitQuotient : public ::testing::TestWithParam<Job> {};

TEST_P(OrbitQuotient, MatchesPerIndexOracleAtOneAndFourThreads) {
  const Job& job = GetParam();
  const SearchOutcome want = oracleSearch(job, /*maxBytes=*/0);
  for (const std::uint32_t threads : {1u, 4u}) {
    expectSameOutcome(want, librarySearch(job, threads, /*maxBytes=*/0),
                      std::string(job.key) + " threads=" +
                          std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(E13Jobs, OrbitQuotient, ::testing::ValuesIn(kE13Jobs),
                         [](const auto& paramInfo) {
                           return std::string(paramInfo.param.key);
                         });

TEST(OrbitQuotientBudget, ByteBudgetChecksEveryCandidate) {
  // Compressed byte counts depend on the labels, so under a budget two
  // members of one orbit can truncate differently; a quotiented search would
  // report 5,774 unknown here instead of the per-index 5,802.
  const Job& job = kE13Jobs[2];  // symmetric Q=3, N=3, global
  const SearchOutcome want = oracleSearch(job, /*maxBytes=*/512);
  EXPECT_EQ(want.unknown, 5802u);
  for (const std::uint32_t threads : {1u, 4u}) {
    expectSameOutcome(want, librarySearch(job, threads, /*maxBytes=*/512),
                      "budget 512 threads=" + std::to_string(threads));
  }
}

/// Walks every canonical index; returns {orbit count, sum of orbit sizes}
/// and checks the orbits partition the space.
std::pair<std::uint64_t, std::uint64_t> walkOrbits(
    const RelabelingGroup& group, std::uint64_t total) {
  std::vector<int> seen(total, 0);
  std::uint64_t orbits = 0;
  std::uint64_t covered = 0;
  std::vector<std::uint64_t> members;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    if (!group.canonicalOrbit(idx, members)) continue;
    ++orbits;
    covered += members.size();
    EXPECT_EQ(members.front(), idx);
    for (const std::uint64_t m : members) {
      EXPECT_LT(m, total);
      if (m < total) ++seen[m];
    }
  }
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    EXPECT_EQ(seen[idx], 1) << "idx=" << idx;
  }
  return {orbits, covered};
}

TEST(RelabelingGroup, OrbitSizesSumToSpaceSize) {
  const auto [symOrbits, symCovered] =
      walkOrbits(RelabelingGroup(3, /*symmetricSpace=*/true, false),
                 symmetricProtocolCount(3));
  EXPECT_EQ(symCovered, symmetricProtocolCount(3));
  EXPECT_EQ(symOrbits, 3330u);

  const auto [allOrbits, allCovered] =
      walkOrbits(RelabelingGroup(2, /*symmetricSpace=*/false, false),
                 allProtocolCount(2));
  EXPECT_EQ(allCovered, allProtocolCount(2));
  EXPECT_EQ(allOrbits, 136u);
}

TEST(RelabelingGroup, TrivialGroupHasSingletonOrbits) {
  const auto [orbits, covered] =
      walkOrbits(RelabelingGroup(2, /*symmetricSpace=*/false, true),
                 allProtocolCount(2));
  EXPECT_EQ(orbits, allProtocolCount(2));
  EXPECT_EQ(covered, allProtocolCount(2));
}

TEST(RelabelingGroup, MembersAreRelabelingsOfTheRepresentative) {
  // For q = 2 the group is {identity, swap 0 and 1}: every member must be
  // the representative's table, either as is or with the states swapped.
  const RelabelingGroup group(2, /*symmetricSpace=*/false, false);
  std::vector<std::uint64_t> members;
  for (std::uint64_t idx = 0; idx < allProtocolCount(2); ++idx) {
    if (!group.canonicalOrbit(idx, members)) continue;
    const TabularProtocol rep = decodeAnyProtocol(2, idx);
    for (const std::uint64_t m : members) {
      const TabularProtocol member = decodeAnyProtocol(2, m);
      bool identity = true;
      bool swapped = true;
      for (StateId a = 0; a < 2; ++a) {
        for (StateId b = 0; b < 2; ++b) {
          const MobilePair r = rep.mobileDelta(a, b);
          identity = identity && member.mobileDelta(a, b) == r;
          swapped = swapped &&
                    member.mobileDelta(1 - a, 1 - b) ==
                        MobilePair{1 - r.initiator, 1 - r.responder};
        }
      }
      EXPECT_TRUE(identity || swapped) << "rep=" << idx << " member=" << m;
    }
  }
}

/// Records the id of every finished exploration, in arrival order.
class DoneExploreIds final : public ExploreObserver {
 public:
  void onMemorySample(const MemorySampleEvent& e) override {
    if (e.done) ids.push_back(e.exploreId);
  }
  void onSearchProgress(const SearchProgressEvent& e) override {
    searches.push_back(e);
  }
  std::vector<std::uint64_t> ids;
  std::vector<SearchProgressEvent> searches;
};

TEST(OrbitQuotientIds, ExploreIdsComeFromCandidateAndSlot) {
  DoneExploreIds serial;
  DoneExploreIds parallel;
  for (DoneExploreIds* obs : {&serial, &parallel}) {
    SearchOptions options;
    options.threads = obs == &serial ? 1 : 4;
    options.observer = obs;
    options.searchId = 3;
    searchUniformNaming(2, 2, Fairness::kWeak, /*symmetricSpace=*/false,
                        options);
  }
  // seq = idx * q + slot + 1, and only orbit representatives are explored.
  const RelabelingGroup group(2, /*symmetricSpace=*/false, false);
  std::vector<std::uint64_t> members;
  ASSERT_FALSE(serial.ids.empty());
  for (std::size_t i = 0; i < serial.ids.size(); ++i) {
    EXPECT_EQ(serial.ids[i] >> 32, 3u);
    const std::uint64_t seq = serial.ids[i] & 0xffffffffu;
    ASSERT_GE(seq, 1u);
    const std::uint64_t idx = (seq - 1) / 2;
    ASSERT_LT(idx, allProtocolCount(2));
    EXPECT_TRUE(group.canonicalOrbit(idx, members)) << "idx=" << idx;
    if (i > 0) {
      EXPECT_LT(serial.ids[i - 1], serial.ids[i]);
    }
  }
  std::sort(parallel.ids.begin(), parallel.ids.end());
  EXPECT_EQ(parallel.ids, serial.ids);
}

TEST(OrbitQuotientIds, SpacesBeyond32BitExploreIdsThrow) {
  // Q=4: 4^4 * 16^6 = 2^32 symmetric candidates, times 4 slots.
  EXPECT_THROW(searchUniformNaming(4, 4, Fairness::kWeak,
                                   /*symmetricSpace=*/true),
               std::overflow_error);
}

TEST(OrbitQuotientIds, ProgressFiresWhenExaminedCrossesAStride) {
  DoneExploreIds obs;
  SearchOptions options;
  options.observer = &obs;
  const SearchOutcome out = searchUniformNaming(
      3, 2, Fairness::kWeak, /*symmetricSpace=*/true, options);
  ASSERT_FALSE(obs.searches.empty());
  ASSERT_TRUE(obs.searches.back().done);
  EXPECT_EQ(obs.searches.back().examined, out.examined);
  std::uint64_t lastStride = 0;
  std::size_t strides = 0;
  for (std::size_t i = 0; i + 1 < obs.searches.size(); ++i) {
    const std::uint64_t stride =
        obs.searches[i].examined / kSearchProgressStride;
    EXPECT_GT(stride, lastStride);
    lastStride = stride;
    ++strides;
  }
  EXPECT_EQ(strides, out.examined / kSearchProgressStride);
}

}  // namespace
}  // namespace ppn
