// End-to-end parameterized sweeps: every protocol is run to convergence via
// simulation under the scheduler family its assumptions allow, across
// (P, N, scheduler, seed) grids — the "does the whole stack hang together"
// suite complementing the exact checker verdicts.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "naming/registry.h"
#include "sim/runner.h"
#include "util/rng.h"

namespace ppn {
namespace {

struct SweepCase {
  std::string key;
  StateId p;
  std::uint32_t n;
  SchedulerKind sched;
};

std::string caseName(const SweepCase& c) {
  std::string key = c.key;
  for (auto& ch : key)
    if (ch == '-') ch = '_';
  std::string s = schedulerKindName(c.sched);
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return key + "_P" + std::to_string(c.p) + "_N" + std::to_string(c.n) + "_" + s;
}

void expectConvergesToDistinctNames(const SweepCase& c) {
  const auto proto = makeProtocol(c.key, c.p);
  Rng rng(0xABCDEF ^ (static_cast<std::uint64_t>(c.p) << 16) ^ c.n);
  const std::uint32_t participants =
      c.n + (proto->hasLeader() ? 1u : 0u);

  for (int trial = 0; trial < 4; ++trial) {
    Configuration start =
        (c.key == "leader-uniform")
            ? uniformConfiguration(*proto, c.n)
            : arbitraryConfiguration(*proto, c.n, rng);
    Engine engine(*proto, std::move(start));
    auto sched = makeScheduler(c.sched, participants, rng.next());
    const RunOutcome out =
        runUntilSilent(engine, *sched, RunLimits{20'000'000, 64});
    ASSERT_TRUE(out.silent) << caseName(c) << " trial " << trial;
    EXPECT_TRUE(out.namingSolved) << caseName(c) << " trial " << trial;
    EXPECT_TRUE(out.finalConfig.allDistinct());
  }
}

// gtest appends the printed parameter to each test id. A SweepCase prints as
// raw bytes, and the first eight are the heap address of `key`, so a short
// case name leaves address bytes inside the leading part of its id and the id
// changes from build to build. The counting cases under the randomized
// schedulers are such names; they run in CountingNamingSweep, whose
// SchedulerKind parameter prints the same on every build.
class NamingSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(NamingSweep, ConvergesToDistinctNames) {
  expectConvergesToDistinctNames(GetParam());
}

class CountingNamingSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CountingNamingSweep, ConvergesToDistinctNames) {
  expectConvergesToDistinctNames({"counting", 6, 4, GetParam()});
}

std::vector<SweepCase> buildCases() {
  std::vector<SweepCase> cases;
  // Weak-fairness-capable protocols: all four scheduler kinds are legal.
  const std::vector<SchedulerKind> allKinds{
      SchedulerKind::kRandom, SchedulerKind::kSkewed,
      SchedulerKind::kRoundRobin, SchedulerKind::kTournament};
  // Globally-fair-only protocols: random schedulers only.
  const std::vector<SchedulerKind> randomKinds{SchedulerKind::kRandom,
                                               SchedulerKind::kSkewed};

  for (const SchedulerKind k : allKinds) {
    cases.push_back({"asymmetric", 6, 6, k});
    cases.push_back({"asymmetric", 8, 5, k});
    cases.push_back({"leader-uniform", 6, 6, k});
    cases.push_back({"leader-uniform", 6, 3, k});
    cases.push_back({"selfstab-weak", 5, 5, k});
    cases.push_back({"selfstab-weak", 6, 4, k});
  }
  for (const SchedulerKind k : randomKinds) {
    cases.push_back({"symmetric-global", 5, 5, k});
    cases.push_back({"symmetric-global", 6, 4, k});
    // N = P capped at 4 for Protocol 3: its name_ptr walk completes in
    // ~5e5 interactions at P=4 but ~1e9 at P=5 (see convergence_sweep).
    cases.push_back({"global-leader", 4, 4, k});
    cases.push_back({"global-leader", 6, 4, k});
  }
  // Counting protocol names only N < P; its randomized-scheduler cases are
  // in CountingNamingSweep.
  for (const SchedulerKind k :
       {SchedulerKind::kRoundRobin, SchedulerKind::kTournament}) {
    cases.push_back({"counting", 6, 4, k});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, NamingSweep, ::testing::ValuesIn(buildCases()),
                         [](const auto& paramInfo) { return caseName(paramInfo.param); });

INSTANTIATE_TEST_SUITE_P(Grid, CountingNamingSweep,
                         ::testing::Values(SchedulerKind::kRandom,
                                           SchedulerKind::kSkewed),
                         [](const auto& paramInfo) {
                           return caseName({"counting", 6, 4, paramInfo.param});
                         });

TEST(CountingIntegration, AnswerMatchesNAcrossSchedulers) {
  const auto proto = makeProtocol("counting", 7);
  Rng rng(555);
  for (std::uint32_t n = 1; n <= 7; ++n) {
    for (const SchedulerKind k :
         {SchedulerKind::kRandom, SchedulerKind::kRoundRobin}) {
      Engine engine(*proto, arbitraryConfiguration(*proto, n, rng));
      auto sched = makeScheduler(k, n + 1, rng.next());
      const RunOutcome out =
          runUntilSilent(engine, *sched, RunLimits{20'000'000, 64});
      ASSERT_TRUE(out.silent) << "N=" << n;
      EXPECT_EQ(*proto->countingAnswer(*out.finalConfig.leader), n)
          << schedulerKindName(k);
    }
  }
}

TEST(StabilityIntegration, NamesNeverChangeAfterConvergence) {
  // The defining property of naming: once converged, run another million
  // interactions and verify the configuration is bit-identical.
  const auto proto = makeProtocol("selfstab-weak", 5);
  Rng rng(777);
  Engine engine(*proto, arbitraryConfiguration(*proto, 5, rng));
  auto sched = makeScheduler(SchedulerKind::kRandom, 6, 999);
  const RunOutcome out = runUntilSilent(engine, *sched, RunLimits{10'000'000, 64});
  ASSERT_TRUE(out.namingSolved);
  const Configuration frozen = engine.config();
  for (int i = 0; i < 1'000'000; ++i) engine.step(sched->next());
  EXPECT_EQ(engine.config(), frozen);
}

TEST(ScaleIntegration, ModeratePopulationsConverge) {
  // Larger-scale smoke: protocols with polynomial convergence handle bigger
  // populations comfortably.
  Rng rng(31337);
  {
    const auto proto = makeProtocol("asymmetric", 64);
    Engine engine(*proto, arbitraryConfiguration(*proto, 64, rng));
    auto sched = makeScheduler(SchedulerKind::kRandom, 64, 1);
    const RunOutcome out =
        runUntilSilent(engine, *sched, RunLimits{50'000'000, 1024});
    ASSERT_TRUE(out.silent);
    EXPECT_TRUE(out.namingSolved);
  }
  {
    const auto proto = makeProtocol("leader-uniform", 128);
    Engine engine(*proto, uniformConfiguration(*proto, 128));
    auto sched = makeScheduler(SchedulerKind::kRandom, 129, 2);
    const RunOutcome out =
        runUntilSilent(engine, *sched, RunLimits{50'000'000, 1024});
    ASSERT_TRUE(out.silent);
    EXPECT_TRUE(out.namingSolved);
  }
}

}  // namespace
}  // namespace ppn
