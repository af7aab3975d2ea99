// Equivalence and differential tests for the compiled fast path
// (core/compiled.h): the compiled tables must reproduce the virtual Protocol
// exactly, and compiled executions must be bit-identical to interpreted ones
// — same RunOutcome, same counters, same observer event stream.
#include "core/compiled.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "naming/asymmetric_naming.h"
#include "naming/bst_state.h"
#include "naming/registry.h"
#include "naming/symmetrizer.h"
#include "sched/random_scheduler.h"
#include "sim/runner.h"
#include "util/rng.h"

namespace ppn {
namespace {

/// Every registry protocol at a checker-sized bound (leader spaces stay
/// enumerable) and at a larger bound (counting/selfstab/global-leader then
/// return empty allLeaderStates, exercising the virtual leader fallback).
std::vector<std::pair<std::string, StateId>> registryMatrix() {
  std::vector<std::pair<std::string, StateId>> matrix;
  for (const std::string& key : protocolKeys()) {
    matrix.emplace_back(key, 4);
    matrix.emplace_back(key, 16);
  }
  return matrix;
}

class CompiledEquivalence
    : public ::testing::TestWithParam<std::pair<std::string, StateId>> {};

TEST_P(CompiledEquivalence, ReproducesTheVirtualProtocolExactly) {
  const auto& [key, p] = GetParam();
  const auto proto = makeProtocol(key, p);
  ASSERT_TRUE(CompiledProtocol::compilable(*proto));
  const CompiledProtocol cp(*proto);
  const StateId q = proto->numMobileStates();
  ASSERT_EQ(cp.numStates(), q);

  for (StateId a = 0; a < q; ++a) {
    EXPECT_EQ(cp.nameOf(a), proto->nameOf(a));
    EXPECT_EQ(cp.isValidName(a), proto->isValidName(a));
    EXPECT_EQ(cp.diagActive(a), proto->mobileDelta(a, a) != (MobilePair{a, a}));
    for (StateId b = 0; b < q; ++b) {
      const MobilePair expect = proto->mobileDelta(a, b);
      EXPECT_EQ(cp.mobileDelta(a, b), expect)
          << key << " delta(" << a << "," << b << ")";
      EXPECT_EQ(cp.mobileNull(a, b),
                expect.initiator == a && expect.responder == b);
    }
  }

  // Active rows = pair liveness in either orientation, diagonal excluded.
  for (StateId s = 0; s < q; ++s) {
    const std::uint64_t* row = cp.activeRow(s);
    for (StateId t = 0; t < q; ++t) {
      const bool bit = (row[t >> 6] >> (t & 63)) & 1u;
      const bool expect =
          t != s && (!cp.mobileNull(s, t) || !cp.mobileNull(t, s));
      EXPECT_EQ(bit, expect) << key << " activeRow(" << s << ")[" << t << "]";
    }
  }

  if (!proto->hasLeader()) return;
  const auto leaders = proto->allLeaderStates();
  if (!cp.leaderCompiled()) {
    // Large bounds drop leader enumeration; the mobile table must stand.
    EXPECT_TRUE(leaders.empty() ||
                leaders.size() * q > CompiledProtocol::kMaxLeaderEntries);
    return;
  }
  for (const LeaderStateId l : leaders) {
    const std::uint32_t li = cp.leaderIndexOf(l);
    ASSERT_NE(li, CompiledProtocol::kNoLeaderIndex);
    EXPECT_EQ(cp.leaderIdAt(li), l);
    for (StateId s = 0; s < q; ++s) {
      const LeaderResult expect = proto->leaderDelta(l, s);
      const auto& entry = cp.leaderDelta(li, s);
      EXPECT_EQ(cp.leaderIdAt(entry.nextLeader), expect.leader);
      EXPECT_EQ(entry.mobile, expect.mobile);
      EXPECT_EQ(cp.leaderNull(li, s),
                expect.leader == l && expect.mobile == s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, CompiledEquivalence,
                         ::testing::ValuesIn(registryMatrix()),
                         [](const auto& paramInfo) {
                           std::string name = paramInfo.param.first + "_P" +
                                              std::to_string(paramInfo.param.second);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CompiledProtocol, NonIdentityNameProjection) {
  const AsymmetricNaming inner(5);
  const SymmetrizedProtocol proto(inner);
  const CompiledProtocol cp(proto);
  for (StateId s = 0; s < proto.numMobileStates(); ++s) {
    EXPECT_EQ(cp.nameOf(s), proto.nameOf(s));
    EXPECT_EQ(cp.isValidName(s), proto.isValidName(s));
  }
}

TEST(CompiledProtocol, RejectsNonClosedDelta) {
  class Broken : public Protocol {
   public:
    std::string name() const override { return "broken"; }
    StateId numMobileStates() const override { return 3; }
    bool isSymmetric() const override { return false; }
    MobilePair mobileDelta(StateId a, StateId b) const override {
      if (a == 2 && b == 2) return MobilePair{7, 7};  // leaves the space
      return MobilePair{a, b};
    }
  };
  const Broken proto;
  EXPECT_THROW(CompiledProtocol cp(proto), std::invalid_argument);
}

// --- differential: compiled vs interpreted executions ----------------------

/// Serializes every observer hook invocation so two streams can be compared
/// for exact equality (same events, same order, same payloads).
class RecordingObserver final : public RunObserver {
 public:
  std::vector<std::string> events;

  void onRunStart(const RunStartEvent& e) override {
    add("start", e.runId, e.numMobile, e.numParticipants);
  }
  void onRunEnd(const RunEndEvent& e) override {
    // wallMillis is a timing, not a semantic field: excluded on purpose.
    add("end", e.runId, e.silent, e.named, e.timedOut, e.cancelled,
        e.convergenceInteractions, e.totalInteractions);
  }
  void onSilenceCheck(const SilenceCheckEvent& e) override {
    add("check", e.runId, e.interactions, e.silent);
  }
  void onWatchdogAbort(const WatchdogAbortEvent& e) override {
    add("watchdog", e.runId, e.interactions);
  }
  void onCancelled(const CancelledEvent& e) override {
    add("cancelled", e.runId, e.interactions);
  }
  void onFaultInjected(const FaultInjectedEvent& e) override {
    add("fault", e.runId, e.interactions, static_cast<int>(e.target), e.agent);
  }

 private:
  template <typename... Args>
  void add(const char* kind, Args... args) {
    std::ostringstream line;
    line << kind;
    ((line << ' ' << args), ...);
    events.push_back(line.str());
  }
};

struct DifferentialResult {
  RunOutcome outcome;
  std::vector<std::string> events;
};

DifferentialResult runOnce(const Protocol& proto, std::uint32_t n,
                           std::uint64_t seed, bool compiled,
                           const RunLimits& limits) {
  Rng rng(seed);
  Engine engine(proto, arbitraryConfiguration(proto, n, rng));
  std::unique_ptr<CompiledProtocol> cp;
  if (compiled) {
    cp = std::make_unique<CompiledProtocol>(proto);
    engine.attachCompiled(cp.get());
  }
  RandomScheduler sched(engine.numParticipants(), rng.next());
  RecordingObserver obs;
  DifferentialResult r;
  r.outcome = runUntilSilent(engine, sched, limits, nullptr, &obs, seed);
  r.events = std::move(obs.events);
  return r;
}

void expectIdentical(const DifferentialResult& a, const DifferentialResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.outcome.silent, b.outcome.silent) << label;
  EXPECT_EQ(a.outcome.namingSolved, b.outcome.namingSolved) << label;
  EXPECT_EQ(a.outcome.timedOut, b.outcome.timedOut) << label;
  EXPECT_EQ(a.outcome.cancelled, b.outcome.cancelled) << label;
  EXPECT_EQ(a.outcome.convergenceInteractions,
            b.outcome.convergenceInteractions)
      << label;
  EXPECT_EQ(a.outcome.totalInteractions, b.outcome.totalInteractions) << label;
  EXPECT_EQ(a.outcome.nonNullInteractions, b.outcome.nonNullInteractions)
      << label;
  EXPECT_EQ(a.outcome.numMobile, b.outcome.numMobile) << label;
  EXPECT_EQ(a.outcome.finalConfig, b.outcome.finalConfig) << label;
  EXPECT_EQ(a.events, b.events) << label;
}

TEST(CompiledDifferential, RunUntilSilentIsBitIdentical) {
  for (const std::string& key : protocolKeys()) {
    for (const std::uint64_t seed : {1ull, 77ull, 4242ull}) {
      // P = 8: every protocol valid, leader spaces enumerable; N < P so the
      // namable regime is reachable and runs converge quickly.
      const auto proto = makeProtocol(key, 8);
      const RunLimits limits{200'000, 16};
      const auto interpreted = runOnce(*proto, 6, seed, false, limits);
      const auto compiled = runOnce(*proto, 6, seed, true, limits);
      expectIdentical(interpreted, compiled,
                      key + " seed=" + std::to_string(seed));
      EXPECT_TRUE(interpreted.outcome.silent ||
                  interpreted.outcome.totalInteractions == 200'000)
          << key;
    }
  }
}

TEST(CompiledDifferential, VirtualLeaderFallbackIsBitIdentical) {
  // P = 20 makes counting/selfstab/global-leader refuse leader enumeration
  // (allLeaderStates empty, initialized leaders still construct), so the
  // compiled engine runs the mobile table with virtual leader dispatch.
  for (const char* key : {"counting", "global-leader"}) {
    const auto proto = makeProtocol(key, 20);
    const CompiledProtocol cp(*proto);
    EXPECT_FALSE(cp.leaderCompiled());
    const RunLimits limits{100'000, 32};
    const auto interpreted = runOnce(*proto, 10, 9, false, limits);
    const auto compiled = runOnce(*proto, 10, 9, true, limits);
    expectIdentical(interpreted, compiled, key);
  }
}

TEST(CompiledDifferential, RunBatchMatchesInterpretedAcrossThreads) {
  for (const std::string& key : {std::string("asymmetric"),
                                 std::string("selfstab-weak")}) {
    const auto proto = makeProtocol(key, 6);
    BatchSpec spec;
    spec.numMobile = 5;
    spec.init = InitKind::kArbitrary;
    spec.runs = 12;
    spec.seed = 31;
    spec.limits = RunLimits{500'000, 64};
    spec.compiled = false;
    spec.threads = 1;
    const BatchResult reference = runBatch(*proto, spec);
    for (const std::uint32_t threads : {1u, 4u}) {
      spec.compiled = true;
      spec.threads = threads;
      const BatchResult fast = runBatch(*proto, spec);
      EXPECT_EQ(fast.converged, reference.converged) << key;
      EXPECT_EQ(fast.named, reference.named) << key;
      EXPECT_EQ(fast.timedOut, reference.timedOut) << key;
      EXPECT_DOUBLE_EQ(fast.convergenceInteractions.mean,
                       reference.convergenceInteractions.mean)
          << key;
      EXPECT_DOUBLE_EQ(fast.convergenceInteractions.max,
                       reference.convergenceInteractions.max)
          << key;
    }
  }
}

// --- the incremental silence tracker against the oracle ---------------------

TEST(CompiledTracker, SilenceAgreesWithOracleUnderStepsAndFaults) {
  for (const std::string& key : protocolKeys()) {
    const auto proto = makeProtocol(key, 5);
    const CompiledProtocol cp(*proto);
    Rng rng(123);
    Engine engine(*proto, arbitraryConfiguration(*proto, 6, rng));
    engine.attachCompiled(&cp);
    RandomScheduler sched(engine.numParticipants(), rng.next());
    for (int step = 0; step < 3000; ++step) {
      engine.step(sched.next());
      if (step % 7 == 0) {
        ASSERT_EQ(engine.silent(), isSilent(*proto, engine.config()))
            << key << " after " << step + 1 << " steps";
      }
      if (step % 211 == 0) {
        engine.corruptMobile(
            static_cast<AgentId>(rng.below(engine.numMobile())),
            static_cast<StateId>(rng.below(proto->numMobileStates())));
        ASSERT_EQ(engine.silent(), isSilent(*proto, engine.config())) << key;
      }
    }
  }
}

TEST(CompiledTracker, SurvivesResetAndDetach) {
  const auto proto = makeProtocol("asymmetric", 4);
  const CompiledProtocol cp(*proto);
  Engine engine(*proto, Configuration{{0, 0, 1}, std::nullopt});
  engine.attachCompiled(&cp);
  EXPECT_FALSE(engine.silent());
  engine.resetTo(Configuration{{0, 1, 2}, std::nullopt});
  EXPECT_TRUE(engine.silent());
  engine.attachCompiled(nullptr);  // detach: interpreted verdicts
  EXPECT_TRUE(engine.silent());
}

TEST(CompiledTracker, CorruptedLeaderOutsideCompiledSetStaysExact) {
  const auto proto = makeProtocol("selfstab-weak", 4);
  const CompiledProtocol cp(*proto);
  ASSERT_TRUE(cp.leaderCompiled());
  Rng rng(5);
  Engine engine(*proto, arbitraryConfiguration(*proto, 4, rng));
  engine.attachCompiled(&cp);
  // n = 200 is far outside the enumerated BST space.
  engine.corruptLeader(packBst(BstState{.n = 200, .k = 3, .namePtr = 0}));
  RandomScheduler sched(engine.numParticipants(), rng.next());
  for (int i = 0; i < 500; ++i) {
    engine.step(sched.next());
    ASSERT_EQ(engine.silent(), isSilent(*proto, engine.config())) << i;
  }
}

// --- burst kernel vs per-step execution -------------------------------------

TEST(RunBurst, MatchesStepByStepCounters) {
  for (const std::string& key : protocolKeys()) {
    const auto proto = makeProtocol(key, 6);
    const CompiledProtocol cp(*proto);
    Rng rng(17);
    const Configuration start = arbitraryConfiguration(*proto, 8, rng);
    const std::uint64_t schedSeed = rng.next();

    Engine stepped(*proto, start);
    stepped.attachCompiled(&cp);
    RandomScheduler schedA(stepped.numParticipants(), schedSeed);
    for (int i = 0; i < 2500; ++i) stepped.step(schedA.next());

    Engine burst(*proto, start);
    burst.attachCompiled(&cp);
    RandomScheduler schedB(burst.numParticipants(), schedSeed);
    burst.runBurst(schedB, 1100);  // deliberately not a multiple of the block
    burst.runBurst(schedB, 1400);

    EXPECT_EQ(burst.config(), stepped.config()) << key;
    EXPECT_EQ(burst.totalInteractions(), stepped.totalInteractions()) << key;
    EXPECT_EQ(burst.nonNullInteractions(), stepped.nonNullInteractions()) << key;
    EXPECT_EQ(burst.lastChangeAt(), stepped.lastChangeAt()) << key;
  }
}

// --- validated-once indexing -------------------------------------------------

TEST(Validation, EngineRejectsOutOfSpaceStates) {
  const AsymmetricNaming proto(3);
  EXPECT_THROW(Engine(proto, Configuration{{0, 7}, std::nullopt}),
               std::logic_error);
  Engine engine(proto, Configuration{{0, 1}, std::nullopt});
  EXPECT_THROW(engine.resetTo(Configuration{{5, 0}, std::nullopt}),
               std::logic_error);
}

TEST(Validation, CorruptMobileRejectsBadInputs) {
  const AsymmetricNaming proto(3);
  Engine engine(proto, Configuration{{0, 1}, std::nullopt});
  EXPECT_THROW(engine.corruptMobile(5, 0), std::logic_error);
  EXPECT_THROW(engine.corruptMobile(0, 9), std::logic_error);
}

TEST(Validation, ApplyInteractionRejectsOutOfRangeParticipants) {
  const AsymmetricNaming proto(3);
  Configuration c{{0, 1}, std::nullopt};
  EXPECT_THROW(applyInteraction(proto, c, Interaction{0, 9}),
               std::logic_error);
  Engine engine(proto, c);
  const CompiledProtocol cp(proto);
  engine.attachCompiled(&cp);
  EXPECT_THROW(engine.step(Interaction{9, 0}), std::logic_error);
  EXPECT_THROW(engine.step(Interaction{1, 1}), std::logic_error);
  // A table compiled from another (even identical) protocol object is
  // rejected: its tracker rows would describe someone else's delta.
  const AsymmetricNaming other(3);
  const CompiledProtocol foreign(other);
  EXPECT_THROW(engine.attachCompiled(&foreign), std::logic_error);
}

}  // namespace
}  // namespace ppn
