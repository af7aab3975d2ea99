#include "sim/batch_engine.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled.h"
#include "core/engine.h"
#include "faults/campaign.h"
#include "faults/certify.h"
#include "naming/registry.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "util/seed.h"

namespace ppn {
namespace {

// The batch engine's contract is differential: submit(spec)->wait() must be
// bit-identical to runBatch(proto, spec) — aggregate statistics, per-run
// outcomes, per-runId observer event sequences, and JSONL stream bytes — for
// every worker-pool size and lane-block size. Same for the campaign/certify
// drivers routed through the shared pool.

/// Per-runId event sequences, wall-clock fields excluded (they differ from
/// run to run on any path).
class SequenceObserver final : public RunObserver {
 public:
  void onRunStart(const RunStartEvent& e) override {
    append(e.runId, "start " + std::to_string(e.numMobile) + "/" +
                        std::to_string(e.numParticipants));
  }
  void onRunEnd(const RunEndEvent& e) override {
    std::ostringstream os;
    os << "end " << e.silent << e.named << e.timedOut << e.cancelled << " "
       << e.convergenceInteractions << "/" << e.totalInteractions;
    append(e.runId, os.str());
  }
  void onSilenceCheck(const SilenceCheckEvent& e) override {
    append(e.runId, "silence@" + std::to_string(e.interactions) +
                        (e.silent ? "+" : "-"));
  }
  void onWatchdogAbort(const WatchdogAbortEvent& e) override {
    append(e.runId, "watchdog@" + std::to_string(e.interactions));
  }
  void onCancelled(const CancelledEvent& e) override {
    append(e.runId, "cancelled@" + std::to_string(e.interactions));
  }
  void onBatchProgress(const BatchProgressEvent& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++progressEvents_;
    lastProgressTotal_ = e.total;
    lastLanesLive_ = e.lanesLive;
    lastLanesRetired_ = e.lanesRetired;
    // Lane-telemetry invariants that must hold on *every* event, regardless
    // of pool geometry: occupancy is exactly the not-yet-completed runs, and
    // retired (silent) lanes are a subset of the completed ones.
    if (e.lanesLive != e.total - e.completed) laneInvariantsHold_ = false;
    if (e.lanesRetired > e.completed) laneInvariantsHold_ = false;
  }

  std::map<std::uint64_t, std::vector<std::string>> sequences() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sequences_;
  }
  std::uint32_t progressEvents() const {
    std::lock_guard<std::mutex> lock(mu_);
    return progressEvents_;
  }
  std::uint32_t lastProgressTotal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lastProgressTotal_;
  }
  std::uint32_t lastLanesLive() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lastLanesLive_;
  }
  std::uint32_t lastLanesRetired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lastLanesRetired_;
  }
  bool laneInvariantsHold() const {
    std::lock_guard<std::mutex> lock(mu_);
    return laneInvariantsHold_;
  }

 private:
  void append(std::uint64_t runId, std::string line) {
    std::lock_guard<std::mutex> lock(mu_);
    sequences_[runId].push_back(std::move(line));
  }
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::vector<std::string>> sequences_;
  std::uint32_t progressEvents_ = 0;
  std::uint32_t lastProgressTotal_ = 0;
  std::uint32_t lastLanesLive_ = ~0u;
  std::uint32_t lastLanesRetired_ = 0;
  bool laneInvariantsHold_ = true;
};

void expectSameSummary(const Summary& a, const Summary& b,
                       const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(a.mean, b.mean) << label;
  EXPECT_EQ(a.stddev, b.stddev) << label;
  EXPECT_EQ(a.min, b.min) << label;
  EXPECT_EQ(a.max, b.max) << label;
  EXPECT_EQ(a.median, b.median) << label;
  EXPECT_EQ(a.p10, b.p10) << label;
  EXPECT_EQ(a.p90, b.p90) << label;
}

void expectSameBatchResult(const BatchResult& a, const BatchResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.named, b.named) << label;
  EXPECT_EQ(a.timedOut, b.timedOut) << label;
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  expectSameSummary(a.convergenceInteractions, b.convergenceInteractions,
                    label + " convergence");
  expectSameSummary(a.parallelTime, b.parallelTime, label + " parallelTime");
}

void expectSameOutcome(const RunOutcome& a, const RunOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.silent, b.silent) << label;
  EXPECT_EQ(a.namingSolved, b.namingSolved) << label;
  EXPECT_EQ(a.timedOut, b.timedOut) << label;
  EXPECT_EQ(a.cancelled, b.cancelled) << label;
  EXPECT_EQ(a.convergenceInteractions, b.convergenceInteractions) << label;
  EXPECT_EQ(a.totalInteractions, b.totalInteractions) << label;
  EXPECT_EQ(a.nonNullInteractions, b.nonNullInteractions) << label;
  EXPECT_EQ(a.numMobile, b.numMobile) << label;
  EXPECT_TRUE(a.finalConfig == b.finalConfig) << label;
}

/// Scalar reference for per-run outcomes: runBatch's own worker body, run
/// sequentially (runBatch only returns the aggregate, so the differential
/// tests re-derive the outcome vector through the same seed helper).
std::vector<RunOutcome> referenceOutcomes(const Protocol& proto,
                                          const BatchSpec& spec) {
  const CompiledProtocol compiled(proto);
  std::vector<Rng> runRngs = splitRunRngs(spec.seed, spec.runs);
  std::vector<RunOutcome> outcomes(spec.runs);
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    Rng runRng = runRngs[r];
    Configuration start =
        spec.init == InitKind::kUniform
            ? uniformConfiguration(proto, spec.numMobile)
            : arbitraryConfiguration(proto, spec.numMobile, runRng);
    Engine engine(proto, std::move(start));
    engine.attachCompiled(&compiled);
    auto sched =
        makeScheduler(spec.sched, engine.numParticipants(), runRng.next());
    outcomes[r] = runUntilSilent(engine, *sched, spec.limits, nullptr, nullptr,
                                 spec.runIdBase + r);
  }
  return outcomes;
}

BatchSpec smallSpec(std::uint32_t numMobile, InitKind init) {
  BatchSpec spec;
  spec.numMobile = numMobile;
  spec.init = init;
  spec.runs = 12;
  spec.seed = 77;
  spec.limits = RunLimits{20'000, 64};
  spec.runIdBase = 100;
  return spec;
}

TEST(BatchEngine, SubmitMatchesRunBatchAcrossPoolGeometries) {
  struct Case {
    const char* key;
    StateId p;
    std::uint32_t n;
    InitKind init;
  };
  const Case cases[] = {
      {"asymmetric", 8, 8, InitKind::kArbitrary},
      {"leader-uniform", 8, 8, InitKind::kUniform},
      {"counting", 9, 8, InitKind::kArbitrary},
      {"symmetric-global", 8, 8, InitKind::kArbitrary},
      {"selfstab-weak", 6, 6, InitKind::kArbitrary},
      {"global-leader", 4, 4, InitKind::kArbitrary},
  };
  for (const Case& c : cases) {
    const auto proto = makeProtocol(c.key, c.p);
    const BatchSpec spec = smallSpec(c.n, c.init);
    const BatchResult want = runBatch(*proto, spec);
    const std::vector<RunOutcome> ref = referenceOutcomes(*proto, spec);

    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      for (const std::uint32_t lanesPerTask : {1u, 3u, 256u}) {
        BatchEngine engine(BatchEngineOptions{threads, lanesPerTask});
        auto job = engine.submit(*proto, spec);
        const BatchResult got = job->wait();
        const std::string label = std::string(c.key) + " threads=" +
                                  std::to_string(threads) + " block=" +
                                  std::to_string(lanesPerTask);
        expectSameBatchResult(got, want, label);
        ASSERT_EQ(job->outcomes().size(), ref.size()) << label;
        for (std::uint32_t r = 0; r < spec.runs; ++r) {
          expectSameOutcome(job->outcomes()[r], ref[r],
                            label + " run " + std::to_string(r));
        }
      }
    }
  }
}

TEST(BatchEngine, ObserverEventStreamsMatchRunBatch) {
  const auto proto = makeProtocol("asymmetric", 8);
  BatchSpec spec = smallSpec(8, InitKind::kArbitrary);

  SequenceObserver scalarObs;
  spec.observer = &scalarObs;
  runBatch(*proto, spec);

  for (const std::uint32_t threads : {1u, 4u}) {
    SequenceObserver engineObs;
    spec.observer = &engineObs;
    BatchEngine engine(BatchEngineOptions{threads, 3});
    engine.submit(*proto, spec)->wait();
    EXPECT_EQ(engineObs.sequences(), scalarObs.sequences())
        << "threads=" << threads;
    // Progress events carry no runId and arrive in completion order; only
    // their count and total are deterministic across backends.
    EXPECT_EQ(engineObs.progressEvents(), spec.runs);
    EXPECT_EQ(engineObs.lastProgressTotal(), spec.runs);
  }
}

TEST(BatchEngine, LaneTelemetryTracksOccupancyAndRetirement) {
  const auto proto = makeProtocol("asymmetric", 8);
  BatchSpec spec = smallSpec(8, InitKind::kArbitrary);

  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::uint32_t lanesPerTask : {1u, 3u, 256u}) {
      SequenceObserver obs;
      spec.observer = &obs;
      BatchEngine engine(BatchEngineOptions{threads, lanesPerTask});
      auto job = engine.submit(*proto, spec);
      job->wait();
      const std::string label = "threads=" + std::to_string(threads) +
                                " block=" + std::to_string(lanesPerTask);
      EXPECT_TRUE(obs.laneInvariantsHold()) << label;
      // The final progress event must report zero live lanes and a retired
      // count equal to the runs that actually reached silence.
      EXPECT_EQ(obs.lastLanesLive(), 0u) << label;
      std::uint32_t silent = 0;
      for (const RunOutcome& o : job->outcomes()) {
        if (o.silent) ++silent;
      }
      EXPECT_EQ(obs.lastLanesRetired(), silent) << label;
      EXPECT_GT(silent, 0u) << label;
    }
  }
}

TEST(BatchEngine, JsonlStreamIsOrderedCompleteAndDeterministic) {
  const auto proto = makeProtocol("symmetric-global", 8);
  const BatchSpec spec = smallSpec(8, InitKind::kArbitrary);

  std::vector<std::string> reference;
  {
    BatchEngine engine(BatchEngineOptions{1, 256});
    auto job = engine.submit(*proto, spec, [&](const std::string& line) {
      reference.push_back(line);
    });
    job->wait();
  }
  ASSERT_EQ(reference.size(), spec.runs);
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    // Lines are emitted in run order and match the public renderer.
    EXPECT_NE(reference[r].find("\"runId\":" +
                                std::to_string(spec.runIdBase + r)),
              std::string::npos)
        << r;
  }

  // Many small blocks racing on many workers must still produce the same
  // byte stream in the same order.
  std::vector<std::string> racy;
  BatchEngine engine(BatchEngineOptions{4, 1});
  auto job = engine.submit(*proto, spec, [&](const std::string& line) {
    racy.push_back(line);
  });
  job->wait();
  const std::vector<RunOutcome>& outcomes = job->outcomes();
  EXPECT_EQ(racy, reference);
  ASSERT_EQ(outcomes.size(), spec.runs);
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    EXPECT_EQ(racy[r], runOutcomeJsonl(outcomes[r], spec.runIdBase + r)) << r;
  }
}

TEST(BatchEngine, SubmitLanesMatchesScalarFixedStartRuns) {
  // The exact_vs_simulated shape: every run starts from the SAME
  // configuration; only the scheduler stream varies (drawRunSeeds).
  const auto proto = makeProtocol("asymmetric", 8);
  const CompiledProtocol compiled(*proto);
  const std::uint32_t runs = 16;
  Rng initRng(5);
  const Configuration start = arbitraryConfiguration(*proto, 8, initRng);
  const std::vector<std::uint64_t> seeds = drawRunSeeds(31, runs);
  const RunLimits limits{20'000, 64};

  std::vector<LanePlan> plans(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    plans[r].start = start;
    plans[r].schedSeed = seeds[r];
    plans[r].runId = r;
  }
  LaneJobSpec laneSpec;
  laneSpec.limits = limits;

  BatchEngine engine(BatchEngineOptions{2, 4});
  auto empty = engine.submitLanes(*proto, {}, laneSpec);
  EXPECT_TRUE(empty->done());
  EXPECT_EQ(empty->wait().runs, 0u);
  EXPECT_TRUE(empty->outcomes().empty());

  auto job = engine.submitLanes(*proto, std::move(plans), laneSpec);
  job->wait();
  ASSERT_EQ(job->outcomes().size(), runs);

  for (std::uint32_t r = 0; r < runs; ++r) {
    Engine scalar(*proto, start);
    scalar.attachCompiled(&compiled);
    auto sched = makeScheduler(SchedulerKind::kRandom,
                               scalar.numParticipants(), seeds[r]);
    const RunOutcome want = runUntilSilent(scalar, *sched, limits);
    expectSameOutcome(job->outcomes()[r], want, "run " + std::to_string(r));
  }
}

TEST(BatchEngine, InterpretedPathMatchesCompiledPath) {
  const auto proto = makeProtocol("leader-uniform", 6);
  BatchSpec spec = smallSpec(6, InitKind::kUniform);
  BatchEngine engine(BatchEngineOptions{2, 4});

  auto compiledJob = engine.submit(*proto, spec);
  spec.compiled = false;  // force the per-lane scalar interpreted path
  auto interpretedJob = engine.submit(*proto, spec);
  compiledJob->wait();
  interpretedJob->wait();
  ASSERT_EQ(compiledJob->outcomes().size(), interpretedJob->outcomes().size());
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    expectSameOutcome(compiledJob->outcomes()[r], interpretedJob->outcomes()[r],
                      "run " + std::to_string(r));
  }
}

TEST(BatchEngine, ParallelForMatchesParallelRunIndexed) {
  const std::uint32_t count = 23;
  auto compute = [](std::uint32_t i) {
    Rng rng(1000 + i);
    return rng.next();
  };

  std::vector<std::uint64_t> want(count);
  parallelRunIndexed(count, 2, [&](std::uint32_t i, CancelToken&) {
    want[i] = compute(i);
  });

  BatchEngine engine(BatchEngineOptions{3, 256});
  std::vector<std::uint64_t> got(count);
  engine.parallelFor(count, [&](std::uint32_t i, CancelToken&) {
    got[i] = compute(i);
  });
  EXPECT_EQ(got, want);
}

TEST(BatchEngine, ParallelForRethrowsAndSkipsAfterThrow) {
  BatchEngine engine(BatchEngineOptions{2, 256});
  std::mutex mu;
  std::vector<std::uint32_t> ran;
  try {
    engine.parallelFor(64, [&](std::uint32_t i, CancelToken&) {
      if (i == 5) throw std::runtime_error("boom at 5");
      std::lock_guard<std::mutex> lock(mu);
      ran.push_back(i);
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
  EXPECT_LT(ran.size(), 64u);  // cancellation skipped the tail

  // The pool survives a throwing job: later work completes normally.
  std::vector<std::uint32_t> after(4);
  engine.parallelFor(4, [&](std::uint32_t i, CancelToken&) { after[i] = i; });
  EXPECT_EQ(after, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BatchEngine, WaitRethrowsWorkerErrorsAndEngineSurvives) {
  const auto proto = makeProtocol("asymmetric", 6);
  BatchEngine engine(BatchEngineOptions{2, 1});

  std::vector<LanePlan> plans(3);
  for (std::uint32_t r = 0; r < 3; ++r) {
    plans[r].start.mobile = {0, 1, 2};
    plans[r].schedSeed = r;
    plans[r].runId = r;
  }
  plans[1].start.mobile = {0, 99, 2};  // state outside P=6: worker-side throw
  auto bad = engine.submitLanes(*proto, std::move(plans), LaneJobSpec{});
  EXPECT_THROW(bad->wait(), std::logic_error);
  EXPECT_THROW(bad->wait(), std::logic_error);  // wait() is repeatable

  BatchSpec spec = smallSpec(6, InitKind::kArbitrary);
  spec.runs = 4;
  auto good = engine.submit(*proto, spec);
  EXPECT_EQ(good->wait().runs, 4u);
}

/// Never silent: every interaction flips both agents, so a run ends only by
/// budget, watchdog or cancellation.
class SpinProtocol final : public Protocol {
 public:
  std::string name() const override { return "spin"; }
  StateId numMobileStates() const override { return 2; }
  bool isSymmetric() const override { return true; }
  MobilePair mobileDelta(StateId initiator, StateId responder) const override {
    return MobilePair{initiator ^ 1u, responder ^ 1u};
  }
};

/// Fails run 1 at its first silence poll, but only once run 0 has polled, so
/// run 0 is in flight on another worker when the failure cancels the job.
class FailRunOneObserver final : public RunObserver {
 public:
  void onRunStart(const RunStartEvent& e) override { append(e.runId, "start"); }
  void onSilenceCheck(const SilenceCheckEvent& e) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (e.runId == 0) {
      runZeroPolled_ = true;
      cv_.notify_all();
    } else if (e.runId == 1) {
      cv_.wait(lock, [this] { return runZeroPolled_; });
      throw std::runtime_error("run 1 fails");
    }
  }
  void onCancelled(const CancelledEvent& e) override {
    append(e.runId, "cancelled@" + std::to_string(e.interactions));
  }
  void onRunEnd(const RunEndEvent& e) override {
    append(e.runId, std::string(e.cancelled ? "end cancelled" : "end") + "@" +
                        std::to_string(e.totalInteractions));
  }

  std::map<std::uint64_t, std::vector<std::string>> sequences() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sequences_;
  }

 private:
  void append(std::uint64_t runId, std::string line) {
    std::lock_guard<std::mutex> lock(mu_);
    sequences_[runId].push_back(std::move(line));
  }
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool runZeroPolled_ = false;
  std::map<std::uint64_t, std::vector<std::string>> sequences_;
};

TEST(BatchEngine, CancellationFinishesEveryStartedRunWithPairedEvents) {
  // A failing run cancels its job. The run in flight on the other worker
  // must stop at its next poll with a paired run_start/run_end marked
  // cancelled, having followed the scalar trajectory up to that point; runs
  // still queued are skipped without events, as runBatch skips them.
  const SpinProtocol proto;
  const Configuration start{{0, 1, 0, 1}, std::nullopt};
  std::vector<LanePlan> plans(3);
  for (std::uint32_t r = 0; r < 3; ++r) {
    plans[r].start = start;
    plans[r].schedSeed = 40 + r;
    plans[r].runId = r;
  }
  FailRunOneObserver obs;
  LaneJobSpec spec;
  // The watchdog only bounds a broken build; run 0 must end by cancellation.
  spec.limits = RunLimits{1'000'000'000'000'000ULL, 64, 60'000};
  spec.observer = &obs;

  BatchEngine engine(BatchEngineOptions{2, 1});
  auto job = engine.submitLanes(proto, std::move(plans), spec);
  try {
    job->wait();
    FAIL() << "expected the failing run's exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "run 1 fails");
  }

  const RunOutcome& cancelled = job->outcomes()[0];
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.silent);
  EXPECT_FALSE(cancelled.timedOut);
  const std::uint64_t at = cancelled.totalInteractions;
  const std::string atText = std::to_string(at);
  const auto sequences = obs.sequences();
  ASSERT_EQ(sequences.size(), 2u);
  EXPECT_EQ(sequences.at(0),
            (std::vector<std::string>{"start", "cancelled@" + atText,
                                      "end cancelled@" + atText}));
  EXPECT_EQ(sequences.at(1), (std::vector<std::string>{"start", "end@0"}));
  EXPECT_EQ(job->outcomes()[2].totalInteractions, 0u);
  EXPECT_FALSE(job->outcomes()[2].cancelled);

  // Scalar reference: the same run with its budget set to the cancellation
  // point reaches the same configuration after the same interactions.
  const CompiledProtocol compiled(proto);
  Engine scalar(proto, start);
  scalar.attachCompiled(&compiled);
  auto sched = makeScheduler(SchedulerKind::kRandom, scalar.numParticipants(),
                             40);
  const RunOutcome want = runUntilSilent(scalar, *sched, RunLimits{at, 64});
  EXPECT_EQ(want.totalInteractions, at);
  EXPECT_EQ(want.nonNullInteractions, cancelled.nonNullInteractions);
  EXPECT_TRUE(want.finalConfig == cancelled.finalConfig);
}

TEST(BatchEngine, SubmitRejectsNonEnumerableArbitraryInit) {
  // selfstab-weak at P=255 cannot enumerate its leader space; submit derives
  // starts sequentially, so the failure surfaces from submit() itself rather
  // than a worker thread.
  const auto proto = makeProtocol("selfstab-weak", 255);
  BatchEngine engine(BatchEngineOptions{1, 256});
  BatchSpec spec = smallSpec(8, InitKind::kArbitrary);
  EXPECT_THROW(engine.submit(*proto, spec), std::logic_error);
}

TEST(BatchEngine, MismatchedLanePopulationsRejectedAtSubmit) {
  const auto proto = makeProtocol("asymmetric", 6);
  BatchEngine engine(BatchEngineOptions{1, 256});
  std::vector<LanePlan> plans(2);
  plans[0].start.mobile = {0, 1, 2};
  plans[1].start.mobile = {0, 1};
  EXPECT_THROW(engine.submitLanes(*proto, std::move(plans), LaneJobSpec{}),
               std::invalid_argument);
}

TEST(BatchEngine, CampaignBackendIsBitIdentical) {
  const auto proto = makeProtocol("asymmetric", 6);
  CampaignSpec spec;
  spec.regime = FaultRegime::kPoissonTransient;
  spec.faultWindow = 2'000;
  spec.numMobile = 6;
  spec.runs = 8;
  spec.seed = 9;
  spec.limits = RunLimits{5'000'000, 128};
  spec.threads = 2;

  const CampaignResult scalar = runCampaign(*proto, spec);

  BatchEngine engine(BatchEngineOptions{3, 256});
  spec.engine = &engine;
  const CampaignResult pooled = runCampaign(*proto, spec);

  EXPECT_EQ(pooled.outcomes, scalar.outcomes);
  EXPECT_EQ(pooled.recovered, scalar.recovered);
  EXPECT_EQ(pooled.recoveredNamed, scalar.recoveredNamed);
  EXPECT_EQ(pooled.timedOut, scalar.timedOut);
  EXPECT_EQ(pooled.degraded, scalar.degraded);
  expectSameSummary(pooled.recoveryInteractions, scalar.recoveryInteractions,
                    "recovery");
  expectSameSummary(pooled.faultsInjected, scalar.faultsInjected, "faults");
}

TEST(BatchEngine, CertifySweepSerializesByteIdenticallyWithEngine) {
  // The campaign-merge CI job byte-compares robustness tables; routing the
  // sweep through the shared pool must not change a single byte.
  CertifySpec spec;
  spec.protocols = {"asymmetric"};
  spec.populations = {4};
  spec.regimes = {FaultRegime::kPoissonTransient, FaultRegime::kStuckAgent};
  spec.faultWindow = 2'000;
  spec.runs = 6;
  spec.limits = RunLimits{5'000'000, 128, 0};
  spec.threads = 2;

  const std::string scalar = certifyRecovery(spec).toJson();

  BatchEngine engine(BatchEngineOptions{3, 256});
  spec.engine = &engine;
  const std::string pooled = certifyRecovery(spec).toJson();

  EXPECT_EQ(pooled, scalar);
}

}  // namespace
}  // namespace ppn
