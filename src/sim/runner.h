// Simulation driver: runs a protocol under a scheduler until the
// configuration is silent (terminal), collecting convergence metrics.
//
// Convergence time is reported exactly: `Engine::lastChangeAt()` records the
// interaction index of the most recent configuration change, so once silence
// is observed (silence is permanent for deterministic protocols) the
// convergence time does not depend on how often silence was polled.
//
// Hot path: runUntilSilent steps the engine through Engine::runBurst, so an
// engine with a CompiledProtocol attached (runBatch attaches one per batch,
// see BatchSpec::compiled) runs the virtual-free table kernel with O(1)
// incremental silence detection; an unadorned engine runs the interpreted
// reference path. Both produce bit-identical RunOutcomes and observer event
// streams for the same seed.
//
// Batches are hardened for campaign-scale use (see src/faults/):
//  * worker threads never leak exceptions (a throwing run cancels the rest of
//    the batch cooperatively and the first exception is rethrown on join);
//  * an optional wall-clock watchdog aborts hung runs, producing a *partial*
//    BatchResult flagged `degraded` instead of blocking forever;
//  * every per-run input (start configuration, scheduler seed) is derived
//    sequentially before execution, so results are bit-identical for every
//    thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "stats/summary.h"

namespace ppn {

struct RunLimits {
  /// Abort the run (converged = false) after this many interactions.
  std::uint64_t maxInteractions = 10'000'000;
  /// Poll silence every this many interactions. Does not affect reported
  /// convergence times, only detection overhead.
  std::uint64_t checkInterval = 64;
  /// Wall-clock watchdog: abort the run (silent = false, timedOut = true)
  /// once this many milliseconds have elapsed. 0 = unlimited, the default,
  /// so pre-existing benches and tests are byte-for-byte unaffected.
  std::uint64_t maxWallMillis = 0;
};

/// Cooperative cancellation token shared by the workers of a batch: a run
/// polls it at every silence check and winds down promptly once set.
using CancelToken = std::atomic<bool>;

struct RunOutcome {
  bool silent = false;        ///< reached a terminal configuration in time
  bool namingSolved = false;  ///< silent with distinct valid names
  bool timedOut = false;      ///< aborted by the wall-clock watchdog
  bool cancelled = false;     ///< aborted via the CancelToken
  /// Interaction count at the last configuration change; the exact
  /// convergence time when silent. Equals the step budget spent when not.
  std::uint64_t convergenceInteractions = 0;
  std::uint64_t totalInteractions = 0;
  std::uint64_t nonNullInteractions = 0;
  std::uint32_t numMobile = 0;
  Configuration finalConfig;

  /// Parallel time in the population-protocol sense: interactions / N.
  double parallelTime() const {
    return numMobile == 0
               ? 0.0
               : static_cast<double>(convergenceInteractions) / numMobile;
  }
};

/// Snapshots the run's convergence state from the engine's current
/// configuration: projected-name occupancy histogram (multiplicities,
/// descending), distinct-name count, and collision count (agents sharing
/// their name). This is the FlightRecorder sampling glue — obs/trace.h holds
/// only plain data and never sees core types.
ConvergenceSample sampleConvergence(const Engine& engine, std::uint64_t runId);

/// RAII companion for observed runs: guarantees that an emitted run_start is
/// paired with a run_end even when the run body THROWS (an exception
/// unwinding through a batch worker previously left the event stream with an
/// unpaired run_start), and dumps the flight recorder before the worker
/// unwinds so the ring's perturbation history is not lost with the run.
/// Construct immediately after emitting run_start; call disarm() once the
/// normal path has emitted its own run_end. A destructor firing while armed
/// emits a synthetic run_end (silent/named/timedOut/cancelled all false) with
/// the engine's current interaction counts.
class RunEndPairGuard {
 public:
  RunEndPairGuard(RunObserver* observer, FlightRecorder* recorder,
                  const Engine& engine, std::uint64_t runId);
  ~RunEndPairGuard();

  RunEndPairGuard(const RunEndPairGuard&) = delete;
  RunEndPairGuard& operator=(const RunEndPairGuard&) = delete;

  void disarm() { armed_ = false; }

 private:
  RunObserver* observer_;
  FlightRecorder* recorder_;
  const Engine& engine_;
  std::uint64_t runId_;
  std::chrono::steady_clock::time_point started_;
  bool armed_ = true;
};

/// Steps `engine` with interactions from `sched` until silent or a budget
/// (interactions or wall clock) runs out. `cancel`, when non-null, is polled
/// once per check interval; a set token aborts the run with cancelled = true.
///
/// `observer`, when non-null, receives run_start/run_end (always paired, even
/// for cancelled or timed-out runs), one silence_check per poll, and
/// watchdog_abort / cancelled at the abort point; `runId` labels the events.
/// A null observer costs one branch per check interval — nothing per step.
///
/// `recorder`, when non-null, receives one convergence sample per recorder
/// stride of interactions (bursts are capped at sample boundaries — this can
/// add silence polls but never changes the outcome) plus a final sample at a
/// watchdog/cancel abort, and is dumped to its configured path when the
/// watchdog fires.
RunOutcome runUntilSilent(Engine& engine, Scheduler& sched,
                          const RunLimits& limits,
                          const CancelToken* cancel = nullptr,
                          RunObserver* observer = nullptr,
                          std::uint64_t runId = 0,
                          FlightRecorder* recorder = nullptr);

/// Runs fn(index, cancel) for every index in [0, count), spread over
/// `threads` workers (0 = hardware concurrency). Exception-safe: a throwing
/// invocation sets the shared cancel token (so in-flight runs wind down
/// cooperatively), remaining indices are skipped, all workers are joined, and
/// the exception belonging to the lowest index is rethrown exactly once.
void parallelRunIndexed(
    std::uint32_t count, std::uint32_t threads,
    const std::function<void(std::uint32_t, CancelToken&)>& fn);

/// Scheduler kinds selectable from CLI flags / experiment configs.
enum class SchedulerKind { kRandom, kSkewed, kRoundRobin, kTournament };

/// Parses "random" | "skewed" | "round-robin" | "tournament"; throws
/// std::invalid_argument otherwise.
SchedulerKind parseSchedulerKind(const std::string& s);
std::string schedulerKindName(SchedulerKind kind);

/// Factory. `skew` controls SkewedRandomScheduler: participant i gets weight
/// 1 + skew * i / (M-1) (ignored by the other kinds).
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind,
                                         std::uint32_t numParticipants,
                                         std::uint64_t seed, double skew = 3.0);

/// How mobile agents start a run.
enum class InitKind {
  kUniform,    ///< the protocol's declared uniform initialization
  kArbitrary,  ///< fresh uniform-random states each run (self-stabilization)
};

struct BatchSpec {
  std::uint32_t numMobile = 0;
  InitKind init = InitKind::kArbitrary;
  SchedulerKind sched = SchedulerKind::kRandom;
  std::uint32_t runs = 32;
  std::uint64_t seed = 1;
  RunLimits limits;
  /// Worker threads. Per-run seeds and starting configurations are derived
  /// sequentially before any run executes, so results are bit-identical for
  /// every thread count. 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 1;
  /// Telemetry probe (not owned; must be thread-safe when threads != 1).
  /// Null — the default — keeps the batch entirely unobserved: results and
  /// outputs are byte-for-byte what they were before the telemetry layer.
  RunObserver* observer = nullptr;
  /// Added to each run's index to form its event runId, so sweeps chaining
  /// several batches into one observer keep ids unique across the sweep.
  std::uint64_t runIdBase = 0;
  /// Convergence flight recorder shared by every run of the batch (not
  /// owned; thread-safe by construction). Null — the default — records
  /// nothing and keeps the hot loop untouched.
  FlightRecorder* recorder = nullptr;
  /// Use the compiled fast path (core/compiled.h): the protocol's transition
  /// tables are flattened once per batch and shared read-only by all workers,
  /// and each engine maintains the incremental silence tracker. Outcomes are
  /// bit-identical to the interpreted path (enforced by the differential
  /// tests); false forces the interpreted reference path.
  bool compiled = true;
};

struct BatchResult {
  Summary convergenceInteractions;  ///< over converged runs only
  Summary parallelTime;
  std::uint32_t converged = 0;  ///< runs that reached silence
  std::uint32_t named = 0;      ///< runs that reached silence with naming
  std::uint32_t timedOut = 0;   ///< runs aborted by the wall-clock watchdog
  std::uint32_t runs = 0;
  /// True when any run hit the watchdog: the batch completed, but its
  /// statistics cover only the runs that finished — a partial result.
  bool degraded = false;
};

/// Aggregates per-run outcomes into the batch summary. Shared by runBatch
/// and BatchEngine::Job::wait (sim/batch_engine.h) — one aggregation rule, so
/// both front ends report identical statistics for identical outcomes.
BatchResult summarizeBatch(const std::vector<RunOutcome>& outcomes);

/// Runs `spec.runs` independent runs of `proto`, each with a fresh initial
/// configuration and scheduler stream derived from `spec.seed`. A run that
/// throws (e.g. std::logic_error from arbitraryConfiguration on a protocol
/// with no enumerable leader states) cancels the remaining runs and is
/// rethrown with its message intact; runs aborted by the watchdog are
/// reported via `timedOut`/`degraded` rather than blocking the batch.
///
/// The same runs on a long-lived shared pool — same spec, bit-identical
/// outcomes — are BatchEngine::submit(proto, spec) in sim/batch_engine.h.
BatchResult runBatch(const Protocol& proto, const BatchSpec& spec);

}  // namespace ppn
