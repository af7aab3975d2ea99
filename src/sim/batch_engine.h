// Async batch "naming service": one worker pool and one ordered front end
// over scalar runUntilSilent runs.
//
// A BatchEngine owns one worker pool and ONE work queue. Clients submit whole
// batches (a BatchSpec, exactly as runBatch takes) or explicit fixed-start
// lane plans; the engine splits each job into run-block tasks, queues them
// FIFO, and the workers drain the queue — one Engine per run, with the job's
// CompiledProtocol attached when the protocol compiles — so any number of
// concurrent jobs saturates all cores from a single queue. Completed
// RunOutcomes can be streamed as JSONL lines, emitted strictly in run order
// so the stream bytes are deterministic no matter how blocks interleave.
//
// Determinism contract: per-run inputs are derived sequentially at submit()
// time through util/seed.h — the SAME derivation runBatch performs — and each
// run only ever consumes its own pre-split generator and scheduler stream.
// BatchEngine::submit(spec)->wait() therefore returns a BatchResult (and
// per-run outcomes, and per-runId observer event sequences) bit-identical to
// runBatch(proto, spec), for every pool size and block size
// (tests/sim/batch_engine_test.cpp enforces this differentially).
//
// RunObserver/metrics wiring is unchanged from the scalar drivers: the
// spec's observer receives the usual per-run events plus batch_progress, from
// worker threads (observers must be thread-safe, as with runBatch
// threads > 1).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner.h"

namespace ppn {

struct BatchEngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 0;
  /// Runs per queued task: the scheduling granule. Smaller blocks spread one
  /// job over more cores. Never affects results, only scheduling.
  std::uint32_t lanesPerTask = 256;
};

/// Receives one completed run as a JSONL line (no trailing newline), invoked
/// in ascending runId order under the job's lock — the callback must not
/// re-enter the engine.
using JsonlLineSink = std::function<void(const std::string&)>;

/// One fixed-start run of a lane job: exact_vs_simulated-style rows where
/// every run starts from the SAME configuration and only the scheduler
/// stream varies.
struct LanePlan {
  Configuration start;
  std::uint64_t schedSeed = 0;
  std::uint64_t runId = 0;
};

/// Job-wide settings for submitLanes (submit(BatchSpec) derives these from
/// the spec).
struct LaneJobSpec {
  SchedulerKind sched = SchedulerKind::kRandom;
  RunLimits limits;
  RunObserver* observer = nullptr;
  FlightRecorder* recorder = nullptr;
  bool compiled = true;
};

/// Renders one completed run as the engine's JSONL stream line.
std::string runOutcomeJsonl(const RunOutcome& out, std::uint64_t runId);

class BatchEngine {
 public:
  /// Handle to a submitted batch. Results become available once every one of
  /// the job's run blocks has drained from the queue.
  class Job {
   public:
    /// Blocks until the job completes; aggregates exactly as runBatch does
    /// and rethrows the job's first exception (if any) with its message
    /// intact. Safe to call repeatedly.
    BatchResult wait();

    bool done() const;

    /// Per-run outcomes in run order; valid after wait() returns.
    const std::vector<RunOutcome>& outcomes() const { return outcomes_; }

   private:
    friend class BatchEngine;

    const Protocol* proto = nullptr;
    std::vector<LanePlan> plans;
    LaneJobSpec spec;
    JsonlLineSink sink;
    std::shared_ptr<CompiledProtocol> compiled;  ///< shared by all blocks

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<RunOutcome> outcomes_;
    std::vector<bool> runDone_;
    std::size_t nextEmit_ = 0;
    std::size_t pendingTasks_ = 0;
    bool finished_ = false;
    CancelToken cancel_{false};
    std::exception_ptr error_;
    std::uint64_t errorRun_ = ~std::uint64_t{0};
    std::uint32_t progressCompleted_ = 0;
    std::uint32_t progressDegraded_ = 0;
    std::uint32_t progressRetired_ = 0;  ///< completed lanes that went silent
  };

  explicit BatchEngine(BatchEngineOptions options = {});

  /// Drains every queued task, then joins the workers. Prefer drain()/wait()
  /// for explicit shutdown points.
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  std::uint32_t threads() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Queues spec.runs runs of `proto` (which must outlive the job). Per-run
  /// inputs (start configuration, scheduler seed, runId) are derived here,
  /// sequentially — a protocol whose arbitraryConfiguration throws does so
  /// from this call, not from a worker. `sink`, when set, receives every
  /// completed run as a JSONL line in run order.
  std::shared_ptr<Job> submit(const Protocol& proto, const BatchSpec& spec,
                              JsonlLineSink sink = nullptr);

  /// Queues explicit pre-derived lane plans (fixed starts, caller-drawn
  /// scheduler seeds). All plans must share one population size.
  std::shared_ptr<Job> submitLanes(const Protocol& proto,
                                   std::vector<LanePlan> plans,
                                   const LaneJobSpec& spec,
                                   JsonlLineSink sink = nullptr);

  /// Drop-in replacement for parallelRunIndexed running on THIS pool instead
  /// of ad-hoc threads: fn(index, cancel) for every index in [0, count),
  /// exception of the lowest index rethrown once, remaining indices skipped
  /// after a throw. Blocks the caller until done. Must not be called from a
  /// worker task (the caller would occupy the slot its work needs).
  void parallelFor(std::uint32_t count,
                   const std::function<void(std::uint32_t, CancelToken&)>& fn);

  /// Blocks until every job submitted so far has completed.
  void drain();

 private:
  void workerLoop();
  void enqueue(std::function<void()> task);
  void runBlock(const std::shared_ptr<Job>& job, std::uint32_t lo,
                std::uint32_t hi);
  void finishBlock(const std::shared_ptr<Job>& job, std::uint32_t lo,
                   std::uint32_t hi, std::vector<RunOutcome> block);

  BatchEngineOptions options_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable queueCv_;
  std::condition_variable idleCv_;
  std::deque<std::function<void()>> queue_;
  std::size_t inFlight_ = 0;
  bool stopping_ = false;
};

}  // namespace ppn
