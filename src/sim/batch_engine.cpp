#include "sim/batch_engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/compiled.h"
#include "util/json.h"
#include "util/seed.h"

namespace ppn {

std::string runOutcomeJsonl(const RunOutcome& out, std::uint64_t runId) {
  JsonWriter w;
  w.beginObject();
  w.key("event").value("run_outcome");
  w.key("runId").value(runId);
  w.key("silent").value(out.silent);
  w.key("named").value(out.namingSolved);
  w.key("timedOut").value(out.timedOut);
  w.key("cancelled").value(out.cancelled);
  w.key("convergenceInteractions").value(out.convergenceInteractions);
  w.key("totalInteractions").value(out.totalInteractions);
  w.key("nonNullInteractions").value(out.nonNullInteractions);
  w.key("numMobile").value(out.numMobile);
  w.key("parallelTime").value(out.parallelTime());
  w.endObject();
  return w.str();
}

BatchEngine::BatchEngine(BatchEngineOptions options) : options_(options) {
  const std::uint32_t workers =
      options.threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                           : options.threads;
  workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

BatchEngine::~BatchEngine() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
    stopping_ = true;
  }
  queueCv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void BatchEngine::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++inFlight_;
    }
    task();  // tasks capture their own exceptions; never throws
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --inFlight_;
      if (queue_.empty() && inFlight_ == 0) idleCv_.notify_all();
    }
  }
}

void BatchEngine::enqueue(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  // Wake every idle worker, not one: with glibc's condition variables a
  // single notify_one can be lost (sourceware bug 25847), which would strand
  // the task behind sleeping workers until the next enqueue. Workers that
  // find the queue empty go back to sleep.
  queueCv_.notify_all();
}

void BatchEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
}

std::shared_ptr<BatchEngine::Job> BatchEngine::submit(const Protocol& proto,
                                                      const BatchSpec& spec,
                                                      JsonlLineSink sink) {
  LaneJobSpec jspec;
  jspec.sched = spec.sched;
  jspec.limits = spec.limits;
  jspec.observer = spec.observer;
  jspec.recorder = spec.recorder;
  jspec.compiled = spec.compiled;

  // The exact runBatch derivation (util/seed.h): run r's start configuration
  // is built from pre-split generator r, then the scheduler seed is that
  // generator's next draw. Doing it here, sequentially, keeps the contract
  // that no outcome depends on pool size or block interleaving — and means a
  // throwing arbitraryConfiguration surfaces from submit() itself.
  std::vector<Rng> runRngs = splitRunRngs(spec.seed, spec.runs);
  std::vector<LanePlan> plans;
  plans.reserve(spec.runs);
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    Rng runRng = runRngs[r];
    LanePlan plan;
    plan.start = spec.init == InitKind::kUniform
                     ? uniformConfiguration(proto, spec.numMobile)
                     : arbitraryConfiguration(proto, spec.numMobile, runRng);
    plan.schedSeed = runRng.next();
    plan.runId = spec.runIdBase + r;
    plans.push_back(std::move(plan));
  }
  return submitLanes(proto, std::move(plans), jspec, std::move(sink));
}

std::shared_ptr<BatchEngine::Job> BatchEngine::submitLanes(
    const Protocol& proto, std::vector<LanePlan> plans,
    const LaneJobSpec& spec, JsonlLineSink sink) {
  auto job = std::make_shared<Job>();
  job->proto = &proto;
  job->spec = spec;
  job->sink = std::move(sink);
  job->plans = std::move(plans);
  const auto runs = static_cast<std::uint32_t>(job->plans.size());
  for (const LanePlan& plan : job->plans) {
    if (plan.start.numMobile() != job->plans[0].start.numMobile()) {
      throw std::invalid_argument(
          "BatchEngine: lane plans must share one population size");
    }
  }
  job->outcomes_.resize(runs);
  job->runDone_.assign(runs, false);
  if (spec.compiled && CompiledProtocol::compilable(proto)) {
    try {
      job->compiled = std::make_shared<CompiledProtocol>(proto);
    } catch (const std::invalid_argument&) {
      job->compiled.reset();  // outside the envelope: scalar path, same bits
    }
  }
  if (runs == 0) {
    job->finished_ = true;
    return job;
  }
  const std::uint32_t blockSize = std::max(1u, options_.lanesPerTask);
  job->pendingTasks_ = (runs + blockSize - 1) / blockSize;
  for (std::uint32_t lo = 0; lo < runs; lo += blockSize) {
    const std::uint32_t hi = std::min(runs, lo + blockSize);
    enqueue([this, job, lo, hi] { runBlock(job, lo, hi); });
  }
  return job;
}

// Runs plans [lo, hi) one after another, each on its own Engine exactly as a
// runBatch worker would (compiled when the job's protocol compiles, flight
// recorder attached when the job has one), so every outcome is bit-identical
// to the scalar drivers whatever the block size.
void BatchEngine::runBlock(const std::shared_ptr<Job>& job, std::uint32_t lo,
                           std::uint32_t hi) {
  std::vector<RunOutcome> block(hi - lo);
  if (!job->cancel_.load(std::memory_order_relaxed)) {
    try {
      for (std::uint32_t r = lo; r < hi; ++r) {
        if (job->cancel_.load(std::memory_order_relaxed)) break;
        Engine engine(*job->proto, std::move(job->plans[r].start));
        if (job->compiled != nullptr) {
          engine.attachCompiled(job->compiled.get());
        }
        auto sched = makeScheduler(job->spec.sched, engine.numParticipants(),
                                   job->plans[r].schedSeed);
        engine.attachObserver(job->spec.observer, job->plans[r].runId);
        block[r - lo] = runUntilSilent(engine, *sched, job->spec.limits,
                                       &job->cancel_, job->spec.observer,
                                       job->plans[r].runId, job->spec.recorder);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job->mutex_);
        // Keep the error of the lowest block so the rethrown exception is
        // deterministic regardless of worker interleaving.
        if (lo < job->errorRun_) {
          job->errorRun_ = lo;
          job->error_ = std::current_exception();
        }
      }
      job->cancel_.store(true, std::memory_order_relaxed);
    }
  }
  finishBlock(job, lo, hi, std::move(block));
}

void BatchEngine::finishBlock(const std::shared_ptr<Job>& job, std::uint32_t lo,
                              std::uint32_t hi, std::vector<RunOutcome> block) {
  std::unique_lock<std::mutex> lock(job->mutex_);
  const bool ranCleanly = job->error_ == nullptr || job->errorRun_ > lo;
  for (std::uint32_t r = lo; r < hi; ++r) {
    job->outcomes_[r] = std::move(block[r - lo]);
    job->runDone_[r] = true;
  }
  // Batch progress mirrors runBatch: one event per completed run. Blocks
  // skipped by cancellation or killed by an exception report no progress,
  // like the scalar workers they replace. Lane telemetry rides along:
  // lanesLive counts runs not yet completed and lanesRetired the completed
  // runs that reached silence — both derived from outcomes under the job
  // lock, so the enriched stream stays deterministic for any pool size or
  // block interleaving.
  if (job->spec.observer != nullptr && ranCleanly &&
      !job->cancel_.load(std::memory_order_relaxed)) {
    const auto total = static_cast<std::uint32_t>(job->plans.size());
    for (std::uint32_t r = lo; r < hi; ++r) {
      if (job->outcomes_[r].timedOut) ++job->progressDegraded_;
      if (job->outcomes_[r].silent) ++job->progressRetired_;
      ++job->progressCompleted_;
      job->spec.observer->onBatchProgress(BatchProgressEvent{
          job->progressCompleted_, total, job->progressDegraded_,
          total - job->progressCompleted_, job->progressRetired_});
    }
  }
  if (job->sink) {
    while (job->nextEmit_ < job->outcomes_.size() &&
           job->runDone_[job->nextEmit_]) {
      job->sink(runOutcomeJsonl(job->outcomes_[job->nextEmit_],
                                job->plans[job->nextEmit_].runId));
      ++job->nextEmit_;
    }
  }
  if (--job->pendingTasks_ == 0) {
    job->finished_ = true;
    lock.unlock();
    job->cv_.notify_all();
  }
}

BatchResult BatchEngine::Job::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return finished_; });
  if (error_ != nullptr) std::rethrow_exception(error_);
  return summarizeBatch(outcomes_);
}

bool BatchEngine::Job::done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

void BatchEngine::parallelFor(
    std::uint32_t count,
    const std::function<void(std::uint32_t, CancelToken&)>& fn) {
  if (count == 0) return;
  struct State {
    std::atomic<std::uint32_t> nextIndex{0};
    CancelToken cancel{false};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::uint32_t errorIndex = std::numeric_limits<std::uint32_t>::max();
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  const std::uint32_t loops = std::min(threads(), count);
  state->pending = loops;

  // Same index-pulling loop as parallelRunIndexed, running as `loops` queued
  // tasks on this pool instead of ad-hoc threads: one long-lived queue
  // instead of per-call thread churn, and fair FIFO interleaving with any
  // batch jobs in flight. `fn` outlives the tasks because this caller blocks
  // below until all of them retire.
  auto work = [state, count, &fn]() {
    for (;;) {
      const std::uint32_t i =
          state->nextIndex.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      if (state->cancel.load(std::memory_order_relaxed)) break;
      try {
        fn(i, state->cancel);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(state->mutex);
          if (i < state->errorIndex) {
            state->errorIndex = i;
            state->error = std::current_exception();
          }
        }
        state->cancel.store(true, std::memory_order_relaxed);
        break;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      --state->pending;
    }
    state->cv.notify_all();
  };
  for (std::uint32_t w = 0; w < loops; ++w) enqueue(work);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state] { return state->pending == 0; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

}  // namespace ppn
