// Observability probe interface (the telemetry layer's contract).
//
// A RunObserver receives structured events from the simulation substrate:
// the runner (run start/end, silence checks, watchdog fires, cancellations,
// batch progress) and the engine (fault injections via corruptMobile /
// corruptLeader, which is the single choke point every fault regime goes
// through). Everything is opt-in: observers are plumbed as nullable pointers
// and every hook site is a single branch, so an unobserved run pays nothing
// but that branch — the engine's hot step() path carries no hook at all.
//
// Threading contract: batch drivers invoke observer hooks concurrently from
// worker threads. Every RunObserver implementation shipped here
// (JsonlEventSink, ProgressReporter, MetricsRunObserver, MultiObserver) is
// thread-safe; custom observers must be too when used with threads > 1.
//
// Event identity: `runId` is assigned by the batch driver (batch index plus
// the spec's runIdBase). Sweeps that chain several batches (certifyRecovery,
// convergence_sweep) advance the base between batches so ids stay unique
// across the whole sweep and run_start/run_end events pair up one-to-one.
#pragma once

#include <cstdint>
#include <vector>

namespace ppn {

struct RunStartEvent {
  std::uint64_t runId = 0;
  std::uint32_t numMobile = 0;
  std::uint32_t numParticipants = 0;
};

struct RunEndEvent {
  std::uint64_t runId = 0;
  bool silent = false;     ///< reached a terminal configuration
  bool named = false;      ///< silent with distinct valid names
  bool timedOut = false;   ///< aborted by the wall-clock watchdog
  bool cancelled = false;  ///< aborted via the batch CancelToken
  std::uint64_t convergenceInteractions = 0;
  std::uint64_t totalInteractions = 0;
  double wallMillis = 0.0;  ///< wall-clock duration of the run (observer view)
};

struct SilenceCheckEvent {
  std::uint64_t runId = 0;
  std::uint64_t interactions = 0;  ///< engine interaction count at the poll
  bool silent = false;
};

struct WatchdogAbortEvent {
  std::uint64_t runId = 0;
  std::uint64_t interactions = 0;
  std::uint64_t budgetMillis = 0;  ///< the RunLimits.maxWallMillis that fired
};

struct CancelledEvent {
  std::uint64_t runId = 0;
  std::uint64_t interactions = 0;
};

enum class FaultTarget { kMobile, kLeader };

struct FaultInjectedEvent {
  std::uint64_t runId = 0;
  std::uint64_t interactions = 0;  ///< interaction index of the injection
  FaultTarget target = FaultTarget::kMobile;
  std::uint32_t agent = 0;  ///< victim agent id (0 for leader faults)
};

struct BatchProgressEvent {
  std::uint32_t completed = 0;  ///< runs finished so far in this batch
  std::uint32_t total = 0;      ///< runs the batch will execute
  std::uint32_t degraded = 0;   ///< completed runs aborted by the watchdog
  /// Batch-engine telemetry (sim/batch_engine.h): runs of the job not yet
  /// completed vs. completed runs that reached silence. runBatch leaves
  /// both 0.
  std::uint32_t lanesLive = 0;
  std::uint32_t lanesRetired = 0;
};

/// Base class with no-op defaults: implementations override only the hooks
/// they care about. All hooks may be called concurrently (see header note).
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  virtual void onRunStart(const RunStartEvent&) {}
  virtual void onRunEnd(const RunEndEvent&) {}
  virtual void onSilenceCheck(const SilenceCheckEvent&) {}
  virtual void onWatchdogAbort(const WatchdogAbortEvent&) {}
  virtual void onCancelled(const CancelledEvent&) {}
  virtual void onFaultInjected(const FaultInjectedEvent&) {}
  virtual void onBatchProgress(const BatchProgressEvent&) {}
};

/// Fan-out to several observers (e.g. JSONL sink + metrics + progress).
/// Observers are not owned and must outlive the MultiObserver; add() is not
/// thread-safe and must finish before the batch starts.
class MultiObserver final : public RunObserver {
 public:
  MultiObserver() = default;
  void add(RunObserver* obs) {
    if (obs != nullptr) observers_.push_back(obs);
  }
  bool empty() const { return observers_.empty(); }

  void onRunStart(const RunStartEvent& e) override {
    for (auto* o : observers_) o->onRunStart(e);
  }
  void onRunEnd(const RunEndEvent& e) override {
    for (auto* o : observers_) o->onRunEnd(e);
  }
  void onSilenceCheck(const SilenceCheckEvent& e) override {
    for (auto* o : observers_) o->onSilenceCheck(e);
  }
  void onWatchdogAbort(const WatchdogAbortEvent& e) override {
    for (auto* o : observers_) o->onWatchdogAbort(e);
  }
  void onCancelled(const CancelledEvent& e) override {
    for (auto* o : observers_) o->onCancelled(e);
  }
  void onFaultInjected(const FaultInjectedEvent& e) override {
    for (auto* o : observers_) o->onFaultInjected(e);
  }
  void onBatchProgress(const BatchProgressEvent& e) override {
    for (auto* o : observers_) o->onBatchProgress(e);
  }

 private:
  std::vector<RunObserver*> observers_;
};

}  // namespace ppn
