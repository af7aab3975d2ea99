// In-memory span recording for the traced pass.
//
// Two sources feed one span list:
//  * direct calls the driver makes into a layer (open()/close() around
//    searchUniformNaming, exploreCanonical, certifyRecovery, ...), timed
//    from outside on the driver's thread;
//  * the library's own events, received through the existing observer
//    interfaces: ExploreObserver phase start/end pairs (keyed by exploreId
//    or searchId) and RunObserver run start/end pairs (keyed by runId).
//
// A phase span's parent is the innermost open phase on the same thread, or
// else the innermost open direct call; a run span's parent is the innermost
// open direct call. Spans stay in memory until the pass ends; the driver
// then aggregates them (selfSecondsByLayer) and may write them out.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/explore_observer.h"
#include "obs/observer.h"

namespace perfbench {

using Nanos = std::int64_t;

/// steady_clock, in nanoseconds.
Nanos nowNanos();

enum class SpanSource : std::uint8_t { kCall, kPhase, kRun };

/// One traced interval. `layer` is the module the time belongs to; `kind`
/// is the call or phase name. Both point at string literals (the library's
/// phase names are literals as well).
struct Span {
  const char* layer = "";
  const char* kind = "";
  SpanSource source = SpanSource::kCall;
  std::uint64_t id = 0;  ///< exploreId / searchId / runId / call id
  Nanos begin = 0;
  Nanos end = 0;
  std::int64_t parent = -1;  ///< index into the span list; -1 = root
};

/// Self time by layer, in seconds: each span's interval minus the union of
/// its children's intervals (clipped to the span), and per layer the union
/// of those self intervals — so runs advanced in lockstep, or one layer busy
/// on several threads at once, count once. The sum over layers is then at
/// most the wall time the spans cover.
std::map<std::string, double> selfSecondsByLayer(const std::vector<Span>& spans);

/// Wall time, in seconds, covered by at least one span the library itself
/// reported (phase or run spans; direct calls left out). Divided by a
/// pass's wall time it shows how much of the pass the library's own events
/// explain: a call's time outside any phase or run does not count.
double eventCoveredSeconds(const std::vector<Span>& spans);

/// The layer a library phase belongs to ("explore" -> explore, "check" and
/// "verdict" -> checker, ...).
const char* phaseLayer(const char* phase);

/// Writes the spans as JSON lines (one object per span, parent by index).
void writeSpansJsonl(const std::vector<Span>& spans, std::ostream& out);

/// Totals the explore layer reports through its own events (final
/// ExploreProgressEvent per exploration, MemorySampleEvents).
struct ExploreEventTotals {
  std::uint64_t explorations = 0;  ///< explorations with a final event
  std::uint64_t nodes = 0;
  std::uint64_t dedupHits = 0;
  double expandMillis = 0.0;
  double dedupMillis = 0.0;
  double appendMillis = 0.0;
  double ioMillis = 0.0;
  std::uint64_t ledgerPeakBytes = 0;  ///< largest high-water mark seen
  std::uint64_t spillRuns = 0;        ///< per-exploration peak runs, summed
};

/// Records spans and event counters for one pass. Thread-safe: the library
/// delivers events from worker threads.
class Tracer final : public ppn::ExploreObserver, public ppn::RunObserver {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Direct call into `layer`, opened and closed on the driver's thread.
  std::size_t open(const char* layer, std::uint64_t id);
  void close(std::size_t span);

  void onPhaseStart(const ppn::ExplorePhaseStartEvent& e) override;
  void onPhaseEnd(const ppn::ExplorePhaseEndEvent& e) override;
  void onExploreProgress(const ppn::ExploreProgressEvent& e) override;
  void onMemorySample(const ppn::MemorySampleEvent& e) override;
  void onRunStart(const ppn::RunStartEvent& e) override;
  void onRunEnd(const ppn::RunEndEvent& e) override;
  void onSilenceCheck(const ppn::SilenceCheckEvent& e) override;

  /// Read after the pass, when no library call is running.
  const std::vector<Span>& spans() const { return spans_; }
  const ExploreEventTotals& exploreTotals() const { return explore_; }
  std::uint64_t silenceChecks() const { return silenceChecks_.load(); }
  std::uint64_t silenceHits() const { return silenceHits_.load(); }

 private:
  std::int64_t parentFor(std::thread::id thread) const;

  std::mutex mu_;  // guards the members down to explore_
  std::vector<Span> spans_;
  std::vector<std::size_t> calls_;  ///< open direct calls, innermost last
  std::unordered_map<std::thread::id, std::vector<std::size_t>> phases_;
  std::unordered_map<std::uint64_t, std::size_t> runs_;  ///< open run spans
  std::unordered_map<std::uint64_t, std::uint64_t> spillRunsById_;
  ExploreEventTotals explore_;
  // Silence polls arrive once per check interval from every worker; plain
  // counters keep them off the lock.
  std::atomic<std::uint64_t> silenceChecks_{0};
  std::atomic<std::uint64_t> silenceHits_{0};
};

}  // namespace perfbench
