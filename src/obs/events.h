// JSONL event sink: streams one JSON object per line for every probe event.
//
// Schema (documented in EXPERIMENTS.md, E20): every line is an object with
// an "event" discriminator and an "elapsed_ms" timestamp (milliseconds since
// the sink was created, steady clock):
//   run_start       {run, num_mobile, num_participants}
//   run_end         {run, silent, named, timed_out, cancelled,
//                    convergence_interactions, total_interactions, wall_millis}
//   fault_injected  {run, at, target: "mobile"|"leader", agent}
//   watchdog_abort  {run, at, budget_millis}
//   cancelled       {run, at}
//   batch_progress  {completed, total, degraded, lanes_live, lanes_retired}
//                   (the lane fields are 0/absent-semantics for runBatch;
//                   the batch engine reports runs not yet completed and
//                   cumulative silence retirements per completed block)
//
// The sink also implements ExploreObserver (obs/explore_observer.h), so one
// file carries both simulation and analysis telemetry (E22):
//   explore_progress  {explore, nodes, frontier, edges, dedup_hits,
//                      bytes_estimate, nodes_per_sec, expand_ms, dedup_ms,
//                      append_ms, io_ms, expand_nodes_per_sec,
//                      dedup_nodes_per_sec, done} (per-phase loop timing so
//                      dedup-bound levels are distinguishable from
//                      expand-bound ones)
//   phase_start       {explore, phase}
//   phase_end         {explore, phase, wall_millis}
//   explore_truncated {explore, nodes, max_nodes, frontier_size, max_bytes,
//                      bytes_at_cut, by_budget}
//   search_progress   {search, examined, total, solvers, unknown,
//                      candidates_per_sec, done}
//   memory_sample     {explore, configs_bytes, adjacency_bytes, dedup_bytes,
//                      frontier_bytes, codec_bytes, total_bytes,
//                      high_water_bytes, spill_bytes, spill_runs, rss_bytes,
//                      done} (E27: the MemoryLedger's attributed footprint;
//                      spill_bytes/spill_runs are the on-disk dedup tier,
//                      outside total_bytes; rss_bytes is the
//                      resource_sampler self-sample for drift checks, 0 when
//                      /proc was unreadable)
//
// Silence checks are deliberately NOT streamed (they fire every
// checkInterval interactions and would dwarf everything else); count them
// with a MetricsRunObserver instead. The explore_truncated line records the
// frontier SIZE only — the full node-id snapshot stays with in-process
// consumers (ExploreTruncatedEvent::frontier), since serialized frontiers of
// multi-million-node graphs would dominate the stream.
//
// batch_progress events arrive once per completed run; the sink throttles
// them to at most one per `progressIntervalMillis` (the batch-final event,
// completed == total, is always written).
//
// The sink additionally carries the campaign-orchestration event family
// (E24, emitted by src/campaign/orchestrator.* — not part of any probe
// interface, the orchestrator owns its sink and calls these directly):
//   campaign_start {units, shards, workers, resumed}
//   shard_spawn    {shard, pid, spawn}
//   shard_exit     {shard, pid, code, signal}
//   unit_start     {unit, shard, attempt}
//   unit_end       {unit, shard, attempt, status}       status: ok|degraded|failed
//   unit_retry     {unit, shard, attempt, backoff_ms, reason}
//   unit_failed    {unit, shard, attempts, reason}
//   resource_sample {shard, pid, rss_bytes, vsize_bytes, utime_ms, stime_ms,
//                    cpu_permille, read_bytes, write_bytes} (E25: the
//                    orchestrator's /proc poll of a live shard; io fields are
//                    0 when /proc/<pid>/io was unreadable)
//   campaign_end   {completed, failed, total, interrupted}
//
// Durability (E24): a path-constructed sink writes to `path + ".tmp"` and
// atomically renames onto `path` on close (or destruction), so a consumer
// never observes a torn final artifact — a crash leaves only the .tmp behind.
// For reading back append-only JSONL written by a process that may have been
// killed mid-write (shard checkpoints, orphaned .tmp files), use
// readJsonlTolerant: it accepts a torn FINAL line (the crash signature) while
// still rejecting interior corruption.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/explore_observer.h"
#include "obs/observer.h"
#include "obs/resource_sampler.h"

namespace ppn {

class JsonlEventSink final : public RunObserver, public ExploreObserver {
 public:
  /// Opens `path + ".tmp"` for writing (truncating) and renames onto `path`
  /// on close(); throws std::runtime_error on failure so a bad --events-out
  /// flag fails fast instead of silently dropping telemetry. Pass
  /// `atomicRename = false` to write `path` directly (pre-E24 behavior: a
  /// crash leaves a partial file at the final path).
  explicit JsonlEventSink(const std::string& path,
                          std::uint64_t progressIntervalMillis = 500,
                          bool atomicRename = true);

  /// Non-owning: writes to `out` (tests, stdout). Defaults to writing every
  /// batch_progress event so tests see them all.
  explicit JsonlEventSink(std::ostream& out,
                          std::uint64_t progressIntervalMillis = 0);

  ~JsonlEventSink() override;

  void onRunStart(const RunStartEvent& e) override;
  void onRunEnd(const RunEndEvent& e) override;
  void onWatchdogAbort(const WatchdogAbortEvent& e) override;
  void onCancelled(const CancelledEvent& e) override;
  void onFaultInjected(const FaultInjectedEvent& e) override;
  void onBatchProgress(const BatchProgressEvent& e) override;

  void onExploreProgress(const ExploreProgressEvent& e) override;
  void onPhaseStart(const ExplorePhaseStartEvent& e) override;
  void onPhaseEnd(const ExplorePhaseEndEvent& e) override;
  void onTruncated(const ExploreTruncatedEvent& e) override;
  void onSearchProgress(const SearchProgressEvent& e) override;
  void onMemorySample(const MemorySampleEvent& e) override;

  // Campaign-orchestration events (schema above; called directly by the
  // orchestrator, which owns its sink — no probe interface involved).
  void onCampaignStart(std::uint64_t units, std::uint32_t shards,
                       std::uint32_t workers, bool resumed);
  void onShardSpawn(std::uint32_t shard, std::int64_t pid, std::uint64_t spawn);
  void onShardExit(std::uint32_t shard, std::int64_t pid, int code, int signal);
  void onUnitStart(std::uint64_t unit, std::uint32_t shard,
                   std::uint32_t attempt);
  void onUnitEnd(std::uint64_t unit, std::uint32_t shard, std::uint32_t attempt,
                 const std::string& status);
  void onUnitRetry(std::uint64_t unit, std::uint32_t shard,
                   std::uint32_t attempt, std::uint64_t backoffMillis,
                   const std::string& reason);
  void onUnitFailed(std::uint64_t unit, std::uint32_t shard,
                    std::uint32_t attempts, const std::string& reason);
  void onResourceSample(std::uint32_t shard, const ResourceSample& sample);
  void onCampaignEnd(std::uint64_t completed, std::uint64_t failed,
                     std::uint64_t total, bool interrupted);

  /// Flushes the underlying stream (also done on destruction).
  void flush();

  /// Flush after every line (checkpoint-grade durability: a SIGKILLed writer
  /// loses at most the line being written, which readJsonlTolerant drops).
  /// Off by default — per-line flushing is measurable on chatty run streams;
  /// shard event streams, which write one burst per unit, enable it.
  void setFlushEveryLine(bool flushEveryLine);

  /// Flushes and — for an atomic path sink — renames the temp file onto the
  /// final path. Idempotent; called by the destructor. Returns false when the
  /// rename failed (the data survives at `path + ".tmp"`).
  bool close();

 private:
  std::uint64_t elapsedMillis() const;
  void writeLine(const std::string& line);

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::mutex mu_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t progressIntervalMillis_;
  std::uint64_t lastProgressMillis_ = 0;
  bool anyProgressWritten_ = false;
  bool flushEveryLine_ = false;
  std::string finalPath_;  ///< empty for stream sinks or after close()
  std::string tmpPath_;
};

/// Result of a tolerant JSONL read (see header note).
struct JsonlReadResult {
  /// Complete, syntactically valid JSON lines, in file order (no newlines).
  std::vector<std::string> lines;
  /// True when a torn final line (no terminating newline, or invalid JSON on
  /// the last line) was dropped — the signature of a crash mid-write.
  bool torn = false;
};

/// Reads a JSONL file, dropping a torn FINAL line instead of failing the
/// whole file. Throws std::runtime_error when the file cannot be opened, when
/// an interior line is blank or fails to parse (real corruption, not a torn
/// write), or when more than the final line is damaged.
///
/// Line-ending contract (pinned by EventsTest regressions):
///  * CRLF endings are accepted anywhere — the trailing '\r' is stripped
///    before validation and from the returned line, so a stream that passed
///    through a CRLF-translating transport still parses, byte-identically to
///    its LF twin;
///  * a final line with NO trailing newline is always dropped as torn, even
///    when its content happens to be valid JSON: a flushed-per-line writer
///    always terminates lines, so a missing terminator IS the crash
///    signature, and keeping the line would double-count a unit whose write
///    raced the kill.
JsonlReadResult readJsonlTolerant(const std::string& path);

}  // namespace ppn
