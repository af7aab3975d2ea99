// Extended evaluation E18: exact expected convergence times (Markov-chain
// solve) vs simulated means — removing all sampling noise from the
// time-space story at small instances, and validating the simulator
// quantitatively (the two columns must agree to within sampling error).
//
//   ./exact_vs_simulated [--runs 512] [--csv] [--threads K]
//                        [--events-out events.jsonl] [--trace-out trace.json]
//
// Telemetry (E22): --events-out streams one run_start/run_end JSONL pair per
// simulation run; --trace-out renders the same runs as a Chrome trace_event
// timeline (chrome://tracing). Absent flags leave the runs unobserved.
// Simulation runs go through one BatchEngine (sim/batch_engine.h): each row
// is a job of fixed-start runs spread over --threads K workers (0 = hardware
// concurrency). Per-run seeds are pre-drawn sequentially and samples are
// collected by run index, so every statistic is bit-identical for any K.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "analysis/hitting_time.h"
#include "core/engine.h"
#include "naming/color_example.h"
#include "naming/registry.h"
#include "obs/events.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "sim/batch_engine.h"
#include "sim/runner.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "util/seed.h"
#include "util/table.h"

namespace {

using namespace ppn;

Summary simulate(BatchEngine& engine, const Protocol& proto,
                 const Configuration& start, std::uint32_t runs,
                 std::uint64_t seed, RunObserver* observer,
                 std::uint64_t runIdBase) {
  // Thin client of the batch engine: every row's runs share one fixed start
  // configuration, so they are submitted as explicit lane plans (seeds drawn
  // sequentially up front, util/seed.h) and the engine's workers run them.
  // Samples are collected by run index from the job's outcomes, so the
  // summary is bit-identical for any worker count. The JSONL/trace observers
  // are internally synchronized; only the event interleaving across runs
  // varies with pool size.
  const std::vector<std::uint64_t> seeds = drawRunSeeds(seed, runs);
  std::vector<LanePlan> plans(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    plans[r].start = start;
    plans[r].schedSeed = seeds[r];
    plans[r].runId = runIdBase + r;
  }
  LaneJobSpec spec;
  spec.sched = SchedulerKind::kRandom;
  spec.limits = RunLimits{50'000'000, 1};
  spec.observer = observer;
  auto job = engine.submitLanes(proto, std::move(plans), spec);
  job->wait();
  std::vector<double> samples;
  samples.reserve(runs);
  for (const RunOutcome& out : job->outcomes()) {
    if (out.silent) {
      samples.push_back(static_cast<double>(out.convergenceInteractions));
    }
  }
  return summarize(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("exact_vs_simulated", "Markov-exact convergence vs simulation");
  const auto* runs = cli.addUint("runs", "simulation runs per row", 512);
  const auto* csv = cli.addFlag("csv", "emit CSV");
  const auto* eventsOut = cli.addString(
      "events-out", "stream JSONL run events to this file", "");
  const auto* traceOut = cli.addString(
      "trace-out", "write a Chrome trace_event timeline to this file", "");
  const auto* threads =
      cli.addUint("threads", "simulation worker threads (0 = all cores)", 1);
  if (!cli.parse(argc, argv)) return 1;

  // One engine (one pool, one queue) serves every row's job in turn.
  BatchEngine engine(
      BatchEngineOptions{static_cast<std::uint32_t>(*threads), 256});

  std::unique_ptr<JsonlEventSink> sink;
  std::unique_ptr<ChromeTraceWriter> traceWriter;
  std::unique_ptr<ChromeTraceObserver> traceProbe;
  MultiObserver observers;
  try {
    if (!eventsOut->empty()) {
      sink = std::make_unique<JsonlEventSink>(*eventsOut);
      observers.add(sink.get());
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "exact_vs_simulated: %s\n", e.what());
    return 1;
  }
  if (!traceOut->empty()) {
    traceWriter = std::make_unique<ChromeTraceWriter>();
    traceProbe = std::make_unique<ChromeTraceObserver>(*traceWriter);
    observers.add(traceProbe.get());
  }
  RunObserver* observer = observers.empty() ? nullptr : &observers;

  struct Row {
    std::string label;
    std::unique_ptr<Protocol> proto;
    Configuration start;
  };
  std::vector<Row> rows;
  {
    auto proto = std::make_unique<ColorExample>();
    rows.push_back({"color example [B,W,W]", std::move(proto),
                    Configuration{{1, 0, 0}, std::nullopt}});
  }
  for (const StateId p : {3u, 4u, 5u}) {
    auto proto = makeProtocol("asymmetric", p);
    Configuration start;
    start.mobile.assign(p, 0);
    rows.push_back({"asymmetric all-homonym N=P=" + std::to_string(p),
                    std::move(proto), std::move(start)});
  }
  for (const StateId p : {3u, 4u}) {
    auto proto = makeProtocol("leader-uniform", p);
    Configuration start = uniformConfiguration(*proto, p);
    rows.push_back({"leader-uniform N=P=" + std::to_string(p),
                    std::move(proto), std::move(start)});
  }
  for (const StateId p : {2u, 3u}) {
    auto proto = makeProtocol("selfstab-weak", p);
    Configuration start;
    start.mobile.assign(p, 0);
    start.leader = LeaderStateId{0};
    rows.push_back({"selfstab-weak all-sink N=P=" + std::to_string(p),
                    std::move(proto), std::move(start)});
  }
  for (const StateId p : {2u, 3u}) {
    auto proto = makeProtocol("global-leader", p);
    Configuration start;
    start.mobile.assign(p, 1 % p);
    start.leader = *proto->initialLeaderState();
    rows.push_back({"global-leader homonyms N=P=" + std::to_string(p),
                    std::move(proto), std::move(start)});
  }

  Table table({"instance", "chain states", "exact E[interactions]",
               "simulated mean", "simulated sd", "agreement"});
  bool ok = true;
  std::uint64_t runIdBase = 0;
  for (const auto& row : rows) {
    const HittingTime h = expectedConvergenceTime(*row.proto, row.start, 4000);
    if (!h.computed || h.diverges) {
      table.row().cell(row.label).cell(h.numStates).cell(
          h.diverges ? "infinite" : "n/a").cell("-").cell("-").cell(h.reason);
      continue;
    }
    const Summary s =
        simulate(engine, *row.proto, row.start,
                 static_cast<std::uint32_t>(*runs), 7, observer, runIdBase);
    runIdBase += *runs;
    const double stderrMean =
        s.count > 1 ? s.stddev / std::sqrt(static_cast<double>(s.count)) : 0.0;
    const bool agrees =
        std::fabs(s.mean - h.expectedInteractions) <= 5.0 * stderrMean + 1e-9;
    ok = ok && agrees;
    table.row()
        .cell(row.label)
        .cell(h.numStates)
        .cell(h.expectedInteractions, 3)
        .cell(s.mean, 3)
        .cell(s.stddev, 2)
        .cell(agrees ? "within 5 SE" : "MISMATCH");
  }

  std::printf("E18: exact Markov-chain expectations vs simulation\n\n");
  std::fputs((*csv ? table.renderCsv() : table.render()).c_str(), stdout);
  std::printf("\nsimulator agrees with exact values: %s\n", ok ? "PASS" : "FAIL");

  if (sink) sink->flush();
  if (traceWriter && !traceWriter->writeToFile(*traceOut)) {
    std::fprintf(stderr, "exact_vs_simulated: cannot write '%s'\n",
                 traceOut->c_str());
    return 1;
  }
  return ok ? 0 : 2;
}
