// E12: engineering microbenchmarks (google-benchmark).
//
// Measures the simulation substrate itself: raw interaction throughput per
// protocol, scheduler overhead, silence-detection cost, and model-checker
// throughput — the numbers that bound how large an experiment the harness
// can run. The telemetry additions (E20) measure the observability layer:
// metrics-registry counter/histogram hot paths and observed-vs-unobserved
// runUntilSilent, so the "< 2% on the hot loop" budget stays checkable.
//
// A custom main() (instead of benchmark_main) accepts repo-specific flags
// in --flag=value form before delegating the rest to google-benchmark:
//   ./micro_bench [--events-out=run.jsonl] [--metrics-out=metrics.json]
//                 [--step-throughput-out=report.json]
//                 [--explore-throughput-out=report.json]
//                 [--batch-throughput-out=report.json]
//                 [--memory-profile-out=report.json]
//                 [google-benchmark flags...]
// With the telemetry flags set it runs a small observed sample batch after
// the benchmarks, streaming its JSONL events and dumping the metrics
// snapshot. --step-throughput-out runs the E21 interpreted-vs-compiled
// experiment INSTEAD of the benchmarks and writes the JSON report consumed
// by .github/scripts/check_bench.py (see EXPERIMENTS.md E21);
// --explore-throughput-out does the same for the E23 parallel-exploration
// and parallel-search experiment (EXPERIMENTS.md E23),
// --batch-throughput-out for the E26 batch-engine vs runBatch throughput
// experiment (EXPERIMENTS.md E26), and --memory-profile-out for the E27
// exploration memory profile (per-component bytes/node across the registry,
// plus a fresh-heap ledger-vs-RSS drift probe; EXPERIMENTS.md E27).
#include <benchmark/benchmark.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/explore.h"
#include "analysis/global_checker.h"
#include "analysis/initial_sets.h"
#include "analysis/protocol_search.h"
#include "analysis/weak_checker.h"
#include "core/compiled.h"
#include "core/engine.h"
#include "naming/registry.h"
#include "obs/events.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/resource_sampler.h"
#include "sched/deterministic_schedulers.h"
#include "sched/random_scheduler.h"
#include "sim/batch_engine.h"
#include "sim/runner.h"
#include "util/json.h"
#include "util/seed.h"

namespace {

using namespace ppn;

void BM_SchedulerNext(benchmark::State& state, SchedulerKind kind) {
  auto sched = makeScheduler(kind, 64, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->next());
  }
}
BENCHMARK_CAPTURE(BM_SchedulerNext, random, SchedulerKind::kRandom);
BENCHMARK_CAPTURE(BM_SchedulerNext, skewed, SchedulerKind::kSkewed);
BENCHMARK_CAPTURE(BM_SchedulerNext, round_robin, SchedulerKind::kRoundRobin);
BENCHMARK_CAPTURE(BM_SchedulerNext, tournament, SchedulerKind::kTournament);

void BM_StepThroughput(benchmark::State& state, const char* key) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol(key, static_cast<StateId>(n));
  Rng rng(7);
  Engine engine(*proto, key == std::string("leader-uniform")
                            ? uniformConfiguration(*proto, n)
                            : arbitraryConfiguration(*proto, n, rng));
  RandomScheduler sched(engine.numParticipants(), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(sched.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_StepThroughput, asymmetric, "asymmetric")->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_StepThroughput, selfstab_weak, "selfstab-weak")->Arg(12);
BENCHMARK_CAPTURE(BM_StepThroughput, global_leader, "global-leader")->Arg(12);
BENCHMARK_CAPTURE(BM_StepThroughput, leader_uniform, "leader-uniform")->Arg(256);

// --- E21: compiled fast path (core/compiled.h) ------------------------------

// Per-interaction cost with the flat tables attached. Compare against the
// same-key BM_StepThroughput rows: the delta is the virtual-dispatch +
// bounds-checking overhead the compilation removes from a single step().
void BM_CompiledStepThroughput(benchmark::State& state, const char* key) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol(key, static_cast<StateId>(n));
  const CompiledProtocol compiled(*proto);
  Rng rng(7);
  Engine engine(*proto, key == std::string("leader-uniform")
                            ? uniformConfiguration(*proto, n)
                            : arbitraryConfiguration(*proto, n, rng));
  engine.attachCompiled(&compiled);
  RandomScheduler sched(engine.numParticipants(), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(sched.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CompiledStepThroughput, asymmetric, "asymmetric")
    ->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_CompiledStepThroughput, leader_uniform, "leader-uniform")
    ->Arg(256);

// The real hot kernel: Engine::runBurst pulls scheduler pairs in blocks and
// batches the counter updates, so it is faster than compiled step()-by-step —
// this is what runUntilSilent actually executes.
void BM_BurstThroughput(benchmark::State& state, const char* key, bool fast) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol(key, static_cast<StateId>(n));
  const CompiledProtocol compiled(*proto);
  Rng rng(7);
  Engine engine(*proto, arbitraryConfiguration(*proto, n, rng));
  if (fast) engine.attachCompiled(&compiled);
  RandomScheduler sched(engine.numParticipants(), 11);
  constexpr std::uint64_t kBurst = 4096;
  for (auto _ : state) {
    engine.runBurst(sched, kBurst);
    benchmark::DoNotOptimize(engine.nonNullInteractions());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK_CAPTURE(BM_BurstThroughput, asymmetric_interp, "asymmetric", false)
    ->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BurstThroughput, asymmetric_compiled, "asymmetric", true)
    ->Arg(256)->Unit(benchmark::kMicrosecond);

// Incremental silence verdict (counter test + leader row scan) vs the
// histogram-rebuilding isSilent() oracle at the same N — the poll cost that
// used to be paid every checkInterval interactions.
void BM_IncrementalSilence(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol("asymmetric", static_cast<StateId>(n));
  const CompiledProtocol compiled(*proto);
  Rng rng(7);
  Engine engine(*proto, arbitraryConfiguration(*proto, n, rng));
  engine.attachCompiled(&compiled);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.silent());
  }
}
BENCHMARK(BM_IncrementalSilence)->Arg(8)->Arg(64)->Arg(512);

void BM_SilenceCheck(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol("asymmetric", static_cast<StateId>(n));
  Configuration c;
  for (std::uint32_t i = 0; i < n; ++i) c.mobile.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isSilent(*proto, c));
  }
}
BENCHMARK(BM_SilenceCheck)->Arg(8)->Arg(64)->Arg(512);

void BM_FullConvergence(benchmark::State& state, const char* key) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto proto = makeProtocol(key, static_cast<StateId>(n));
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    Configuration start = key == std::string("leader-uniform")
                              ? uniformConfiguration(*proto, n)
                              : arbitraryConfiguration(*proto, n, rng);
    Engine engine(*proto, std::move(start));
    RandomScheduler sched(engine.numParticipants(), rng.next());
    state.ResumeTiming();
    const RunOutcome out =
        runUntilSilent(engine, sched, RunLimits{100'000'000, 256});
    benchmark::DoNotOptimize(out.convergenceInteractions);
  }
}
BENCHMARK_CAPTURE(BM_FullConvergence, asymmetric, "asymmetric")
    ->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FullConvergence, leader_uniform, "leader-uniform")
    ->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FullConvergence, selfstab_weak, "selfstab-weak")
    ->Arg(8)->Unit(benchmark::kMillisecond);

void BM_WeakChecker(benchmark::State& state) {
  const auto p = static_cast<StateId>(state.range(0));
  const auto proto = makeProtocol("global-leader", p);
  const auto initials = allConcreteConfigurations(*proto, p);
  for (auto _ : state) {
    const WeakVerdict v =
        checkWeakFairness(*proto, namingProblem(*proto), initials);
    benchmark::DoNotOptimize(v.solves);
  }
  state.counters["configs"] = static_cast<double>(
      checkWeakFairness(*proto, namingProblem(*proto), initials).numConfigs);
}
BENCHMARK(BM_WeakChecker)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_GlobalChecker(benchmark::State& state) {
  const auto p = static_cast<StateId>(state.range(0));
  const auto proto = makeProtocol("symmetric-global", p);
  const auto initials = allCanonicalConfigurations(*proto, p);
  for (auto _ : state) {
    const GlobalVerdict v =
        checkGlobalFairness(*proto, namingProblem(*proto), initials);
    benchmark::DoNotOptimize(v.solves);
  }
}
BENCHMARK(BM_GlobalChecker)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond);

// --- E20: observability-layer hot paths -----------------------------------

void BM_MetricsCounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  const CounterHandle c = registry.counter("bench_counter");
  for (auto _ : state) {
    registry.add(c);
  }
  benchmark::DoNotOptimize(registry.snapshot().counterValue("bench_counter"));
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  const HistogramHandle h = registry.histogram(
      "bench_histogram", {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8});
  double v = 1.0;
  for (auto _ : state) {
    registry.observe(h, v);
    v = (v < 1e8) ? v * 3.0 : 1.0;  // walk the buckets
  }
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_MetricsHistogramObserve);

// Observed vs unobserved full runs: the delta is the total telemetry cost of
// a run (hooks + metric updates), the quantity the "< 2% hot loop" budget in
// ISSUE/EXPERIMENTS speaks about. The unobserved variant must match the
// pre-telemetry BM_FullConvergence numbers.
void BM_RunTelemetry(benchmark::State& state, bool observed) {
  const std::uint32_t n = 8;
  const auto proto = makeProtocol("asymmetric", static_cast<StateId>(n));
  MetricsRegistry registry;
  MetricsRunObserver probe(registry);
  Rng rng(3);
  std::uint64_t runId = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(*proto, arbitraryConfiguration(*proto, n, rng));
    RandomScheduler sched(engine.numParticipants(), rng.next());
    state.ResumeTiming();
    const RunOutcome out =
        observed ? runUntilSilent(engine, sched, RunLimits{100'000'000, 256},
                                  nullptr, &probe, runId++)
                 : runUntilSilent(engine, sched, RunLimits{100'000'000, 256});
    benchmark::DoNotOptimize(out.convergenceInteractions);
  }
}
BENCHMARK_CAPTURE(BM_RunTelemetry, unobserved, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RunTelemetry, observed, true)
    ->Unit(benchmark::kMicrosecond);

// Observed vs unobserved exhaustive exploration: the delta is the
// ExploreObserver overhead on the checker hot loop (E22). The null-observer
// variant costs one pointer test per expansion/edge and must stay within
// noise of the pre-observer exploration throughput; the observed variant
// pays the periodic event construction (one per kExploreProgressStride
// expansions) plus the MetricsExploreObserver updates.
void BM_ExploreTelemetry(benchmark::State& state, bool observed) {
  const auto p = static_cast<StateId>(state.range(0));
  const auto proto = makeProtocol("selfstab-weak", p);
  const auto initials = allConcreteConfigurations(*proto, p);
  MetricsRegistry registry;
  MetricsExploreObserver probe(registry);
  std::uint64_t exploreId = 0;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const ConfigGraph graph =
        observed ? exploreConcrete(*proto, initials, 4'000'000, nullptr,
                                   &probe, ++exploreId)
                 : exploreConcrete(*proto, initials);
    nodes = graph.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK_CAPTURE(BM_ExploreTelemetry, unobserved, false)
    ->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreTelemetry, observed, true)
    ->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {

/// One interpreted-vs-compiled throughput measurement (E21). Both paths run
/// the identical interaction sequence (same scheduler seed, same start
/// configuration — the differential tests prove bit-identical executions), so
/// the ratio is a pure substrate speedup, not a workload difference.
struct ThroughputRow {
  std::string protocol;
  StateId p = 0;
  std::uint64_t interactions = 0;
  double interpretedStepsPerSec = 0.0;
  double compiledStepsPerSec = 0.0;
  double speedup = 0.0;
};

double measureStepsPerSec(const Protocol& proto, std::uint32_t numMobile,
                          const CompiledProtocol* compiled,
                          const RunLimits& limits, int repetitions,
                          std::uint64_t* interactionsOut) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    Rng rng(9);  // same seed every rep and for both paths
    Configuration start;
    try {
      start = arbitraryConfiguration(proto, numMobile, rng);
    } catch (const std::logic_error&) {
      // Non-initialized leader with an un-enumerable state space at this P
      // (selfstab-weak): arbitrary init admits ANY leader state, so pick the
      // zero encoding — the throughput measured is the same.
      for (std::uint32_t i = 0; i < numMobile; ++i) {
        start.mobile.push_back(
            static_cast<StateId>(rng.below(proto.numMobileStates())));
      }
      start.leader = LeaderStateId{0};
    }
    Engine engine(proto, std::move(start));
    if (compiled != nullptr) engine.attachCompiled(compiled);
    RandomScheduler sched(engine.numParticipants(), rng.next());
    const Clock::time_point t0 = Clock::now();
    const RunOutcome out = runUntilSilent(engine, sched, limits);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (interactionsOut != nullptr) *interactionsOut = out.totalInteractions;
    if (secs > 0.0) {
      best = std::max(best, static_cast<double>(out.totalInteractions) / secs);
    }
  }
  return best;
}

/// Runs the E21 step-throughput experiment (N = 256 across the registry,
/// interpreted vs compiled runUntilSilent, best of 3) and writes the
/// machine-readable report consumed by .github/scripts/check_bench.py.
int dumpStepThroughput(const std::string& path) {
  struct Case {
    const char* key;
    StateId p;
  };
  // P chosen so every protocol has 256 mobile states at N = 256 (the
  // symmetric/selfstab constructions use P+1 states for a bound of P).
  const Case cases[] = {{"asymmetric", 256},   {"symmetric-global", 255},
                        {"leader-uniform", 256}, {"counting", 256},
                        {"selfstab-weak", 255},  {"global-leader", 256}};
  // 4M interactions keeps the compiled timed region tens of milliseconds
  // (~100M steps/s), long enough that best-of-5 is stable across CI runners.
  const std::uint32_t numMobile = 256;
  const RunLimits limits{4'000'000, 64};
  const int repetitions = 5;

  std::vector<ThroughputRow> rows;
  for (const Case& c : cases) {
    const auto proto = makeProtocol(c.key, c.p);
    const CompiledProtocol compiled(*proto);
    ThroughputRow row;
    row.protocol = c.key;
    row.p = c.p;
    // Warm-up pass per path, then best-of-N timed passes.
    measureStepsPerSec(*proto, numMobile, nullptr, RunLimits{100'000, 64}, 1,
                       nullptr);
    row.interpretedStepsPerSec = measureStepsPerSec(
        *proto, numMobile, nullptr, limits, repetitions, nullptr);
    measureStepsPerSec(*proto, numMobile, &compiled, RunLimits{100'000, 64}, 1,
                       nullptr);
    row.compiledStepsPerSec = measureStepsPerSec(
        *proto, numMobile, &compiled, limits, repetitions, &row.interactions);
    row.speedup = row.interpretedStepsPerSec > 0.0
                      ? row.compiledStepsPerSec / row.interpretedStepsPerSec
                      : 0.0;
    rows.push_back(row);
    std::fprintf(stderr,
                 "step-throughput %-16s P=%-3u interp=%.3gM/s compiled=%.3gM/s "
                 "speedup=%.2fx\n",
                 row.protocol.c_str(), row.p,
                 row.interpretedStepsPerSec / 1e6,
                 row.compiledStepsPerSec / 1e6, row.speedup);
  }

  JsonWriter w;
  w.beginObject();
  w.key("kind").value("ppn-step-throughput");
  w.key("numMobile").value(numMobile);
  w.key("budgetInteractions").value(limits.maxInteractions);
  w.key("checkInterval").value(limits.checkInterval);
  w.key("repetitions").value(repetitions);
  w.key("rows").beginArray();
  for (const ThroughputRow& row : rows) {
    w.beginObject();
    w.key("protocol").value(row.protocol);
    w.key("p").value(row.p);
    // Single-replica rows: one lane of `numMobile` agents, so the per-lane
    // and aggregate rates coincide. Recorded explicitly so this report and
    // the ppn-batch-throughput report share one rate schema (check_bench.py
    // cross-checks lanes * perLane == aggregate on both).
    w.key("lanes").value(static_cast<std::uint64_t>(1));
    w.key("numMobile").value(numMobile);
    w.key("interactions").value(row.interactions);
    w.key("interpretedStepsPerSec").value(row.interpretedStepsPerSec);
    w.key("compiledStepsPerSec").value(row.compiledStepsPerSec);
    w.key("perLaneStepsPerSec").value(row.compiledStepsPerSec);
    w.key("aggregateStepsPerSec").value(row.compiledStepsPerSec);
    w.key("speedup").value(row.speedup);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  return 0;
}

// --- E23: parallel exploration / search throughput --------------------------

/// One parallel-exploration measurement: canonical exploration of a closed
/// graph at several thread counts. The graph is explored from ALL canonical
/// configurations (the self-stabilization workload), so its size is known and
/// identical across thread counts — the report records per-row node counts so
/// check_bench.py can re-verify the determinism contract.
struct ExploreThroughputRow {
  std::uint32_t threads = 0;
  std::uint64_t nodes = 0;
  bool truncated = false;
  double nodesPerSec = 0.0;
  double speedup = 0.0;
};

double measureExploreNodesPerSec(const Protocol& proto,
                                 const std::vector<Configuration>& initials,
                                 std::uint32_t threads, int repetitions,
                                 std::uint64_t* nodesOut, bool* truncatedOut) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    ExploreOptions options;
    options.threads = threads;
    const Clock::time_point t0 = Clock::now();
    const ConfigGraph g = exploreCanonical(proto, initials, options);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (nodesOut != nullptr) *nodesOut = g.size();
    if (truncatedOut != nullptr) *truncatedOut = g.truncated;
    if (secs > 0.0) {
      best = std::max(best, static_cast<double>(g.size()) / secs);
    }
  }
  return best;
}

double measureSearchCandidatesPerSec(std::uint32_t threads, int repetitions,
                                     std::uint64_t* candidatesOut) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    SearchOptions options;
    options.threads = threads;
    const Clock::time_point t0 = Clock::now();
    const SearchOutcome out = searchUniformNaming(
        3, 3, Fairness::kWeak, /*symmetricSpace=*/true, options);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (candidatesOut != nullptr) *candidatesOut = out.examined;
    if (secs > 0.0) {
      best = std::max(best, static_cast<double>(out.examined) / secs);
    }
  }
  return best;
}

/// Runs the E23 explore-throughput experiment (canonical exploration at
/// threads = 1/2/4/8 plus the q=3 symmetric lower-bound search) and writes
/// the JSON report consumed by .github/scripts/check_bench.py. The recorded
/// hardwareThreads lets the checker apply the speedup floor only on machines
/// that actually have the cores (a 1-core container honestly reports ~1.0x).
int dumpExploreThroughput(const std::string& path) {
  struct Case {
    const char* key;
    StateId p;
    std::uint32_t numMobile;
  };
  // Populations chosen so the canonical graph over ALL configurations closes
  // at ~10^4..10^5 nodes: large enough to amortize the per-level barriers,
  // small enough for a CI smoke lane. (asymmetric P=10/N=10: C(19,9) = 92378
  // multisets; symmetric-global P=8 has 9 states, N=10: C(18,8) = 43758.)
  const Case cases[] = {{"asymmetric", 10, 10}, {"symmetric-global", 8, 10}};
  const std::uint32_t threadCounts[] = {1, 2, 4, 8};
  const int repetitions = 3;

  JsonWriter w;
  w.beginObject();
  w.key("kind").value("ppn-explore-throughput");
  w.key("hardwareThreads")
      .value(std::max(1u, std::thread::hardware_concurrency()));
  w.key("repetitions").value(repetitions);
  w.key("explore").beginArray();
  for (const Case& c : cases) {
    const auto proto = makeProtocol(c.key, c.p);
    const auto initials = allCanonicalConfigurations(*proto, c.numMobile);
    w.beginObject();
    w.key("protocol").value(c.key);
    w.key("p").value(c.p);
    w.key("numMobile").value(c.numMobile);
    w.key("rows").beginArray();
    double serialRate = 0.0;
    for (const std::uint32_t threads : threadCounts) {
      ExploreThroughputRow row;
      row.threads = threads;
      // One warm-up pass, then best-of-N timed passes.
      measureExploreNodesPerSec(*proto, initials, threads, 1, nullptr,
                                nullptr);
      row.nodesPerSec =
          measureExploreNodesPerSec(*proto, initials, threads, repetitions,
                                    &row.nodes, &row.truncated);
      if (threads == 1) serialRate = row.nodesPerSec;
      row.speedup = serialRate > 0.0 ? row.nodesPerSec / serialRate : 0.0;
      w.beginObject();
      w.key("threads").value(row.threads);
      w.key("nodes").value(row.nodes);
      w.key("truncated").value(row.truncated);
      w.key("nodesPerSec").value(row.nodesPerSec);
      w.key("speedup").value(row.speedup);
      w.endObject();
      std::fprintf(stderr,
                   "explore-throughput %-16s P=%-3u N=%-3u threads=%u "
                   "nodes=%llu rate=%.3gM/s speedup=%.2fx\n",
                   c.key, c.p, c.numMobile, threads,
                   static_cast<unsigned long long>(row.nodes),
                   row.nodesPerSec / 1e6, row.speedup);
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();

  // Candidate-level parallel search: the q=3 symmetric lower-bound workload
  // (19683 candidates, Proposition 2 at N = 3). The orbit quotient checks
  // only its 3330 representatives, a pass of tens of milliseconds, so this
  // row takes one warm-up and more timed passes than the explore rows.
  const int searchRepetitions = 7;
  w.key("search").beginArray();
  {
    w.beginObject();
    w.key("space").value("symmetric");
    w.key("q").value(3);
    w.key("numMobile").value(3);
    w.key("fairness").value("weak");
    w.key("repetitions").value(searchRepetitions);
    w.key("rows").beginArray();
    double serialRate = 0.0;
    for (const std::uint32_t threads : threadCounts) {
      std::uint64_t candidates = 0;
      measureSearchCandidatesPerSec(threads, 1, nullptr);
      const double rate = measureSearchCandidatesPerSec(
          threads, searchRepetitions, &candidates);
      if (threads == 1) serialRate = rate;
      const double speedup = serialRate > 0.0 ? rate / serialRate : 0.0;
      w.beginObject();
      w.key("threads").value(threads);
      w.key("candidates").value(candidates);
      w.key("candidatesPerSec").value(rate);
      w.key("speedup").value(speedup);
      w.endObject();
      std::fprintf(stderr,
                   "search-throughput symmetric q=3 threads=%u "
                   "candidates=%llu rate=%.3gk/s speedup=%.2fx\n",
                   threads, static_cast<unsigned long long>(candidates),
                   rate / 1e3, speedup);
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  return 0;
}

// --- E26: batch engine vs plain runBatch throughput -------------------------

bool sameOutcome(const RunOutcome& a, const RunOutcome& b) {
  return a.silent == b.silent && a.namingSolved == b.namingSolved &&
         a.timedOut == b.timedOut && a.cancelled == b.cancelled &&
         a.convergenceInteractions == b.convergenceInteractions &&
         a.totalInteractions == b.totalInteractions &&
         a.nonNullInteractions == b.nonNullInteractions &&
         a.numMobile == b.numMobile && a.finalConfig == b.finalConfig;
}

bool sameSummary(const Summary& a, const Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max && a.median == b.median &&
         a.p10 == b.p10 && a.p90 == b.p90;
}

bool sameBatchResult(const BatchResult& a, const BatchResult& b) {
  return a.converged == b.converged && a.named == b.named &&
         a.timedOut == b.timedOut && a.runs == b.runs &&
         a.degraded == b.degraded &&
         sameSummary(a.convergenceInteractions, b.convergenceInteractions) &&
         sameSummary(a.parallelTime, b.parallelTime);
}

struct BatchThroughputRow {
  std::string protocol;
  StateId p = 0;
  std::uint64_t interactions = 0;  ///< total across the batch's runs
  double singleRunStepsPerSec = 0.0;
  double aggregateStepsPerSec = 0.0;  ///< BatchEngine::submit
  double runBatchStepsPerSec = 0.0;   ///< runBatch, same spec and threads
  double speedup = 0.0;               ///< aggregate / single-run
  bool identicalToScalar = false;
};

/// Runs the E26 batch-throughput experiment: one BatchSpec of K runs of N
/// agents through BatchEngine::submit (all cores) and through a plain
/// runBatch at the engine's thread count, best of N repetitions each with the
/// order alternating, beside the PR 3 single-run compiled baseline; writes
/// the report consumed by check_bench.py. Every case also re-runs the K runs
/// through the scalar one-Engine-per-run path and records whether all K
/// engine outcomes were bit-identical and the engine's BatchResult equals
/// runBatch's (the determinism contract, enforced in-report so a regression
/// is visible in the artifact).
int dumpBatchThroughput(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  struct Case {
    const char* key;
    StateId p;
  };
  // The E21 P choices, except selfstab-weak: a BatchSpec starts it from an
  // arbitrary enumerable leader state, and its leader space is enumerable
  // only up to P = 12 (the P its google-benchmark rows use).
  const Case cases[] = {{"asymmetric", 256},   {"symmetric-global", 255},
                        {"leader-uniform", 256}, {"counting", 256},
                        {"selfstab-weak", 12},   {"global-leader", 256}};
  BatchEngine engine;  // all cores
  BatchSpec spec;
  spec.numMobile = 256;
  spec.runs = 1024;
  spec.seed = 13;
  // Per-run budget: big enough that run setup amortizes, small enough that
  // 1024 runs x 6 protocols x (engine + runBatch + scalar + reps) stays a
  // smoke workload. checkInterval == budget: one silence poll per burst, as
  // the batch engine's clients configure their hot paths.
  spec.limits = RunLimits{8192, 8192};
  spec.threads = engine.threads();
  const int repetitions = 5;

  JsonWriter w;
  w.beginObject();
  w.key("kind").value("ppn-batch-throughput");
  w.key("hardwareThreads")
      .value(std::max(1u, std::thread::hardware_concurrency()));
  w.key("engineThreads").value(engine.threads());
  w.key("runs").value(spec.runs);
  w.key("numMobile").value(spec.numMobile);
  w.key("budgetPerRun").value(spec.limits.maxInteractions);
  w.key("repetitions").value(repetitions);
  w.key("rows").beginArray();
  bool allIdentical = true;
  for (const Case& c : cases) {
    const auto proto = makeProtocol(c.key, c.p);
    const CompiledProtocol compiled(*proto);
    BatchThroughputRow row;
    row.protocol = c.key;
    row.p = c.p;

    // Single-run baseline: run 0's start and scheduler seed, compiled Engine,
    // a timeable budget (the PR 3 number the speedup column is against).
    {
      const RunLimits limits{4'000'000, 4096};
      for (int rep = 0; rep < repetitions; ++rep) {
        Rng rng = splitRunRngs(spec.seed, 1)[0];
        Engine eng(*proto, arbitraryConfiguration(*proto, spec.numMobile, rng));
        eng.attachCompiled(&compiled);
        RandomScheduler sched(eng.numParticipants(), rng.next());
        const Clock::time_point t0 = Clock::now();
        const RunOutcome out = runUntilSilent(eng, sched, limits);
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (secs > 0.0) {
          row.singleRunStepsPerSec =
              std::max(row.singleRunStepsPerSec,
                       static_cast<double>(out.totalInteractions) / secs);
        }
      }
    }

    // The same batch through the engine's queue and through runBatch's
    // per-call pool. Both execute the same runs (checked below), so the
    // engine's interaction total is both sides' work.
    std::vector<RunOutcome> pooled;
    BatchResult engineResult;
    BatchResult runBatchResult;
    double engineSecs = 0.0;
    double runBatchSecs = 0.0;
    for (int rep = 0; rep < repetitions; ++rep) {
      for (int side = 0; side < 2; ++side) {
        const bool engineSide = (rep + side) % 2 == 0;
        const Clock::time_point t0 = Clock::now();
        if (engineSide) {
          auto job = engine.submit(*proto, spec);
          engineResult = job->wait();
          if (pooled.empty()) pooled = job->outcomes();
        } else {
          runBatchResult = runBatch(*proto, spec);
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        double& best = engineSide ? engineSecs : runBatchSecs;
        if (rep == 0 || secs < best) best = secs;
      }
    }
    for (const RunOutcome& out : pooled) row.interactions += out.totalInteractions;
    const auto total = static_cast<double>(row.interactions);
    row.aggregateStepsPerSec = engineSecs > 0.0 ? total / engineSecs : 0.0;
    row.runBatchStepsPerSec = runBatchSecs > 0.0 ? total / runBatchSecs : 0.0;
    row.speedup = row.singleRunStepsPerSec > 0.0
                      ? row.aggregateStepsPerSec / row.singleRunStepsPerSec
                      : 0.0;

    // Differential pass: the same runs, one scalar Engine each.
    row.identicalToScalar = sameBatchResult(engineResult, runBatchResult);
    std::vector<Rng> runRngs = splitRunRngs(spec.seed, spec.runs);
    for (std::uint32_t r = 0; r < spec.runs && row.identicalToScalar; ++r) {
      Engine eng(*proto,
                 arbitraryConfiguration(*proto, spec.numMobile, runRngs[r]));
      eng.attachCompiled(&compiled);
      RandomScheduler sched(eng.numParticipants(), runRngs[r].next());
      const RunOutcome out = runUntilSilent(eng, sched, spec.limits);
      row.identicalToScalar = sameOutcome(out, pooled[r]);
    }
    allIdentical = allIdentical && row.identicalToScalar;

    w.beginObject();
    w.key("protocol").value(row.protocol);
    w.key("p").value(row.p);
    w.key("runs").value(spec.runs);
    w.key("numMobile").value(spec.numMobile);
    w.key("interactions").value(row.interactions);
    w.key("singleRunStepsPerSec").value(row.singleRunStepsPerSec);
    w.key("aggregateStepsPerSec").value(row.aggregateStepsPerSec);
    w.key("runBatchStepsPerSec").value(row.runBatchStepsPerSec);
    w.key("speedup").value(row.speedup);
    w.key("identicalToScalar").value(row.identicalToScalar);
    w.endObject();
    std::fprintf(stderr,
                 "batch-throughput %-16s P=%-3u runs=%u single=%.3gM/s "
                 "engine=%.3gM/s runBatch=%.3gM/s engine/runBatch=%.3f "
                 "identical=%s\n",
                 row.protocol.c_str(), row.p, spec.runs,
                 row.singleRunStepsPerSec / 1e6,
                 row.aggregateStepsPerSec / 1e6, row.runBatchStepsPerSec / 1e6,
                 row.runBatchStepsPerSec > 0.0
                     ? row.aggregateStepsPerSec / row.runBatchStepsPerSec
                     : 0.0,
                 row.identicalToScalar ? "yes" : "NO");
  }
  w.endArray();
  w.endObject();

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  // A non-identical row is a correctness bug, not a slow machine: fail loudly.
  return allIdentical ? 0 : 1;
}

// --- E27: exploration memory profile ----------------------------------------

/// Runs the E27/E28 memory-profile experiment: per registry protocol, one
/// exploration in each graph storage (compressed first, then explicit) with a
/// MemoryStatsCollector attached, reporting per-component ledger bytes and
/// bytes/node from each exploration's final (done=true) memory_sample, plus
/// the compression ratio (explicit total / compressed total) on compressed
/// rows. The first run of the first (largest) case — the compressed anchor —
/// lands on a FRESH heap; its ledger total is compared against the RSS growth
/// observed while the graph and dedup table were still live (the final
/// sample's rss_bytes minus the RSS just before exploring), pinning the
/// DESIGN-18/19 malloc-chunk model against the real allocator. Later runs
/// reuse freed arena pages, so only the anchor carries the drift block.
/// Writes the ppn-explore-memory report consumed by
/// .github/scripts/check_bench.py.
int dumpExploreMemory(const std::string& path) {
#if defined(__GLIBC__)
  // Pin the mmap threshold. glibc's threshold is dynamic: once a large mmap'd
  // block is freed it raises the threshold to that size, so later doubling
  // generations of the stores' buffers are served from the arena and their
  // freed predecessors linger in RSS. With a fixed threshold every large
  // buffer is mmap'd and returned to the OS on free, so the anchor's RSS
  // delta prices LIVE bytes — the state the ledger models — rather than the
  // allocation history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  struct Case {
    const char* key;
    StateId p;
    std::uint32_t numMobile;
    bool canonical;     ///< canonical quotient vs concrete exploration
    bool declaredInit;  ///< declared uniform initials (initialized-agent rows)
  };
  // Anchor sized at ~92k nodes (C(19,9) multisets) so the RSS delta dwarfs
  // allocator slack; the rest are the registry's checker-scale workloads.
  const Case cases[] = {
      {"asymmetric", 10, 10, true, false},
      {"symmetric-global", 8, 10, true, false},
      {"selfstab-weak", 3, 3, false, false},
      {"leader-uniform", 4, 4, false, true},
      {"global-leader", 4, 4, false, false},
      {"counting", 4, 4, false, false},
  };

  MemoryStatsCollector collector;
  std::uint64_t exploreId = 0;
  std::uint64_t rssBaseline = 0;
  std::uint64_t rssAtDone = 0;
  std::uint64_t anchorLedgerTotal = 0;
  bool failed = false;

  JsonWriter w;
  w.beginObject();
  w.key("kind").value("ppn-explore-memory");
  w.key("hardwareThreads")
      .value(std::max(1u, std::thread::hardware_concurrency()));
  w.key("rows").beginArray();
  for (const Case& c : cases) {
    const bool anchor = exploreId == 0;
    const auto proto = makeProtocol(c.key, c.p);
    const auto initials =
        c.canonical ? allCanonicalConfigurations(*proto, c.numMobile)
        : c.declaredInit
            ? declaredUniformInitials(*proto, c.numMobile)
            : allConcreteConfigurations(*proto, c.numMobile);

    struct Run {
      std::uint64_t nodes = 0;
      MemorySampleEvent sample;
    };
    auto runOnce = [&](GraphStorage storage,
                       bool probeRss) -> std::optional<Run> {
      ExploreOptions options;
      options.observer = &collector;
      options.exploreId = ++exploreId;
      options.storage = storage;
      if (probeRss) {
        const auto before =
            sampleProcessResources(static_cast<std::int64_t>(::getpid()));
        if (before) rssBaseline = static_cast<std::uint64_t>(before->rssBytes);
      }
      const ConfigGraph g = c.canonical
                                ? exploreCanonical(*proto, initials, options)
                                : exploreConcrete(*proto, initials, options);
      const auto sample = collector.lastSample(options.exploreId);
      if (!sample || !sample->done || g.truncated) return std::nullopt;
      Run run;
      run.nodes = g.size();
      run.sample = *sample;
      return run;
    };

    // Compressed first: the anchor's compressed run sees the fresh heap, so
    // the RSS probe prices the representation the checkers actually run on.
    const auto compressed = runOnce(GraphStorage::kCompressed, anchor);
    const auto explicitRun = runOnce(GraphStorage::kExplicit, false);
    if (!compressed || !explicitRun || compressed->nodes != explicitRun->nodes) {
      std::fprintf(stderr,
                   "micro_bench: E27 exploration of '%s' did not finish "
                   "cleanly; report aborted\n",
                   c.key);
      failed = true;
      break;
    }
    if (anchor) {
      // The final sample's RSS was taken inside the exploration, while the
      // dedup table and frontier storage were still allocated — exactly the
      // state the ledger total models.
      rssAtDone = compressed->sample.rssBytes;
      anchorLedgerTotal = compressed->sample.totalBytes;
    }

    auto emitRow = [&](const char* storage, const Run& run,
                       double compressionRatio) {
      const double bytesPerNode =
          run.nodes > 0 ? static_cast<double>(run.sample.totalBytes) /
                              static_cast<double>(run.nodes)
                        : 0.0;
      w.beginObject();
      w.key("protocol").value(c.key);
      w.key("storage").value(storage);
      w.key("p").value(c.p);
      w.key("numMobile").value(c.numMobile);
      w.key("mode").value(c.canonical ? "canonical" : "concrete");
      w.key("nodes").value(run.nodes);
      w.key("configsBytes").value(run.sample.configsBytes);
      w.key("adjacencyBytes").value(run.sample.adjacencyBytes);
      w.key("dedupBytes").value(run.sample.dedupBytes);
      w.key("frontierBytes").value(run.sample.frontierBytes);
      w.key("codecBytes").value(run.sample.codecBytes);
      w.key("totalBytes").value(run.sample.totalBytes);
      w.key("highWaterBytes").value(run.sample.highWaterBytes);
      w.key("bytesPerNode").value(bytesPerNode);
      if (compressionRatio > 0.0) {
        w.key("spillBytes").value(run.sample.spillBytes);
        w.key("compressionRatio").value(compressionRatio);
      }
      w.endObject();
      std::fprintf(stderr,
                   "explore-memory %-16s %-10s P=%-3u N=%-3u nodes=%llu "
                   "total=%.3gMB bytes/node=%.1f",
                   c.key, storage, c.p, c.numMobile,
                   static_cast<unsigned long long>(run.nodes),
                   static_cast<double>(run.sample.totalBytes) / 1e6,
                   bytesPerNode);
      if (compressionRatio > 0.0) {
        std::fprintf(stderr, " ratio=%.2f", compressionRatio);
      }
      std::fprintf(stderr, "\n");
    };
    const double ratio =
        compressed->sample.totalBytes > 0
            ? static_cast<double>(explicitRun->sample.totalBytes) /
                  static_cast<double>(compressed->sample.totalBytes)
            : 0.0;
    emitRow("explicit", *explicitRun, 0.0);
    emitRow("compressed", *compressed, ratio);
  }
  w.endArray();
  if (failed) return 1;
  // Drift probe: 0 RSS values mean the platform sampler was unavailable —
  // check_bench.py treats a missing/zero delta as "skip", not "fail".
  const std::uint64_t rssDelta =
      rssAtDone > rssBaseline ? rssAtDone - rssBaseline : 0;
  w.key("rssProbe").beginObject();
  w.key("protocol").value(cases[0].key);
  w.key("storage").value("compressed");
  w.key("rssBaselineBytes").value(rssBaseline);
  w.key("rssAtDoneBytes").value(rssAtDone);
  w.key("rssDeltaBytes").value(rssDelta);
  w.key("ledgerTotalBytes").value(anchorLedgerTotal);
  w.key("ledgerVsRssRatio")
      .value(rssDelta > 0 ? static_cast<double>(anchorLedgerTotal) /
                                static_cast<double>(rssDelta)
                          : 0.0);
  w.endObject();
  w.endObject();

  if (rssDelta > 0) {
    std::fprintf(stderr,
                 "explore-memory drift: ledger=%.3gMB rssDelta=%.3gMB "
                 "ratio=%.3f\n",
                 static_cast<double>(anchorLedgerTotal) / 1e6,
                 static_cast<double>(rssDelta) / 1e6,
                 static_cast<double>(anchorLedgerTotal) /
                     static_cast<double>(rssDelta));
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  return 0;
}

/// Post-benchmark telemetry sample: a small observed batch whose JSONL
/// events and metrics snapshot land in the files named by the stripped
/// --events-out=/--metrics-out= flags.
int dumpTelemetrySample(const std::string& eventsOut,
                        const std::string& metricsOut) {
  MetricsRegistry registry;
  MetricsRunObserver probe(registry);
  MultiObserver observers;
  observers.add(&probe);
  std::unique_ptr<JsonlEventSink> sink;
  try {
    if (!eventsOut.empty()) {
      sink = std::make_unique<JsonlEventSink>(eventsOut);
      observers.add(sink.get());
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "micro_bench: %s\n", e.what());
    return 1;
  }

  const auto proto = makeProtocol("asymmetric", 8);
  BatchSpec spec;
  spec.numMobile = 8;
  spec.init = InitKind::kArbitrary;
  spec.sched = SchedulerKind::kRandom;
  spec.runs = 8;
  spec.seed = 17;
  spec.limits = RunLimits{100'000'000, 256};
  spec.observer = &observers;
  const BatchResult r = runBatch(*proto, spec);
  benchmark::DoNotOptimize(r.named);

  if (sink) sink->flush();
  if (!metricsOut.empty()) {
    std::ofstream out(metricsOut, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "micro_bench: cannot write '%s'\n",
                   metricsOut.c_str());
      return 1;
    }
    out << registry.toJson() << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string eventsOut;
  std::string metricsOut;
  std::string stepThroughputOut;
  std::string exploreThroughputOut;
  std::string batchThroughputOut;
  std::string memoryProfileOut;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--events-out=", 13) == 0) {
      eventsOut = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metricsOut = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--step-throughput-out=", 22) == 0) {
      stepThroughputOut = argv[i] + 22;
    } else if (std::strncmp(argv[i], "--explore-throughput-out=", 25) == 0) {
      exploreThroughputOut = argv[i] + 25;
    } else if (std::strncmp(argv[i], "--batch-throughput-out=", 23) == 0) {
      batchThroughputOut = argv[i] + 23;
    } else if (std::strncmp(argv[i], "--memory-profile-out=", 21) == 0) {
      memoryProfileOut = argv[i] + 21;
    } else {
      rest.push_back(argv[i]);
    }
  }
  // The step-throughput (E21), explore-throughput (E23), batch-throughput
  // (E26) and memory-profile (E27) experiments stand alone: they measure
  // whole runs themselves, so they skip the google-benchmark harness
  // entirely. E27 in particular NEEDS a fresh heap for its RSS drift probe.
  if (!stepThroughputOut.empty()) return dumpStepThroughput(stepThroughputOut);
  if (!exploreThroughputOut.empty()) {
    return dumpExploreThroughput(exploreThroughputOut);
  }
  if (!batchThroughputOut.empty()) {
    return dumpBatchThroughput(batchThroughputOut);
  }
  if (!memoryProfileOut.empty()) return dumpExploreMemory(memoryProfileOut);
  int restArgc = static_cast<int>(rest.size());
  benchmark::Initialize(&restArgc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(restArgc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!eventsOut.empty() || !metricsOut.empty()) {
    return dumpTelemetrySample(eventsOut, metricsOut);
  }
  return 0;
}
