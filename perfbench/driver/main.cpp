// perfbench_driver: one run of one workload.
//
//   perfbench_driver --workload search|exact|convergence|robustness
//                    --seed N --seconds S --trace 0|1
//                    [--oracle-dir DIR] [--spill-dir DIR]
//                    [--record-oracle FILE] [--spans-out FILE]
//
// Sets the workload up repeatedly (setup_s is the median), then repeats
// rounds of passes for S seconds, starting no round that would end past S:
//  * --trace 0: a 1-thread pass and a T-thread pass, untraced. Prints the
//    end-to-end metrics (setup_s, wall_s, wall_par_s, cpu_par_s,
//    peak_rss_mb), each the median over the run's passes (peak_rss_mb over
//    its rounds).
//  * --trace 1: an untraced 1-thread pass, an untraced T-thread pass and a
//    traced 1-thread pass. Prints every per-layer metric, each the median
//    over the run's passes: what the driver times from outside (calls,
//    busy time, counts, rates) from the untraced passes (".par" names from
//    the T-thread one), and what only the tracer sees (phase splits, run
//    spans, self times) from the traced pass.
// T = min(4, available cores). Seeded workloads (convergence, robustness)
// use --seed for the first round and a fixed sequence drawn from it for the
// rest, so one run's medians cover several inputs.
//
// Every pass's outputs are checked against oracle/<workload>.tsv and
// against the first pass of its round (so 1-thread and T-thread outputs
// must be identical). The last stdout line is the JSON result
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit code is 0 only when every unit matched.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/oracle.h"
#include "driver/spans.h"
#include "driver/stats.h"
#include "driver/workloads.h"
#include "stats/summary.h"
#include "util/json.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"wall_s", "s"},        {"wall_par_s", "s"},
    {"cpu_par_s", "s"},    {"peak_rss_mb", "MB"},
};

// Per-layer metrics, in BENCHMARK.json order. Names ending in ".par" come
// from the untraced T-thread pass; the others from the traced 1-thread pass
// when the tracer produces them (tracedMetrics), else from the untraced
// 1-thread pass.
const MetricDef kPerLayer[] = {
    {"explore.calls", "count"},
    {"explore.busy_s", "s"},
    {"explore.nodes", "count"},
    {"explore.edges", "count"},
    {"explore.nodes_per_s", "1/s"},
    {"explore.nodes_per_s.par", "1/s"},
    {"explore.bytes_per_node", "B"},
    {"explore.ledger_peak_bytes", "B"},
    {"explore.expand_s", "s"},
    {"explore.dedup_s", "s"},
    {"explore.append_s", "s"},
    {"explore.io_s", "s"},
    {"explore.spill_runs", "count"},
    {"explore.dedup_hit_ratio", "ratio"},
    {"explore.self_s", "s"},
    {"scc.calls", "count"},
    {"scc.busy_s", "s"},
    {"scc.components", "count"},
    {"scc.self_s", "s"},
    {"checker.calls", "count"},
    {"checker.busy_s", "s"},
    {"checker.verdict_s", "s"},
    {"checker.self_s", "s"},
    {"search.candidates", "count"},
    {"search.busy_s", "s"},
    {"search.candidates_per_s", "1/s"},
    {"search.candidates_per_s.par", "1/s"},
    {"search.inner_explorations", "count"},
    {"search.inner_explore_s", "s"},
    {"search.inner_verdict_s", "s"},
    {"search.overhead_s", "s"},
    {"search.self_s", "s"},
    {"table1.cells", "count"},
    {"table1.busy_s", "s"},
    {"table1.busy_s.par", "s"},
    {"table1.cell_p50_ms", "ms"},
    {"table1.cell_max_ms", "ms"},
    {"table1.cell_max_ms.par", "ms"},
    {"table1.self_s", "s"},
    {"hitting_time.calls", "count"},
    {"hitting_time.busy_s", "s"},
    {"hitting_time.states", "count"},
    {"hitting_time.self_s", "s"},
    {"batch.jobs", "count"},
    {"batch.runs", "count"},
    {"batch.interactions", "count"},
    {"batch.busy_s", "s"},
    {"batch.submit_s", "s"},
    {"batch.wait_s", "s"},
    {"batch.interactions_per_s", "1/s"},
    {"batch.interactions_per_s.par", "1/s"},
    {"batch.job_p50_ms", "ms"},
    {"batch.job_max_ms", "ms"},
    {"batch.job_max_ms.par", "ms"},
    {"batch.named_ratio", "ratio"},
    {"batch.self_s", "s"},
    {"sim.run_p50_ms", "ms"},
    {"sim.run_p90_ms", "ms"},
    {"sim.silence_checks", "count"},
    {"sim.silence_hit_ratio", "ratio"},
    {"sim.self_s", "s"},
    {"certify.cells", "count"},
    {"certify.runs", "count"},
    {"certify.busy_s", "s"},
    {"certify.runs_per_s", "1/s"},
    {"certify.runs_per_s.par", "1/s"},
    {"certify.faults_injected", "count"},
    {"certify.recovered_ratio", "ratio"},
    {"certify.self_s", "s"},
    {"setup.protocols_s", "s"},
    {"setup.initials_s", "s"},
    {"setup.pool_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string oracleDir = "perfbench/oracle";
  std::string spillDir;
  std::string recordOracle;
  std::string spansOut;
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--oracle-dir DIR] [--spill-dir DIR] "
               "[--record-oracle FILE] [--spans-out FILE]\n");
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--oracle-dir") a.oracleDir = v;
      else if (flag == "--spill-dir") a.spillDir = v;
      else if (flag == "--record-oracle") a.recordOracle = v;
      else if (flag == "--spans-out") a.spansOut = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

std::uint32_t availableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Starts a new RSS high-water mark: hands the heap's free pages back to the
/// kernel, then resets VmHWM to the current RSS (clear_refs "5", Linux 4.0+).
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  if (!out) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

/// RSS high-water mark (VmHWM) in MiB since the last resetPeakRss(). Not
/// getrusage's ru_maxrss: that keeps the parent's RSS across fork + exec.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string sanitizers() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "compiler-flag";
#endif
  return s;
}

/// How long set-up is sampled before the first round, and before each round.
constexpr double kSetupSeconds = 0.25;
constexpr double kSetupSecondsPerRound = 0.05;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What the driver times from outside in one pass: the workload's counts
/// and busy times, and the rates derived from them.
std::map<std::string, double> directMetrics(const PassContext& ctx) {
  std::map<std::string, double> m = ctx.metrics;
  auto get = [&m](const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  m["explore.nodes_per_s"] = ratio(get("explore.nodes"), get("explore.busy_s"));
  m["search.candidates_per_s"] =
      ratio(get("search.candidates"), get("search.busy_s"));
  m["batch.interactions_per_s"] =
      ratio(get("batch.interactions"), get("batch.busy_s"));
  m["certify.runs_per_s"] = ratio(get("certify.runs"), get("certify.busy_s"));
  return m;
}

/// What only the tracer sees in one traced pass: the library's own phase
/// splits and event counters, run spans, and self time per layer.
std::map<std::string, double> tracedMetrics(const Tracer& tracer, double wall) {
  std::map<std::string, double> m;
  const ExploreEventTotals& e = tracer.exploreTotals();
  m["explore.ledger_peak_bytes"] = static_cast<double>(e.ledgerPeakBytes);
  m["explore.expand_s"] = e.expandMillis * 1e-3;
  m["explore.dedup_s"] = e.dedupMillis * 1e-3;
  m["explore.append_s"] = e.appendMillis * 1e-3;
  m["explore.io_s"] = e.ioMillis * 1e-3;
  m["explore.spill_runs"] = static_cast<double>(e.spillRuns);
  m["explore.dedup_hit_ratio"] =
      ratio(static_cast<double>(e.dedupHits),
            static_cast<double>(e.dedupHits + e.nodes));

  double verdict = 0.0;
  double searchPhase = 0.0;
  double innerExplore = 0.0;
  double innerVerdict = 0.0;
  double innerExplorations = 0.0;
  std::vector<double> runMillis;
  for (const Span& s : tracer.spans()) {
    if (s.end < s.begin) continue;
    const double sec = static_cast<double>(s.end - s.begin) * 1e-9;
    if (s.source == SpanSource::kRun) {
      runMillis.push_back(sec * 1e3);
      continue;
    }
    if (s.source != SpanSource::kPhase) continue;
    const std::string kind = s.kind;
    if (kind == "verdict") verdict += sec;
    if (kind == "search") searchPhase += sec;
    // Explorations a search issues carry (searchId << 32) | seq.
    if ((s.id >> 32) != 0) {
      if (kind == "explore") {
        innerExplore += sec;
        innerExplorations += 1;
      } else if (kind == "scc" || kind == "verdict") {
        innerVerdict += sec;
      }
    }
  }
  m["checker.verdict_s"] = verdict;
  m["search.inner_explorations"] = innerExplorations;
  m["search.inner_explore_s"] = innerExplore;
  m["search.inner_verdict_s"] = innerVerdict;
  m["search.overhead_s"] =
      searchPhase > 0.0 ? searchPhase - innerExplore - innerVerdict : 0.0;

  std::sort(runMillis.begin(), runMillis.end());
  m["sim.run_p50_ms"] = runMillis.empty() ? 0.0 : median(runMillis);
  m["sim.run_p90_ms"] = runMillis.empty() ? 0.0 : ppn::quantile(runMillis, 0.9);
  m["sim.silence_checks"] = static_cast<double>(tracer.silenceChecks());
  m["sim.silence_hit_ratio"] =
      ratio(static_cast<double>(tracer.silenceHits()),
            static_cast<double>(tracer.silenceChecks()));

  for (const auto& [layer, sec] : selfSecondsByLayer(tracer.spans())) {
    m[layer + ".self_s"] = sec;
  }
  m["trace.coverage_ratio"] = ratio(eventCoveredSeconds(tracer.spans()), wall);
  return m;
}

struct PassRecord {
  double wall = 0.0;
  double cpu = 0.0;
  std::map<std::string, double> direct;  ///< directMetrics
  std::map<std::string, double> traced;  ///< tracedMetrics; traced passes only
};

class Runner {
 public:
  Runner(const Args& args, Workload& workload, const Oracle* oracle)
      : args_(args), workload_(workload), oracle_(oracle) {}

  /// Starts a round: its passes share `seed`, and each is checked against
  /// the round's first pass.
  void beginRound(std::uint64_t seed) {
    seed_ = seed;
    reference_.clear();
  }

  PassRecord pass(std::uint32_t threads, bool traced) {
    Tracer tracer;
    PassContext ctx;
    ctx.seed = seed_;
    ctx.threads = threads;
    ctx.tracer = traced ? &tracer : nullptr;
    PassRecord rec;
    const double cpu0 = cpuSeconds();
    const Nanos begin = nowNanos();
    workload_.run(ctx);
    rec.wall = static_cast<double>(nowNanos() - begin) * 1e-9;
    rec.cpu = cpuSeconds() - cpu0;
    workload_.collect(ctx);
    std::fprintf(stderr,
                 "pass seed=%llu threads=%u traced=%d wall=%.6f cpu=%.6f\n",
                 static_cast<unsigned long long>(seed_), threads,
                 traced ? 1 : 0, rec.wall, rec.cpu);
    rec.direct = directMetrics(ctx);
    if (traced) {
      rec.traced = tracedMetrics(tracer, rec.wall);
      if (!args_.spansOut.empty() && threads == 1) {
        std::ofstream out(args_.spansOut, std::ios::trunc);
        writeSpansJsonl(tracer.spans(), out);
      }
    }
    check(ctx.units);
    return rec;
  }

  const CheckResult& result() const { return result_; }

 private:
  void check(std::vector<Unit>& units) {
    if (first_) {
      first_ = false;
      if (!args_.recordOracle.empty()) {
        std::ofstream out(args_.recordOracle, std::ios::trunc);
        out << Oracle::format(units, workload_.defaultSeed() == 0
                                         ? std::nullopt
                                         : std::optional(seed_));
      }
    }
    CheckResult r;
    if (oracle_ != nullptr) {
      r = oracle_->check(units, seed_,
                         reference_.empty() ? nullptr : &reference_);
    } else {
      r.attempted = units.size();
    }
    result_.attempted += r.attempted;
    result_.failed += r.failed;
    for (auto& why : r.reasons) result_.reasons.push_back(std::move(why));
    if (reference_.empty()) reference_ = std::move(units);
  }

  const Args& args_;
  Workload& workload_;
  const Oracle* oracle_;
  std::uint64_t seed_ = 0;
  bool first_ = true;
  CheckResult result_;
  std::vector<Unit> reference_;  ///< the current round's first pass
};

/// Round r's seed: the run's seed for round 0, then a fixed sequence drawn
/// from it, so a run of a seeded workload measures several inputs and the
/// same --seed always measures the same ones.
std::uint64_t roundSeed(std::uint64_t seed, std::uint64_t round) {
  return round == 0 ? seed : seed + round * 0x9E3779B97F4A7C15ULL;
}

void printMetric(const std::string& name, const char* unit,
                 const std::vector<double>& samples) {
  std::printf("  %-30s %14.6g %-6s", name.c_str(), median(samples), unit);
  if (samples.size() >= 2) {
    const auto q = quartiles(samples);
    std::printf(" median of %zu (q1 %.6g, q3 %.6g)", samples.size(), q[0],
                q[2]);
  }
  std::printf("\n");
}

int run(const Args& args) {
  const std::uint32_t cores = availableCores();
  const std::uint32_t T = std::min(4u, cores);

  WorkloadOptions options;
  options.name = args.workload;
  options.parThreads = T;
  options.spillDir = args.spillDir;

  std::unique_ptr<Oracle> oracle;
  if (args.recordOracle.empty()) {
    const std::string path = args.oracleDir + "/" + args.workload + ".tsv";
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "perfbench_driver: no oracle at '%s'\n",
                   path.c_str());
      return 2;
    }
    oracle = std::make_unique<Oracle>(Oracle::parse(in));
  }

  {
    ppn::JsonWriter w;
    w.beginObject();
    w.key("workload").value(args.workload);
    w.key("seed").value(args.seed);
    w.key("trace").value(args.trace);
    w.key("nproc").value(cores);
    w.key("threads_par").value(T);
#if defined(__clang__)
    w.key("compiler").value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.key("compiler").value(std::string("gcc ") + __VERSION__);
#endif
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("sanitizers").value(sanitizers());
#ifdef NDEBUG
    w.key("asserts").value(false);
#else
    w.key("asserts").value(true);
#endif
    const char* commit = std::getenv("PERFBENCH_COMMIT");
    w.key("commit").value(commit != nullptr ? commit : "unknown");
    w.endObject();
    std::printf("provenance %s\n", w.str().c_str());
  }

  // Set-up samples, taken for `seconds` (and at least 5 in all); `last` ends
  // up holding the last workload set up. One sample is the mean over
  // back-to-back set-ups lasting at least 1 ms, so set-ups of a few
  // microseconds are not lost in clock granularity. The first
  // kSetupSeconds of samples give the workload the passes use; a further
  // kSetupSecondsPerRound before each round, on throwaway workloads, spreads
  // setup_s over the whole run like the pass times, so it does not describe
  // the machine's first second alone.
  std::vector<double> setupTotal, setupProtocols, setupInitials, setupPool;
  auto sampleSetups = [&](double seconds, std::unique_ptr<Workload>& last) {
    const Nanos from = nowNanos();
    do {
      SetupTimes sum;
      double count = 0.0;
      while (sum.total() < 1e-3) {
        last.reset();
        last = makeWorkload(options);
        const SetupTimes t = last->setup();
        sum.protocols += t.protocols;
        sum.initials += t.initials;
        sum.pool += t.pool;
        count += 1.0;
      }
      setupTotal.push_back(sum.total() / count);
      setupProtocols.push_back(sum.protocols / count);
      setupInitials.push_back(sum.initials / count);
      setupPool.push_back(sum.pool / count);
    } while (setupTotal.size() < 5 ||
             static_cast<double>(nowNanos() - from) * 1e-9 < seconds);
  };
  std::unique_ptr<Workload> workload;
  sampleSetups(kSetupSeconds, workload);

  // Rounds until the next one, if as long as the longest so far, would end
  // past --seconds, so a run lasts --seconds whatever its round length. Each
  // round's set-up samples start from a trimmed heap, and the round starts
  // its own RSS high-water mark after them, so peak_rss_mb is a median like
  // the times, not the maximum over however many rounds (and seeds) a run
  // happens to fit.
  Runner runner(args, *workload, oracle.get());
  std::vector<PassRecord> serial, parallel, traced;
  std::vector<double> roundRss;
  const Nanos begin = nowNanos();
  const std::size_t minRounds = args.trace == 0 ? 3 : 2;
  auto elapsed = [&] { return static_cast<double>(nowNanos() - begin) * 1e-9; };
  double longestRound = 0.0;
  while (serial.size() < minRounds ||
         elapsed() + longestRound <= args.seconds) {
    const double roundBegin = elapsed();
    if (!serial.empty()) {
      malloc_trim(0);
      std::unique_ptr<Workload> spare;
      sampleSetups(kSetupSecondsPerRound, spare);
    }
    resetPeakRss();
    runner.beginRound(roundSeed(args.seed, serial.size()));
    serial.push_back(runner.pass(1, false));
    parallel.push_back(runner.pass(T, false));
    if (args.trace == 1) traced.push_back(runner.pass(1, true));
    roundRss.push_back(peakRssMb());
    longestRound = std::max(longestRound, elapsed() - roundBegin);
  }

  std::map<std::string, std::vector<double>> samples;
  std::vector<const MetricDef*> report;
  if (args.trace == 0) {
    samples["setup_s"] = setupTotal;
    for (const auto& r : serial) samples["wall_s"].push_back(r.wall);
    for (const auto& r : parallel) {
      samples["wall_par_s"].push_back(r.wall);
      samples["cpu_par_s"].push_back(r.cpu);
    }
    samples["peak_rss_mb"] = roundRss;
    for (const auto& d : kEndToEnd) report.push_back(&d);
  } else {
    auto lookup = [](const std::map<std::string, double>& m,
                     const std::string& key) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    for (const auto& d : kPerLayer) {
      const std::string name = d.name;
      const bool par = name.size() > 4 && name.ends_with(".par");
      const std::string key = par ? name.substr(0, name.size() - 4) : name;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        double v = 0.0;
        if (par) v = lookup(parallel[i].direct, key);
        else if (traced[i].traced.count(key)) v = traced[i].traced.at(key);
        else v = lookup(serial[i].direct, key);
        samples[name].push_back(v);
      }
      report.push_back(&d);
    }
    samples["setup.protocols_s"] = setupProtocols;
    samples["setup.initials_s"] = setupInitials;
    samples["setup.pool_s"] = setupPool;
    std::vector<double> tracedWall, untracedWall;
    for (const auto& r : traced) tracedWall.push_back(r.wall);
    for (const auto& r : serial) untracedWall.push_back(r.wall);
    samples["trace.overhead_ratio"] = {median(tracedWall) /
                                       median(untracedWall)};
  }

  const CheckResult& check = runner.result();
  std::printf("workload %s: %zu rounds, T = %u, %llu units attempted, %llu "
              "failed (error_rate %.6g), %llu stall nudges\n",
              args.workload.c_str(), serial.size(), T,
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed),
              ratio(static_cast<double>(check.failed),
                    static_cast<double>(check.attempted)),
              static_cast<unsigned long long>(workload->stallNudges()));
  for (std::size_t i = 0; i < check.reasons.size() && i < 20; ++i) {
    std::printf("  MISMATCH %s\n", check.reasons[i].c_str());
  }
  for (const MetricDef* d : report) printMetric(d->name, d->unit, samples[d->name]);

  ppn::JsonWriter w;
  w.beginObject();
  w.key("correct").value(check.failed == 0);
  w.key("attempted").value(check.attempted);
  w.key("failed").value(check.failed);
  w.key("metrics").beginObject();
  for (const MetricDef* d : report) {
    w.key(d->name).beginObject();
    w.key("value").value(median(samples[d->name]));
    w.key("unit").value(d->unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return check.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    perfbench::usage();
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
