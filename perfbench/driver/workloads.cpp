#include "driver/workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/explore.h"
#include "analysis/global_checker.h"
#include "analysis/hitting_time.h"
#include "analysis/initial_sets.h"
#include "analysis/problem.h"
#include "analysis/protocol_search.h"
#include "analysis/scc.h"
#include "analysis/table1.h"
#include "core/engine.h"
#include "driver/stats.h"
#include "faults/certify.h"
#include "naming/color_example.h"
#include "naming/registry.h"
#include "sim/batch_engine.h"
#include "stats/summary.h"
#include "util/json.h"
#include "util/seed.h"

namespace perfbench {
namespace {

double secondsSince(Nanos begin) {
  return static_cast<double>(nowNanos() - begin) * 1e-9;
}

/// printf into a std::string.
template <class... Args>
std::string format(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

double maxOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::unique_ptr<ppn::BatchEngine> startPool(std::uint32_t threads) {
  return std::make_unique<ppn::BatchEngine>(
      ppn::BatchEngineOptions{threads, 256});
}

/// How long one watched call into a BatchEngine runs before it is nudged.
constexpr double kStallSeconds = 3.0;

/// The protocol of the guard's one-run jobs. Static, so it outlives every
/// engine a nudge job may still sit in.
const ppn::Protocol& nudgeProtocol() {
  static const std::unique_ptr<ppn::Protocol> proto =
      ppn::makeProtocol("asymmetric", 2);
  return *proto;
}

/// Keeps a pass from hanging on a lost wakeup in BatchEngine's task queue.
/// The engine wakes one idle worker per queued task (notify_one), and
/// glibc's condition variables can lose such a wakeup (sourceware bug
/// 25847; seen with glibc 2.36): the task then waits behind idle workers
/// until the next one is queued. While a watched call has run longer than
/// kStallSeconds, the guard queues a one-run job on the call's engine, so a
/// worker wakes and drains the queue. The stall still costs its pass the
/// time, and every nudge is counted and reported on stderr. A nudge during
/// a call that is merely slow only adds that one tiny run.
class StallGuard {
 public:
  StallGuard() = default;
  StallGuard(const StallGuard&) = delete;
  StallGuard& operator=(const StallGuard&) = delete;

  ~StallGuard() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Watches a call into `engine` from now until unwatch(). The guard's
  /// thread starts on the first call, so set-up does not pay for it.
  void watch(ppn::BatchEngine& engine) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    engine_ = &engine;
    since_ = nowNanos();
  }

  void unwatch() {
    const std::lock_guard<std::mutex> lock(mu_);
    engine_ = nullptr;
  }

  std::uint64_t nudges() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return nudges_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(250));
      if (stop_ || engine_ == nullptr) continue;
      const Nanos now = nowNanos();
      const double running = static_cast<double>(now - since_) * 1e-9;
      if (running < kStallSeconds) continue;
      since_ = now;
      ++nudges_;
      ppn::BatchSpec spec;
      spec.numMobile = 2;
      spec.runs = 1;
      engine_->submit(nudgeProtocol(), spec);
      std::fprintf(stderr,
                   "perfbench: a BatchEngine call has run %.1f s; queued a "
                   "one-run job to wake an idle worker (nudge %llu)\n",
                   running, static_cast<unsigned long long>(nudges_));
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  ppn::BatchEngine* engine_ = nullptr;
  Nanos since_ = 0;
  std::uint64_t nudges_ = 0;
  bool stop_ = false;
};

// --- search: lower_bound_search's nine jobs --------------------------------

class SearchWorkload final : public Workload {
 public:
  SetupTimes setup() override {
    // The binary's job table: its only set-up (candidates are decoded
    // inside the search).
    const Nanos begin = nowNanos();
    using ppn::Fairness;
    jobs_ = {
        {2, 2, Fairness::kGlobal, true, false, false},
        {2, 2, Fairness::kWeak, true, false, false},
        {3, 3, Fairness::kGlobal, true, false, false},
        {3, 3, Fairness::kWeak, true, false, false},
        {3, 2, Fairness::kWeak, true, false, false},
        {3, 2, Fairness::kGlobal, true, false, false},
        {2, 2, Fairness::kGlobal, false, false, true},
        {2, 2, Fairness::kWeak, false, false, true},
        {2, 2, Fairness::kWeak, false, true, true},
    };
    SetupTimes t;
    t.protocols = secondsSince(begin);
    return t;
  }

  void run(PassContext& ctx) override {
    outcomes_.clear();
    std::uint64_t searchId = 0;
    for (const Job& job : jobs_) {
      ppn::SearchOptions options;
      options.threads = ctx.threads;
      options.observer = ctx.tracer;
      options.searchId = ++searchId;
      const auto t = timedCall(ctx, "search", searchId, [&] {
        return job.selfStab
                   ? ppn::searchSelfStabilizingNaming(job.q, job.n, job.fairness,
                                                      job.symmetric, options)
                   : ppn::searchUniformNaming(job.q, job.n, job.fairness,
                                              job.symmetric, options);
      });
      ctx.add("search.busy_s", t.seconds);
      outcomes_.push_back(t.value);
    }
  }

  void collect(PassContext& ctx) override {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& job = jobs_[i];
      const ppn::SearchOutcome& out = outcomes_[i];
      const bool pass = out.unknown == 0 &&
                        (job.expectSolvers ? out.solvers > 0 : out.solvers == 0);
      Unit u;
      u.name = format("search.%s.q%u.n%u.%s%s",
                      job.symmetric ? "symmetric" : "all", job.q, job.n,
                      job.fairness == ppn::Fairness::kGlobal ? "global" : "weak",
                      job.selfStab ? ".selfstab" : "");
      u.fixed = format("examined=%" PRIu64 " solvers=%" PRIu64
                       " unknown=%" PRIu64 " verdict=%s",
                       out.examined, out.solvers, out.unknown,
                       pass ? "pass" : "fail");
      u.ok = pass;
      ctx.units.push_back(std::move(u));
      ctx.add("search.candidates", static_cast<double>(out.examined));
    }
    outcomes_.clear();
  }

 private:
  struct Job {
    ppn::StateId q;
    std::uint32_t n;
    ppn::Fairness fairness;
    bool symmetric;
    bool selfStab;
    bool expectSolvers;
  };
  std::vector<Job> jobs_;
  std::vector<ppn::SearchOutcome> outcomes_;
};

// --- exact: table1_feasibility --p 4, then the exploration anchors ---------

std::uint64_t edgeTotal(const ppn::ConfigGraph& g) {
  std::uint64_t edges = 0;
  for (std::uint32_t id = 0; id < g.size(); ++id) edges += g.edgeCount(id);
  return edges;
}

/// Node-for-node, edge-for-edge equality through the ConfigGraph accessors.
bool sameGraph(const ppn::ConfigGraph& a, const ppn::ConfigGraph& b) {
  if (a.size() != b.size() || a.truncated != b.truncated) return false;
  for (std::uint32_t id = 0; id < a.size(); ++id) {
    if (a.config(id) != b.config(id)) return false;
    const auto ea = a.edges(id);
    const auto eb = b.edges(id);
    if (ea.size() != eb.size()) return false;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      const ppn::Edge& x = ea[k];
      const ppn::Edge& y = eb[k];
      if (x.to != y.to || x.label != y.label || x.initiator != y.initiator ||
          x.responder != y.responder || x.changed != y.changed ||
          x.changedMobile != y.changedMobile || x.changedName != y.changedName) {
        return false;
      }
    }
  }
  return true;
}

class ExactWorkload final : public Workload {
 public:
  explicit ExactWorkload(const WorkloadOptions& options)
      : spillDir_(options.spillDir) {}

  SetupTimes setup() override {
    SetupTimes t;
    Nanos begin = nowNanos();
    anchors_.clear();
    anchors_.emplace_back("asymmetric", 10, 10, true);
    anchors_.emplace_back("symmetric-global", 8, 10, false);
    for (Anchor& a : anchors_) {
      a.proto = ppn::makeProtocol(a.key, a.p);
      a.problem = ppn::namingProblem(*a.proto);
    }
    t.protocols = secondsSince(begin);
    begin = nowNanos();
    for (Anchor& a : anchors_) {
      a.initials = ppn::allCanonicalConfigurations(*a.proto, a.n);
    }
    t.initials = secondsSince(begin);
    return t;
  }

  void run(PassContext& ctx) override {
    // table1_feasibility: every cell in index order, per-cell id ranges.
    cells_.clear();
    cellMillis_.clear();
    for (std::uint32_t i = 0; i < ppn::table1CellCount(); ++i) {
      ppn::Table1Options options;
      options.threads = ctx.threads;
      options.observer = ctx.tracer;
      options.exploreIdBase = i * ppn::kTable1IdStride;
      options.searchIdBase = 256 + i * ppn::kTable1IdStride;
      const auto t = timedCall(ctx, "table1", i,
                               [&] { return ppn::runTable1Cell(i, 4, options); });
      ctx.add("table1.busy_s", t.seconds);
      cellMillis_.push_back(t.seconds * 1e3);
      cells_.push_back(t.value);
    }
    // The anchors: explore -> SCC -> global-fairness check from all
    // canonical configurations.
    std::uint64_t exploreId = kAnchorIdBase;
    for (Anchor& a : anchors_) {
      ppn::ExploreOptions options;
      options.threads = ctx.threads;
      options.observer = ctx.tracer;
      options.exploreId = ++exploreId;
      auto graph = timedCall(ctx, "explore", options.exploreId, [&] {
        return ppn::exploreCanonical(*a.proto, a.initials, options);
      });
      ctx.add("explore.busy_s", graph.seconds);
      const auto scc = timedCall(ctx, "scc", options.exploreId,
                                 [&] { return ppn::decomposeScc(graph.value); });
      ctx.add("scc.busy_s", scc.seconds);
      options.exploreId = ++exploreId;
      const auto verdict = timedCall(ctx, "checker", options.exploreId, [&] {
        return ppn::checkGlobalFairness(*a.proto, a.problem, a.initials,
                                        options);
      });
      ctx.add("checker.busy_s", verdict.seconds);
      a.graph = std::move(graph.value);
      a.numSccs = scc.value.numSccs;
      a.numBottom = static_cast<std::uint32_t>(
          std::count(scc.value.bottom.begin(), scc.value.bottom.end(), true));
      a.verdict = verdict.value;
    }
    // The asymmetric anchor again, its dedup table spilling to disk.
    Anchor& spilled = anchors_.front();
    ppn::ExploreOptions options;
    options.threads = ctx.threads;
    options.observer = ctx.tracer;
    options.exploreId = ++exploreId;
    options.spillBytes = kSpillBytes;
    options.spillDir = spillDir_;
    auto graph = timedCall(ctx, "explore", options.exploreId, [&] {
      return ppn::exploreCanonical(*spilled.proto, spilled.initials, options);
    });
    ctx.add("explore.busy_s", graph.seconds);
    spilledGraph_ = std::move(graph.value);
  }

  void collect(PassContext& ctx) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Unit u;
      u.name = format("table1.p4.cell%zu", i);
      u.fixed = ppn::table1Json(4, {cells_[i]});
      u.ok = cells_[i].verdict == ppn::Table1Check::kPass;
      ctx.units.push_back(std::move(u));
    }
    ctx.add("table1.cells", static_cast<double>(cells_.size()));
    ctx.add("table1.cell_p50_ms", median(cellMillis_));
    ctx.add("table1.cell_max_ms", maxOf(cellMillis_));

    for (Anchor& a : anchors_) {
      const std::uint64_t nodes = a.graph.size();
      const std::uint64_t edges = edgeTotal(a.graph);
      Unit u;
      u.name = format("anchor.%s.p%u.n%u", a.key, a.p, a.n);
      u.fixed = format("nodes=%" PRIu64 " edges=%" PRIu64
                       " sccs=%u bottom=%u check_configs=%zu "
                       "check_bottom=%zu solves=%d",
                       nodes, edges, a.numSccs, a.numBottom,
                       a.verdict.numConfigs, a.verdict.numBottomSccs,
                       a.verdict.solves ? 1 : 0);
      u.ok = !a.graph.truncated && a.verdict.explored &&
             a.verdict.solves == a.solves && a.verdict.numConfigs == nodes;
      ctx.units.push_back(std::move(u));
      ctx.add("explore.calls", 1);
      ctx.add("explore.nodes", static_cast<double>(nodes));
      ctx.add("explore.edges", static_cast<double>(edges));
      ctx.add("scc.calls", 1);
      ctx.add("scc.components", a.numSccs);
      ctx.add("checker.calls", 1);
    }
    const Anchor& base = anchors_.front();
    ctx.add("explore.bytes_per_node",
            static_cast<double>(ppn::configGraphBytes(base.graph)) /
                static_cast<double>(std::max<std::size_t>(1, base.graph.size())));

    const std::uint64_t nodes = spilledGraph_.size();
    const std::uint64_t edges = edgeTotal(spilledGraph_);
    const bool equal = sameGraph(spilledGraph_, base.graph);
    Unit u;
    u.name = format("anchor.%s.p%u.n%u.spilled", base.key, base.p, base.n);
    u.fixed = format("nodes=%" PRIu64 " edges=%" PRIu64 " equal_in_ram=%d",
                     nodes, edges, equal ? 1 : 0);
    u.ok = equal;
    ctx.units.push_back(std::move(u));
    ctx.add("explore.calls", 1);
    ctx.add("explore.nodes", static_cast<double>(nodes));
    ctx.add("explore.edges", static_cast<double>(edges));

    for (Anchor& a : anchors_) a.graph = ppn::ConfigGraph{};
    spilledGraph_ = ppn::ConfigGraph{};
  }

 private:
  static constexpr std::uint64_t kAnchorIdBase = 1000;
  static constexpr std::uint64_t kSpillBytes = 64 * 1024;

  struct Anchor {
    Anchor(const char* k, ppn::StateId bound, std::uint32_t pop, bool solvesAt)
        : key(k), p(bound), n(pop), solves(solvesAt) {}
    const char* key;
    ppn::StateId p;
    std::uint32_t n;
    bool solves;  ///< expected verdict (symmetric-global needs N <= P)
    std::unique_ptr<ppn::Protocol> proto;
    ppn::Problem problem;
    std::vector<ppn::Configuration> initials;
    ppn::ConfigGraph graph;
    std::uint32_t numSccs = 0;
    std::uint32_t numBottom = 0;
    ppn::GlobalVerdict verdict;
  };

  std::string spillDir_;
  std::vector<Anchor> anchors_;
  std::vector<ppn::Table1CellResult> cells_;
  std::vector<double> cellMillis_;
  ppn::ConfigGraph spilledGraph_;
};

// --- convergence: convergence_sweep E7+E8, then exact_vs_simulated ---------

constexpr std::uint32_t kSweepRuns = 64;
constexpr std::uint32_t kE18Runs = 512;
constexpr std::uint64_t kConvergenceSeed = 99;

std::string summaryTokens(const char* prefix, const ppn::Summary& s) {
  return format("%s.count=%" PRIu64 " %s.mean=%.17g %s.sd=%.17g %s.min=%.17g "
                "%s.max=%.17g %s.median=%.17g %s.p10=%.17g %s.p90=%.17g",
                prefix, s.count, prefix, s.mean, prefix, s.stddev, prefix,
                s.min, prefix, s.max, prefix, s.median, prefix, s.p10, prefix,
                s.p90);
}

class ConvergenceWorkload final : public Workload {
 public:
  explicit ConvergenceWorkload(const WorkloadOptions& options)
      : parThreads_(options.parThreads) {}

  std::uint64_t defaultSeed() const override { return kConvergenceSeed; }
  std::uint64_t stallNudges() const override { return guard_.nudges(); }

  SetupTimes setup() override {
    SetupTimes t;
    Nanos begin = nowNanos();
    points_.clear();
    // E7: P = N for every naming protocol (counting excluded, global-leader
    // capped at N = 4), exactly as convergence_sweep --nmax 11 plans it.
    for (const auto& key : ppn::protocolKeys()) {
      if (key == "counting") continue;
      const std::uint32_t cap = key == "global-leader" ? 4 : 11;
      for (std::uint32_t n = 3; n <= cap; ++n) {
        points_.push_back(Point{format("e7.%s.n%u", key.c_str(), n), n,
                                initFor(key), n,
                                ppn::makeProtocol(key, n)});
      }
    }
    // E8: slack P - N at N = 6.
    for (const auto& key : ppn::protocolKeys()) {
      for (std::uint32_t p = 6; p <= 12; p += 2) {
        if ((key == "counting" || key == "global-leader") && p == 6) continue;
        points_.push_back(Point{format("e8.%s.p%u", key.c_str(), p), 6,
                                initFor(key), std::uint64_t{p} * 7,
                                ppn::makeProtocol(key, p)});
      }
    }
    rows_.clear();
    rows_.push_back(Row{"color", 0, std::make_unique<ppn::ColorExample>(), {}});
    for (const ppn::StateId p : {3u, 4u, 5u}) {
      rows_.push_back(Row{format("asymmetric.homonym.p%u", p), p,
                          ppn::makeProtocol("asymmetric", p), {}});
    }
    for (const ppn::StateId p : {3u, 4u}) {
      rows_.push_back(Row{format("leader-uniform.p%u", p), p,
                          ppn::makeProtocol("leader-uniform", p), {}});
    }
    for (const ppn::StateId p : {2u, 3u}) {
      rows_.push_back(Row{format("selfstab-weak.sink.p%u", p), p,
                          ppn::makeProtocol("selfstab-weak", p), {}});
    }
    for (const ppn::StateId p : {2u, 3u}) {
      rows_.push_back(Row{format("global-leader.homonym.p%u", p), p,
                          ppn::makeProtocol("global-leader", p), {}});
    }
    t.protocols = secondsSince(begin);

    // exact_vs_simulated's fixed start configurations.
    begin = nowNanos();
    rows_[0].start = ppn::Configuration{{1, 0, 0}, std::nullopt};
    for (std::size_t r = 1; r < rows_.size(); ++r) {
      Row& row = rows_[r];
      if (row.name.rfind("asymmetric", 0) == 0) {
        row.start.mobile.assign(row.p, 0);
      } else if (row.name.rfind("leader-uniform", 0) == 0) {
        row.start = ppn::uniformConfiguration(*row.proto, row.p);
      } else if (row.name.rfind("selfstab-weak", 0) == 0) {
        row.start.mobile.assign(row.p, 0);
        row.start.leader = ppn::LeaderStateId{0};
      } else {
        row.start.mobile.assign(row.p, 1 % row.p);
        row.start.leader = *row.proto->initialLeaderState();
      }
    }
    t.initials = secondsSince(begin);

    begin = nowNanos();
    pool1_ = startPool(1);
    poolPar_ = startPool(parThreads_);
    t.pool = secondsSince(begin);
    return t;
  }

  void run(PassContext& ctx) override {
    ppn::BatchEngine& engine = ctx.threads == 1 ? *pool1_ : *poolPar_;
    std::uint64_t runIdBase = 0;
    std::uint64_t callId = 0;
    jobs_.clear();
    pointResults_.clear();
    jobMillis_.clear();
    // One job per point, awaited before the next is submitted (as the
    // binary does).
    for (const Point& point : points_) {
      ppn::BatchSpec spec;
      spec.numMobile = point.n;
      spec.init = point.init;
      spec.sched = ppn::SchedulerKind::kRandom;
      spec.runs = kSweepRuns;
      spec.seed = ctx.seed + point.seedOffset;
      spec.limits = ppn::RunLimits{200'000'000, 256};
      spec.observer = ctx.tracer;
      spec.runIdBase = runIdBase;
      runIdBase += kSweepRuns;
      guard_.watch(engine);
      const auto job = timedCall(ctx, "batch", ++callId, [&] {
        return engine.submit(*point.proto, spec);
      });
      const auto result =
          timedCall(ctx, "batch", callId, [&] { return job.value->wait(); });
      guard_.unwatch();
      recordJob(ctx, job.seconds, result.seconds);
      jobs_.push_back(job.value);
      pointResults_.push_back(result.value);
    }
    // exact_vs_simulated: exact expectation, then 512 simulated runs.
    rowResults_.clear();
    for (const Row& row : rows_) {
      RowResult out;
      const auto h = timedCall(ctx, "hitting_time", ++callId, [&] {
        return ppn::expectedConvergenceTime(*row.proto, row.start, 4000);
      });
      ctx.add("hitting_time.busy_s", h.seconds);
      out.exact = h.value;
      if (h.value.computed && !h.value.diverges) {
        const std::vector<std::uint64_t> seeds =
            ppn::drawRunSeeds(e18Seed(ctx.seed), kE18Runs);
        std::vector<ppn::LanePlan> plans(kE18Runs);
        for (std::uint32_t r = 0; r < kE18Runs; ++r) {
          plans[r].start = row.start;
          plans[r].schedSeed = seeds[r];
          plans[r].runId = runIdBase + r;
        }
        runIdBase += kE18Runs;
        ppn::LaneJobSpec spec;
        spec.sched = ppn::SchedulerKind::kRandom;
        spec.limits = ppn::RunLimits{50'000'000, 1};
        spec.observer = ctx.tracer;
        guard_.watch(engine);
        const auto job = timedCall(ctx, "batch", ++callId, [&] {
          return engine.submitLanes(*row.proto, std::move(plans), spec);
        });
        const auto wait =
            timedCall(ctx, "batch", callId, [&] { return job.value->wait(); });
        guard_.unwatch();
        recordJob(ctx, job.seconds, wait.seconds);
        jobs_.push_back(job.value);
        out.job = job.value;
      }
      rowResults_.push_back(std::move(out));
    }
  }

  void collect(PassContext& ctx) override {
    std::uint64_t runs = 0;
    std::uint64_t named = 0;
    std::uint64_t interactions = 0;
    for (const auto& job : jobs_) {
      for (const ppn::RunOutcome& o : job->outcomes()) {
        ++runs;
        named += o.namingSolved ? 1 : 0;
        interactions += o.totalInteractions;
      }
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const ppn::BatchResult& r = pointResults_[i];
      Unit u;
      u.name = points_[i].name;
      u.fixed = format("runs=%u", r.runs);
      u.seeded = format("converged=%u named=%u timedOut=%u degraded=%d ",
                        r.converged, r.named, r.timedOut, r.degraded ? 1 : 0) +
                 summaryTokens("conv", r.convergenceInteractions) + " " +
                 summaryTokens("ptime", r.parallelTime);
      u.ok = r.named == r.runs && r.runs == kSweepRuns;
      ctx.units.push_back(std::move(u));
    }
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const RowResult& row = rowResults_[i];
      Unit u;
      u.name = "e18." + rows_[i].name;
      u.fixed = format("computed=%d diverges=%d states=%zu ~exact=%.17g",
                       row.exact.computed ? 1 : 0, row.exact.diverges ? 1 : 0,
                       row.exact.numStates, row.exact.expectedInteractions);
      u.ok = false;
      if (row.job) {
        std::vector<double> samples;
        for (const ppn::RunOutcome& o : row.job->outcomes()) {
          if (o.silent) {
            samples.push_back(static_cast<double>(o.convergenceInteractions));
          }
        }
        const ppn::Summary s = ppn::summarize(std::move(samples));
        const double stderrMean =
            s.count > 1 ? s.stddev / std::sqrt(static_cast<double>(s.count))
                        : 0.0;
        // exact_vs_simulated's agreement rule.
        u.ok = std::fabs(s.mean - row.exact.expectedInteractions) <=
               5.0 * stderrMean + 1e-9;
        u.seeded = format("sim_count=%" PRIu64 " sim_mean=%.3f sim_sd=%.2f",
                          s.count, s.mean, s.stddev);
      }
      ctx.units.push_back(std::move(u));
      ctx.add("hitting_time.calls", 1);
      ctx.add("hitting_time.states", static_cast<double>(row.exact.numStates));
    }
    ctx.add("batch.jobs", static_cast<double>(jobs_.size()));
    ctx.add("batch.runs", static_cast<double>(runs));
    ctx.add("batch.interactions", static_cast<double>(interactions));
    ctx.add("batch.named_ratio",
            runs == 0 ? 0.0
                      : static_cast<double>(named) / static_cast<double>(runs));
    ctx.add("batch.job_p50_ms", median(jobMillis_));
    ctx.add("batch.job_max_ms", maxOf(jobMillis_));
    jobs_.clear();
    rowResults_.clear();
  }

 private:
  struct Point {
    std::string name;
    std::uint32_t n;
    ppn::InitKind init;
    std::uint64_t seedOffset;  ///< the point's seed is the pass seed + this
    std::unique_ptr<ppn::Protocol> proto;
  };
  struct Row {
    std::string name;
    ppn::StateId p;  ///< the bound P; the population is N = P
    std::unique_ptr<ppn::Protocol> proto;
    ppn::Configuration start;
  };
  struct RowResult {
    ppn::HittingTime exact;
    std::shared_ptr<ppn::BatchEngine::Job> job;
  };

  static ppn::InitKind initFor(const std::string& key) {
    return key == "leader-uniform" ? ppn::InitKind::kUniform
                                   : ppn::InitKind::kArbitrary;
  }

  /// exact_vs_simulated draws its runs from seed 7; the default workload
  /// seed keeps that, any other seed moves it.
  static std::uint64_t e18Seed(std::uint64_t seed) {
    return 7 ^ seed ^ kConvergenceSeed;
  }

  void recordJob(PassContext& ctx, double submitSeconds, double waitSeconds) {
    ctx.add("batch.submit_s", submitSeconds);
    ctx.add("batch.wait_s", waitSeconds);
    ctx.add("batch.busy_s", submitSeconds + waitSeconds);
    jobMillis_.push_back((submitSeconds + waitSeconds) * 1e3);
  }

  std::uint32_t parThreads_;
  std::vector<Point> points_;
  std::vector<Row> rows_;
  std::unique_ptr<ppn::BatchEngine> pool1_;
  std::unique_ptr<ppn::BatchEngine> poolPar_;
  StallGuard guard_;  ///< after the pools, so it stops before they go
  std::vector<std::shared_ptr<ppn::BatchEngine::Job>> jobs_;
  std::vector<ppn::BatchResult> pointResults_;
  std::vector<RowResult> rowResults_;
  std::vector<double> jobMillis_;
};

// --- robustness: robustness_table defaults on a shared BatchEngine ---------

constexpr std::uint64_t kRobustnessSeed = 2026;

class RobustnessWorkload final : public Workload {
 public:
  explicit RobustnessWorkload(const WorkloadOptions& options)
      : parThreads_(options.parThreads) {}

  std::uint64_t defaultSeed() const override { return kRobustnessSeed; }
  std::uint64_t stallNudges() const override { return guard_.nudges(); }

  SetupTimes setup() override {
    SetupTimes t;
    // certifyRecovery builds each cell's protocol itself; the set-up is the
    // spec and the pool.
    Nanos begin = nowNanos();
    spec_ = ppn::CertifySpec{};
    t.protocols = secondsSince(begin);
    begin = nowNanos();
    pool1_ = startPool(1);
    poolPar_ = startPool(parThreads_);
    t.pool = secondsSince(begin);
    return t;
  }

  void run(PassContext& ctx) override {
    ppn::CertifySpec spec = spec_;
    spec.seed = ctx.seed;
    spec.threads = ctx.threads;
    spec.engine = ctx.threads == 1 ? pool1_.get() : poolPar_.get();
    spec.observer = ctx.tracer;
    guard_.watch(*spec.engine);
    const auto t = timedCall(ctx, "certify", 1,
                             [&] { return ppn::certifyRecovery(spec); });
    guard_.unwatch();
    ctx.add("certify.busy_s", t.seconds);
    table_ = t.value;
  }

  void collect(PassContext& ctx) override {
    std::uint64_t runs = 0;
    std::uint64_t recovered = 0;
    std::uint64_t faults = 0;
    for (const ppn::RobustnessCell& c : table_.cells) {
      Unit u;
      u.name = format("%s.n%u.%s.%s", c.protocol.c_str(), c.population,
                      ppn::faultRegimeName(c.regime).c_str(),
                      ppn::schedulerKindName(c.sched).c_str());
      u.fixed = "verdict=" + ppn::cellVerdictName(c.verdict);
      ppn::JsonWriter w;
      ppn::writeRobustnessCellJson(w, c);
      u.seeded = w.str();
      u.ok = c.verdict != ppn::CellVerdict::kFailed &&
             c.verdict != ppn::CellVerdict::kDegraded;
      ctx.units.push_back(std::move(u));
      runs += c.result.runs;
      recovered += c.result.recovered;
      for (const auto& o : c.result.outcomes) faults += o.faultsInjected;
    }
    ctx.add("certify.cells", static_cast<double>(table_.cells.size()));
    ctx.add("certify.runs", static_cast<double>(runs));
    ctx.add("certify.faults_injected", static_cast<double>(faults));
    ctx.add("certify.recovered_ratio",
            runs == 0 ? 0.0
                      : static_cast<double>(recovered) /
                            static_cast<double>(runs));
  }

 private:
  std::uint32_t parThreads_;
  ppn::CertifySpec spec_;
  std::unique_ptr<ppn::BatchEngine> pool1_;
  std::unique_ptr<ppn::BatchEngine> poolPar_;
  StallGuard guard_;  ///< after the pools, so it stops before they go
  ppn::RobustnessTable table_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const WorkloadOptions& options) {
  if (options.name == "search") return std::make_unique<SearchWorkload>();
  if (options.name == "exact") return std::make_unique<ExactWorkload>(options);
  if (options.name == "convergence") {
    return std::make_unique<ConvergenceWorkload>(options);
  }
  if (options.name == "robustness") {
    return std::make_unique<RobustnessWorkload>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.name + "'");
}

}  // namespace perfbench
