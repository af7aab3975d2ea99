// The benchmark's four workloads. Each replays one or more user-facing
// binaries' sequence of public library calls (see README.md for the exact
// mapping) and times every call from outside.
//
// A workload is set up once, then passed over repeatedly at 1 thread and at
// T threads. run() is the timed replay; collect() runs after the pass clock
// has stopped and turns what run() kept into oracle units and per-layer
// counts, so checking never counts as the program's time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "driver/oracle.h"
#include "driver/spans.h"

namespace perfbench {

struct WorkloadOptions {
  std::string name;
  /// T: the thread count of the parallel pass (pools are sized in setup).
  std::uint32_t parThreads = 1;
  /// Where spilled explorations put their run files.
  std::string spillDir;
};

/// One pass: its seed and thread count, its tracer (null when untraced), and
/// what it produced.
struct PassContext {
  /// Seeds the simulation inputs of seeded workloads (see
  /// Workload::defaultSeed); the others ignore it.
  std::uint64_t seed = 0;
  std::uint32_t threads = 1;
  Tracer* tracer = nullptr;
  std::map<std::string, double> metrics;  ///< per-layer values of this pass
  std::vector<Unit> units;

  void add(const std::string& metric, double v) { metrics[metric] += v; }
};

template <class R>
struct Timed {
  R value;
  double seconds = 0.0;
};

/// Calls `f` as one direct call into `layer`: timed from outside, and a span
/// when the pass is traced.
template <class F>
auto timedCall(PassContext& ctx, const char* layer, std::uint64_t id, F&& f)
    -> Timed<std::invoke_result_t<F&>> {
  const std::size_t span =
      ctx.tracer != nullptr ? ctx.tracer->open(layer, id) : 0;
  const Nanos begin = nowNanos();
  auto value = f();
  const double seconds = static_cast<double>(nowNanos() - begin) * 1e-9;
  if (ctx.tracer != nullptr) ctx.tracer->close(span);
  return Timed<std::invoke_result_t<F&>>{std::move(value), seconds};
}

/// Seconds spent in each part of one set-up.
struct SetupTimes {
  double protocols = 0.0;
  double initials = 0.0;
  double pool = 0.0;
  double total() const { return protocols + initials + pool; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds protocols, initial-configuration sets and pools.
  virtual SetupTimes setup() = 0;
  /// The timed replay.
  virtual void run(PassContext& ctx) = 0;
  /// Untimed: units and counts from what run() kept; releases it.
  virtual void collect(PassContext& ctx) = 0;
  /// The seed the oracle's seeded texts were recorded with; 0 when the
  /// workload's inputs do not depend on the pass seed.
  virtual std::uint64_t defaultSeed() const { return 0; }
  /// How often a stalled BatchEngine call had to be woken (see StallGuard
  /// in workloads.cpp); 0 for workloads without an engine.
  virtual std::uint64_t stallNudges() const { return 0; }
};

/// "search", "exact", "convergence" or "robustness"; throws
/// std::invalid_argument for any other name.
std::unique_ptr<Workload> makeWorkload(const WorkloadOptions& options);

}  // namespace perfbench
