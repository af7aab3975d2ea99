// Correctness oracle for the benchmark's units of work.
//
// A unit is one search job, one Table 1 cell, one anchor check, one sweep
// point or E18 row, or one robustness cell. Every pass renders each unit as
// text in two parts:
//  * `fixed`  — output that does not depend on the seed (counts, verdicts,
//    exact Markov values), compared on every run;
//  * `seeded` — output that does (simulation statistics), compared only when
//    the run uses the seed the oracle file was recorded with.
// Texts are space-separated tokens. A token whose key starts with '~'
// ("~exact=49.62") is numeric and matches within a relative 1e-9; all other
// tokens must match exactly.
//
// Oracle files (oracle/<workload>.tsv) hold one "name<TAB>fixed<TAB>seeded"
// line per unit, in pass order, after an optional "# seed N" header (seeded
// workloads) and '#' comment lines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Unit {
  std::string name;
  std::string fixed;
  std::string seeded;
  /// The workload's own seed-free checks (verdict PASS, all runs named,
  /// simulation within 5 standard errors of the exact value, ...).
  bool ok = true;
};

/// Token-wise comparison with the '~' numeric tolerance described above.
bool textsMatch(const std::string& got, const std::string& want);

/// Units attempted and failed in one pass, with a reason per failure.
struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
};

class Oracle {
 public:
  /// Parses an oracle file; throws std::runtime_error on a malformed line.
  static Oracle parse(std::istream& in);

  /// Checks one pass's units: a unit fails when its own checks failed, it is
  /// absent from the oracle, its text differs, or — given a `reference`
  /// pass (the run's first) — it differs from that pass in any part, which
  /// is how thread-count invariance is enforced. `seeded` texts are compared
  /// with the oracle only when `seed` equals the oracle's seed. Oracle units
  /// the pass did not produce count as attempted and failed.
  CheckResult check(const std::vector<Unit>& units, std::uint64_t seed,
                    const std::vector<Unit>* reference = nullptr) const;

  /// Renders `units` in the file format (for recording a new oracle).
  static std::string format(const std::vector<Unit>& units,
                            std::optional<std::uint64_t> seed);

 private:
  std::optional<std::uint64_t> seed_;
  std::vector<Unit> units_;
};

}  // namespace perfbench
