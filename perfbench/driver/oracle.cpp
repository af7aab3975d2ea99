#include "driver/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

std::vector<std::string> tokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

bool numbersMatch(const std::string& got, const std::string& want) {
  char* gotEnd = nullptr;
  char* wantEnd = nullptr;
  const double g = std::strtod(got.c_str(), &gotEnd);
  const double w = std::strtod(want.c_str(), &wantEnd);
  if (*gotEnd != '\0' || *wantEnd != '\0' || got.empty() || want.empty()) {
    return false;
  }
  return std::fabs(g - w) <= 1e-9 * std::max(1.0, std::fabs(w));
}

bool tokenMatches(const std::string& got, const std::string& want) {
  if (got == want) return true;
  if (want.empty() || want[0] != '~') return false;
  const auto gotEq = got.find('=');
  const auto wantEq = want.find('=');
  if (gotEq == std::string::npos || wantEq == std::string::npos ||
      got.compare(0, gotEq, want, 0, wantEq) != 0) {
    return false;
  }
  return numbersMatch(got.substr(gotEq + 1), want.substr(wantEq + 1));
}

std::vector<std::string> splitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t from = 0;
  for (;;) {
    const auto tab = line.find('\t', from);
    out.push_back(line.substr(from, tab - from));
    if (tab == std::string::npos) return out;
    from = tab + 1;
  }
}

}  // namespace

bool textsMatch(const std::string& got, const std::string& want) {
  const auto g = tokens(got);
  const auto w = tokens(want);
  if (g.size() != w.size()) return false;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (!tokenMatches(g[i], w[i])) return false;
  }
  return true;
}

Oracle Oracle::parse(std::istream& in) {
  Oracle oracle;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string prefix = "# seed ";
      if (line.rfind(prefix, 0) == 0) {
        oracle.seed_ = std::stoull(line.substr(prefix.size()));
      }
      continue;
    }
    const auto fields = splitTabs(line);
    if (fields.size() != 3 || fields[0].empty()) {
      throw std::runtime_error("oracle: malformed line '" + line + "'");
    }
    oracle.units_.push_back(Unit{fields[0], fields[1], fields[2], true});
  }
  return oracle;
}

CheckResult Oracle::check(const std::vector<Unit>& units, std::uint64_t seed,
                          const std::vector<Unit>* reference) const {
  std::unordered_map<std::string, const Unit*> expected;
  for (const Unit& u : units_) expected.emplace(u.name, &u);
  const bool compareSeeded = seed_.has_value() && *seed_ == seed;

  CheckResult result;
  std::unordered_map<std::string, bool> seen;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    ++result.attempted;
    seen[u.name] = true;
    std::string why;
    const auto it = expected.find(u.name);
    const Unit* ref =
        reference != nullptr && i < reference->size() ? &(*reference)[i]
                                                      : nullptr;
    if (!u.ok) {
      why = "own check failed";
    } else if (it == expected.end()) {
      why = "not in the oracle";
    } else if (!textsMatch(u.fixed, it->second->fixed)) {
      why = "got '" + u.fixed + "', want '" + it->second->fixed + "'";
    } else if (compareSeeded && !textsMatch(u.seeded, it->second->seeded)) {
      why = "got '" + u.seeded + "', want '" + it->second->seeded + "'";
    } else if (reference != nullptr &&
               (ref == nullptr || ref->name != u.name ||
                ref->fixed != u.fixed || ref->seeded != u.seeded)) {
      why = "differs from the reference pass";
    }
    if (!why.empty()) {
      ++result.failed;
      result.reasons.push_back(u.name + ": " + why);
    }
  }
  for (const Unit& u : units_) {
    if (seen.count(u.name) == 0) {
      ++result.attempted;
      ++result.failed;
      result.reasons.push_back(u.name + ": missing from the pass");
    }
  }
  return result;
}

std::string Oracle::format(const std::vector<Unit>& units,
                           std::optional<std::uint64_t> seed) {
  std::ostringstream out;
  if (seed) out << "# seed " << *seed << '\n';
  for (const Unit& u : units) {
    out << u.name << '\t' << u.fixed << '\t' << u.seeded << '\n';
  }
  return out.str();
}

}  // namespace perfbench
