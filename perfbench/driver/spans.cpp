#include "driver/spans.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace perfbench {

Nanos nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

using Interval = std::pair<Nanos, Nanos>;

/// Sorts `v` and merges overlapping intervals in place.
void mergeIntervals(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const Interval& i : v) {
    if (out > 0 && i.first <= v[out - 1].second) {
      v[out - 1].second = std::max(v[out - 1].second, i.second);
    } else {
      v[out++] = i;
    }
  }
  v.resize(out);
}

}  // namespace

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  // Each span's self intervals: its interval minus the union of its
  // children's, collected per layer.
  std::map<std::string, std::vector<Interval>> selfByLayer;
  std::vector<Interval> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.begin) continue;  // never closed
    cover.clear();
    for (const std::size_t c : children[i]) {
      const Nanos b = std::max(spans[c].begin, s.begin);
      const Nanos e = std::min(spans[c].end, s.end);
      if (e > b) cover.emplace_back(b, e);
    }
    mergeIntervals(cover);
    auto& self = selfByLayer[s.layer];
    Nanos from = s.begin;
    for (const auto& [b, e] : cover) {
      if (b > from) self.emplace_back(from, b);
      from = e;
    }
    if (s.end > from) self.emplace_back(from, s.end);
  }
  // Overlapping self intervals of one layer (sibling runs advanced in
  // lockstep, or the same layer on several threads) count once.
  std::map<std::string, double> out;
  for (auto& [layer, intervals] : selfByLayer) {
    mergeIntervals(intervals);
    Nanos total = 0;
    for (const auto& [b, e] : intervals) total += e - b;
    out[layer] = static_cast<double>(total) * 1e-9;
  }
  return out;
}

double eventCoveredSeconds(const std::vector<Span>& spans) {
  std::vector<Interval> covered;
  for (const Span& s : spans) {
    if (s.source != SpanSource::kCall && s.end > s.begin) {
      covered.emplace_back(s.begin, s.end);
    }
  }
  mergeIntervals(covered);
  Nanos total = 0;
  for (const auto& [b, e] : covered) total += e - b;
  return static_cast<double>(total) * 1e-9;
}

const char* phaseLayer(const char* phase) {
  if (std::strcmp(phase, "explore") == 0) return "explore";
  if (std::strcmp(phase, "scc") == 0) return "scc";
  if (std::strcmp(phase, "search") == 0) return "search";
  // "check", "verdict", "synthesize", "sink_analysis": the checkers' own
  // work around the exploration and SCC passes.
  return "checker";
}

void writeSpansJsonl(const std::vector<Span>& spans, std::ostream& out) {
  static const char* const kSource[] = {"call", "phase", "run"};
  for (const Span& s : spans) {
    out << "{\"layer\":\"" << s.layer << "\",\"kind\":\"" << s.kind
        << "\",\"source\":\"" << kSource[static_cast<int>(s.source)]
        << "\",\"id\":" << s.id << ",\"begin_ns\":" << s.begin
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << "}\n";
  }
}

std::int64_t Tracer::parentFor(std::thread::id thread) const {
  const auto it = phases_.find(thread);
  if (it != phases_.end() && !it->second.empty()) {
    return static_cast<std::int64_t>(it->second.back());
  }
  return calls_.empty() ? -1 : static_cast<std::int64_t>(calls_.back());
}

std::size_t Tracer::open(const char* layer, std::uint64_t id) {
  const Nanos now = nowNanos();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.layer = layer;
  s.kind = layer;
  s.source = SpanSource::kCall;
  s.id = id;
  s.begin = now;
  s.end = now - 1;  // open
  s.parent = calls_.empty() ? -1 : static_cast<std::int64_t>(calls_.back());
  spans_.push_back(s);
  calls_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  const Nanos now = nowNanos();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[span].end = now;
  if (!calls_.empty() && calls_.back() == span) calls_.pop_back();
}

void Tracer::onPhaseStart(const ppn::ExplorePhaseStartEvent& e) {
  const Nanos now = nowNanos();
  const auto thread = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.layer = phaseLayer(e.phase);
  s.kind = e.phase;
  s.source = SpanSource::kPhase;
  s.id = e.exploreId;
  s.begin = now;
  s.end = now - 1;
  s.parent = parentFor(thread);
  spans_.push_back(s);
  phases_[thread].push_back(spans_.size() - 1);
}

void Tracer::onPhaseEnd(const ppn::ExplorePhaseEndEvent& e) {
  const Nanos now = nowNanos();
  const auto thread = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  auto& stack = phases_[thread];
  // Phases nest LIFO per exploreId on the emitting thread.
  if (stack.empty() || spans_[stack.back()].id != e.exploreId ||
      std::strcmp(spans_[stack.back()].kind, e.phase) != 0) {
    return;
  }
  spans_[stack.back()].end = now;
  stack.pop_back();
}

void Tracer::onExploreProgress(const ppn::ExploreProgressEvent& e) {
  if (!e.done) return;
  const std::lock_guard<std::mutex> lock(mu_);
  ++explore_.explorations;
  explore_.nodes += e.nodes;
  explore_.dedupHits += e.dedupHits;
  explore_.expandMillis += e.expandMillis;
  explore_.dedupMillis += e.dedupMillis;
  explore_.appendMillis += e.appendMillis;
  explore_.ioMillis += e.ioMillis;
}

void Tracer::onMemorySample(const ppn::MemorySampleEvent& e) {
  const std::lock_guard<std::mutex> lock(mu_);
  explore_.ledgerPeakBytes =
      std::max(explore_.ledgerPeakBytes, e.highWaterBytes);
  if (e.spillRuns == 0) return;
  std::uint64_t& peak = spillRunsById_[e.exploreId];
  if (e.spillRuns > peak) {
    explore_.spillRuns += e.spillRuns - peak;
    peak = e.spillRuns;
  }
}

void Tracer::onRunStart(const ppn::RunStartEvent& e) {
  const Nanos now = nowNanos();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.layer = "sim";
  s.kind = "run";
  s.source = SpanSource::kRun;
  s.id = e.runId;
  s.begin = now;
  s.end = now - 1;
  s.parent = calls_.empty() ? -1 : static_cast<std::int64_t>(calls_.back());
  spans_.push_back(s);
  runs_[e.runId] = spans_.size() - 1;
}

void Tracer::onRunEnd(const ppn::RunEndEvent& e) {
  const Nanos now = nowNanos();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = runs_.find(e.runId);
  if (it == runs_.end()) return;
  spans_[it->second].end = now;
  runs_.erase(it);
}

void Tracer::onSilenceCheck(const ppn::SilenceCheckEvent& e) {
  silenceChecks_.fetch_add(1, std::memory_order_relaxed);
  if (e.silent) silenceHits_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench
