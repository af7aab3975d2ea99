#include "analysis/scc.h"

#include <algorithm>
#include <limits>

namespace ppn {

namespace {

/// One out-edge as Tarjan needs it: the target, and whether the transition
/// changes anything (only changed edges can leave a bottom SCC).
struct Target {
  std::uint32_t to;
  bool changed;
};

/// One Tarjan DFS frame. Its node's out-targets sit in the shared targets
/// stack at [begin, end); `next` is the next one to visit.
struct Frame {
  std::uint32_t node;
  std::uint32_t begin;
  std::uint32_t next;
  std::uint32_t end;
};

/// Per-thread Tarjan working memory, reused across decompositions so the
/// checkers' thousands of tiny graphs allocate only the returned
/// SccDecomposition. Every vector is refilled before use. After a graph of
/// more than kRetainNodes nodes it is released, so one large graph does not
/// pin its working memory.
struct SccScratch {
  static constexpr std::uint32_t kRetainNodes = 4096;

  std::vector<std::uint32_t> index;
  std::vector<std::uint32_t> lowlink;
  std::vector<std::uint8_t> onStack;
  /// leaves[v]: v has a changed edge into another SCC.
  std::vector<std::uint8_t> leaves;
  std::vector<std::uint32_t> stack;
  std::vector<Frame> callStack;
  /// Out-targets of every frame on the call stack, innermost last: a frame
  /// pushes its node's targets on entry and truncates them on exit, so this
  /// holds the sum of the out-degrees along the current DFS path.
  std::vector<Target> targets;
};

SccScratch& sccScratch() {
  thread_local SccScratch scratch;
  return scratch;
}

}  // namespace

SccDecomposition decomposeScc(const ConfigGraph& graph) {
  const auto n = static_cast<std::uint32_t>(graph.size());
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();

  SccDecomposition out;
  out.sccOf.assign(n, kUnvisited);

  SccScratch& s = sccScratch();
  s.index.assign(n, kUnvisited);
  s.lowlink.assign(n, 0);
  s.onStack.assign(n, 0);
  s.leaves.assign(n, 0);
  s.stack.clear();
  s.callStack.clear();
  s.targets.clear();

  // Each frame materializes its node's targets once at push time (one
  // decode per node for compressed graphs) — Tarjan revisits frame.next
  // across iterations, which a streaming decode can't serve cheaply.
  const auto enter = [&](std::uint32_t v, std::uint32_t& nextIndex) {
    s.index[v] = s.lowlink[v] = nextIndex++;
    s.stack.push_back(v);
    s.onStack[v] = 1;
    const auto begin = static_cast<std::uint32_t>(s.targets.size());
    graph.forEachEdge(
        v, [&](const Edge& e) { s.targets.push_back({e.to, e.changed}); });
    s.callStack.push_back(
        {v, begin, begin, static_cast<std::uint32_t>(s.targets.size())});
  };
  std::uint32_t nextIndex = 0;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (s.index[root] != kUnvisited) continue;
    enter(root, nextIndex);

    while (!s.callStack.empty()) {
      Frame& frame = s.callStack.back();
      const std::uint32_t v = frame.node;
      if (frame.next < frame.end) {
        const std::uint32_t w = s.targets[frame.next].to;
        ++frame.next;
        if (s.index[w] == kUnvisited) {
          enter(w, nextIndex);  // invalidates `frame`
        } else if (s.onStack[w] != 0) {
          s.lowlink[v] = std::min(s.lowlink[v], s.index[w]);
        }
      } else {
        // Every target is finished now. One already assigned an SCC lies in
        // a different, completed SCC; one still on the stack shares v's SCC
        // (v reaches it, and it reaches an ancestor of v).
        for (std::uint32_t k = frame.begin; k < frame.end; ++k) {
          const Target& t = s.targets[k];
          if (t.changed && out.sccOf[t.to] != kUnvisited) s.leaves[v] = 1;
        }
        s.targets.resize(frame.begin);
        s.callStack.pop_back();
        if (!s.callStack.empty()) {
          const std::uint32_t parent = s.callStack.back().node;
          s.lowlink[parent] = std::min(s.lowlink[parent], s.lowlink[v]);
        }
        if (s.lowlink[v] == s.index[v]) {
          const std::uint32_t sccId = out.numSccs++;
          bool bottom = true;
          for (;;) {
            const std::uint32_t w = s.stack.back();
            s.stack.pop_back();
            s.onStack[w] = 0;
            out.sccOf[w] = sccId;
            if (s.leaves[w] != 0) bottom = false;
            if (w == v) break;
          }
          out.bottom.push_back(bottom);
        }
      }
    }
  }
  if (n > SccScratch::kRetainNodes) s = SccScratch{};

  out.members.assign(out.numSccs, {});
  for (std::uint32_t v = 0; v < n; ++v) out.members[out.sccOf[v]].push_back(v);
  return out;
}

}  // namespace ppn
