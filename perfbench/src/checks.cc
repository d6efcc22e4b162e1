#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

using p2p::alm::MulticastTree;
using p2p::alm::ParticipantId;

std::string CheckTree(const MulticastTree& tree, ParticipantId root,
                      const std::vector<ParticipantId>& members,
                      const std::function<int(ParticipantId)>& bound,
                      const p2p::alm::LatencyFn& latency,
                      double reported_height) {
  std::ostringstream err;
  if (tree.root() != root) {
    err << "tree rooted at " << tree.root() << ", expected " << root;
    return err.str();
  }
  for (const ParticipantId m : members) {
    if (!tree.Contains(m)) {
      err << "member " << m << " is not in the tree";
      return err.str();
    }
  }
  // Walk the child links from the root: every tree node must be reached
  // exactly once, and arrival times give the height from the oracle.
  std::vector<double> arrival(tree.participant_space(), -1.0);
  std::vector<ParticipantId> frontier{root};
  arrival[root] = 0.0;
  std::size_t reached = 0;
  double height = 0.0;
  while (!frontier.empty()) {
    const ParticipantId v = frontier.back();
    frontier.pop_back();
    ++reached;
    height = std::max(height, arrival[v]);
    const auto& kids = tree.children(v);
    const int degree =
        static_cast<int>(kids.size()) + (v == root ? 0 : 1);
    if (degree > bound(v)) {
      err << "node " << v << " has degree " << degree << " over its bound "
          << bound(v);
      return err.str();
    }
    for (const ParticipantId c : kids) {
      if (arrival[c] >= 0.0 || c == root) {
        err << "node " << c << " is reached twice (cycle or shared child)";
        return err.str();
      }
      arrival[c] = arrival[v] + latency(v, c);
      frontier.push_back(c);
    }
  }
  if (reached != tree.size()) {
    err << "root reaches " << reached << " of " << tree.size()
        << " tree nodes";
    return err.str();
  }
  const double tol = 1e-6 * std::max(1.0, std::fabs(height));
  if (std::fabs(height - reported_height) > tol) {
    err << "height recomputed from the oracle is " << height
        << " ms, the planner reported " << reported_height << " ms";
    return err.str();
  }
  return "";
}

std::string CheckRegistryDrained(const p2p::pool::DegreeRegistry& registry) {
  const std::size_t used = registry.TotalUsed();
  if (used == 0) return "";
  return "degree registry holds " + std::to_string(used) +
         " slots after every session left";
}

std::string CheckConservation(const std::string& what, std::uint64_t sent,
                              std::uint64_t delivered, std::uint64_t dropped,
                              std::uint64_t inflight) {
  if (sent == delivered + dropped + inflight) return "";
  std::ostringstream err;
  err << what << " conservation broken: sent " << sent << " != delivered "
      << delivered << " + dropped " << dropped << " + in flight " << inflight;
  return err.str();
}

int RunSelfTest() {
  int bad = 0;
  const auto expect = [&bad](bool caught, const std::string& msg,
                             const char* what) {
    std::printf("selftest %-34s %s%s%s\n", what, caught ? "ok" : "FAILED",
                msg.empty() ? "" : ": ", msg.c_str());
    if (!caught) ++bad;
  };
  // Root 0 with members 1..3 on a line: latency |a - b| ms.
  const p2p::alm::LatencyFn line = [](ParticipantId a, ParticipantId b) {
    return std::fabs(static_cast<double>(a) - static_cast<double>(b));
  };
  const std::vector<ParticipantId> members{1, 2, 3};
  const auto bound2 = [](ParticipantId) { return 2; };

  MulticastTree chain(4);  // 0 -> 1 -> 2 -> 3, height 3
  chain.SetRoot(0);
  chain.AddChild(0, 1);
  chain.AddChild(1, 2);
  chain.AddChild(2, 3);
  std::string msg = CheckTree(chain, 0, members, bound2, line, 3.0);
  expect(msg.empty(), msg, "intact tree passes");
  msg = CheckTree(chain, 0, members, bound2, line, 2.5);
  expect(!msg.empty(), msg, "wrong reported height caught");

  MulticastTree star(4);  // root fan-out 3 over a bound of 2
  star.SetRoot(0);
  for (ParticipantId v = 1; v <= 3; ++v) star.AddChild(0, v);
  msg = CheckTree(star, 0, members, bound2, line, 3.0);
  expect(!msg.empty(), msg, "degree over bound caught");

  MulticastTree partial(4);  // member 3 never attached
  partial.SetRoot(0);
  partial.AddChild(0, 1);
  partial.AddChild(1, 2);
  msg = CheckTree(partial, 0, members, bound2, line, 2.0);
  expect(!msg.empty(), msg, "unreached member caught");

  p2p::pool::DegreeRegistry registry(std::vector<int>{4, 4, 4});
  registry.Claim(1, /*session=*/7, /*priority=*/2, /*is_member=*/false);
  registry.Claim(2, 7, 2, false);
  registry.Release(1, 7);  // the session "leaves" but forgets node 2
  msg = CheckRegistryDrained(registry);
  expect(!msg.empty(), msg, "leaked reservation caught");
  registry.ReleaseSession(7);
  msg = CheckRegistryDrained(registry);
  expect(msg.empty(), msg, "drained registry passes");

  msg = CheckConservation("selftest", 10, 7, 2, 0);
  expect(!msg.empty(), msg, "lost message caught");
  msg = CheckConservation("selftest", 10, 7, 2, 1);
  expect(msg.empty(), msg, "balanced message counts pass");

  std::printf("selftest: %s\n", bad == 0 ? "all corruptions caught" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
