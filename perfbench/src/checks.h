// Correctness checks the benchmark applies to every repetition. Each
// returns an empty string when the output is valid, otherwise a message
// naming what broke; main() collects them and exits non-zero.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alm/tree.h"
#include "pool/degree_table.h"

namespace perfbench {

// A planned tree is valid when it is rooted at `root`, reaches every
// member from the root along child links (and nothing else is in it),
// keeps every node within its degree bound, and its height recomputed
// from `latency` equals the height the planner reported.
std::string CheckTree(const p2p::alm::MulticastTree& tree,
                      p2p::alm::ParticipantId root,
                      const std::vector<p2p::alm::ParticipantId>& members,
                      const std::function<int(p2p::alm::ParticipantId)>& bound,
                      const p2p::alm::LatencyFn& latency,
                      double reported_height);

// After every session left, the degree registry must hold no slot.
std::string CheckRegistryDrained(const p2p::pool::DegreeRegistry& registry);

// Message conservation: sent = delivered + dropped + in flight.
std::string CheckConservation(const std::string& what, std::uint64_t sent,
                              std::uint64_t delivered, std::uint64_t dropped,
                              std::uint64_t inflight);

// Feeds the checks a corrupted tree and a leaked reservation (and their
// intact twins); returns 0 when every corruption is caught and every
// intact input passes.
int RunSelfTest();

}  // namespace perfbench
