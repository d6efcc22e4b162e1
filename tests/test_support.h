// Shared fixtures and helpers for the test suite: small (fast) topologies,
// pre-built pools, and common assertions.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>

#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "pool/resource_pool.h"

namespace p2p::testing {

// FNV-1a over a run's observable streams, so a long output (event log,
// metrics snapshot, trace bytes) can be pinned by one 64-bit constant.
// Integers and times fold in as their 8 little-endian bytes, strings as
// their length followed by their bytes.
class StreamDigest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte((v >> (8 * i)) & 0xffu);
  }
  void AddTime(double t) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    Add(bits);
  }
  void AddBytes(std::string_view s) {
    Add(s.size());
    for (const char c : s) AddByte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void AddByte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

// A small transit-stub configuration: 2×3 transit routers, 2 stub domains
// of 4 routers per transit router → 6 + 48 = 54 routers, `hosts` end
// systems. Fast to generate and Dijkstra.
inline net::TransitStubParams SmallTopologyParams(std::size_t hosts = 120) {
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_routers_per_domain = 3;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub_domain = 4;
  p.end_hosts = hosts;
  return p;
}

inline pool::PoolConfig SmallPoolConfig(std::size_t hosts = 120,
                                        std::uint64_t seed = 17) {
  pool::PoolConfig cfg;
  cfg.topology = SmallTopologyParams(hosts);
  cfg.seed = seed;
  cfg.coord_rounds = 4;
  cfg.coord_nm_iterations = 60;
  return cfg;
}

// Pool construction dominates many tests' runtime; share one lazily-built
// pool per test binary. Tests that claim registry degrees must release
// them (RunMultiSessionExperiment already drains on exit).
inline pool::ResourcePool& SharedSmallPool() {
  static pool::ResourcePool* pool =
      new pool::ResourcePool(SmallPoolConfig());
  return *pool;
}

}  // namespace p2p::testing
