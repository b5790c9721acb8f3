// Property tests for the incremental max-min allocator: under ANY
// randomized mix of flow arrivals, cancellations, and background-load
// steps, the dirty-component allocator must produce rates bit-identical
// to the global recompute (FluidEngine::compare_with_reference).
// Weighted max-min decomposes exactly across connected components, so
// any divergence is a bug, not float noise.  verify_allocator checks
// every settled sweep, on the paper's three-site paths and on link-list
// routes over a seeded random grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/fabric.hpp"
#include "net/path.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/gridworld.hpp"

namespace wadp::net {
namespace {

/// The paper testbed's wide-area geometry with a lively load process
/// (small grid step => frequent capacity steps during the horizon).
void add_paper_paths(Topology& topology, util::Rng& seeder, SimTime origin) {
  struct Wan {
    const char* a;
    const char* b;
    Duration rtt;
    Bandwidth bottleneck;
  };
  const Wan wans[] = {
      {"lbl", "anl", 0.055, 12'500'000.0},
      {"isi", "anl", 0.065, 12'500'000.0},
      {"lbl", "isi", 0.075, 11'000'000.0},
  };
  for (const Wan& wan : wans) {
    PathParams params;
    params.bottleneck = wan.bottleneck;
    params.rtt = wan.rtt;
    params.load.base = 0.38;
    params.load.ar_sigma = 0.05;
    params.load.episode_rate_per_hour = 2.0;
    params.load.episode_mean_minutes = 2.0;
    params.load.max_utilization = 0.82;
    params.load.grid_step = 10.0;  // step capacities often
    topology.add_path(wan.a, wan.b, params, seeder.next_u64(), origin);
    topology.add_path(wan.b, wan.a, params, seeder.next_u64(), origin);
  }
}

/// Size of the largest group of `routes` connected by shared links.
std::size_t largest_component(
    const std::map<FlowId, std::vector<CapacityProvider*>>& routes) {
  std::map<FlowId, bool> seen;
  std::size_t largest = 0;
  for (const auto& [root, unused] : routes) {
    if (seen[root]) continue;
    seen[root] = true;
    std::vector<FlowId> stack{root};
    std::size_t size = 0;
    while (!stack.empty()) {
      const auto& mine = routes.at(stack.back());
      stack.pop_back();
      ++size;
      for (const auto& [other, links] : routes) {
        if (seen[other]) continue;
        const bool shares = std::any_of(
            links.begin(), links.end(), [&](CapacityProvider* link) {
              return std::find(mine.begin(), mine.end(), link) != mine.end();
            });
        if (!shares) continue;
        seen[other] = true;
        stack.push_back(other);
      }
    }
    largest = std::max(largest, size);
  }
  return largest;
}

class AllocatorEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// The paper's three-site paths, one PathModel resource per flow.
TEST_P(AllocatorEquivalenceTest, ShadowVerifyFindsNoMismatch) {
  const std::uint64_t seed = GetParam();
  const SimTime origin = 1'000'000'000.0;
  sim::Simulator sim(origin);
  FluidEngine engine(sim, {.verify_allocator = true});
  Topology topology;
  util::Rng seeder(seed);
  add_paper_paths(topology, seeder, origin);

  std::vector<PathModel*> paths;
  for (const char* src : {"lbl", "isi", "anl"}) {
    for (const char* dst : {"lbl", "isi", "anl"}) {
      if (PathModel* p = topology.find(src, dst)) paths.push_back(p);
    }
  }

  util::Rng rng(seed ^ 0xc4u);
  const int kFlows = 48;
  for (int i = 0; i < kFlows; ++i) {
    PathModel* path = paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    const auto size = static_cast<Bytes>(rng.uniform(5e5, 1.5e8));
    const auto streams = static_cast<int>(rng.uniform_int(1, 8));
    const Duration start = rng.uniform(0.0, 400.0);
    const bool cancel = rng.uniform() < 0.25;
    const Duration cancel_after = rng.uniform(0.5, 40.0);
    sim.schedule_after(start, [&, path, size, streams, cancel,
                               cancel_after] {
      const FlowId id = engine.start_flow(
          {.path = path, .streams = streams, .size = size});
      if (cancel) {
        sim.schedule_after(cancel_after, [&engine, id] {
          engine.cancel_flow(id);  // no-op if already complete
        });
      }
    });
  }
  sim.run();

  const auto& stats = engine.alloc_stats();
  EXPECT_EQ(stats.verify_mismatches, 0u) << engine.first_mismatch();
  EXPECT_GT(stats.reallocs, 0u);
}

// Link-list routes over a seeded random grid: one-link flows and
// two-link flows that bridge adjacent links, so sharing components grow
// past a single link and the dirty-component expansion has to follow
// flows across resources.
TEST_P(AllocatorEquivalenceTest, GridChurnVerifyFindsNoMismatch) {
  const std::uint64_t seed = GetParam();
  const SimTime origin = 0.0;
  workload::GridSpec spec;
  spec.sites = 10;
  spec.links = 16;
  spec.load.ar_sigma = 0.08;
  spec.load.grid_step = 5.0;  // step capacities often
  const auto topology = workload::TopologyBuilder()
                            .random_grid(spec, seed)
                            .build(seed ^ 0x9du, origin);
  const auto& links = topology->links();

  sim::Simulator sim(origin);
  FluidEngine engine(sim, {.verify_allocator = true});
  util::Rng rng(seed ^ 0x5eu);
  std::map<FlowId, std::vector<CapacityProvider*>> active;
  std::size_t largest = 0;
  int completed = 0;
  int cancelled = 0;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int kFlows = 64;
  for (int i = 0; i < kFlows; ++i) {
    Link* first = links[pick(links.size())].get();
    std::vector<CapacityProvider*> route{first};
    Duration rtt = first->rtt();
    if (rng.uniform() < 0.5) {
      std::vector<Link*> adjacent;
      for (const auto& link : links) {
        if (link.get() == first) continue;
        if (link->site_a() == first->site_a() ||
            link->site_a() == first->site_b() ||
            link->site_b() == first->site_a() ||
            link->site_b() == first->site_b()) {
          adjacent.push_back(link.get());
        }
      }
      if (!adjacent.empty()) {
        Link* second = adjacent[pick(adjacent.size())];
        route.push_back(second);
        rtt += second->rtt();
      }
    }
    const auto size = static_cast<Bytes>(rng.uniform(5e6, 4e8));
    const auto streams = static_cast<int>(rng.uniform_int(1, 8));
    const Duration start = rng.uniform(0.0, 60.0);
    const bool cancel = rng.uniform() < 0.25;
    const Duration cancel_after = rng.uniform(0.5, 20.0);
    sim.schedule_after(start, [&, route, rtt, size, streams, cancel,
                               cancel_after] {
      const FlowId id = engine.start_flow(
          {.links = route,
           .tcp = topology->tcp(),
           .base_rtt = rtt,
           .streams = streams,
           .size = size,
           .on_complete = [&](const FlowStats& stats) {
             active.erase(stats.id);
             ++completed;
           }});
      active[id] = route;
      largest = std::max(largest, largest_component(active));
      if (cancel) {
        sim.schedule_after(cancel_after, [&, id] {
          if (engine.cancel_flow(id)) {
            active.erase(id);
            ++cancelled;
          }
        });
      }
    });
  }
  sim.run();

  const auto& stats = engine.alloc_stats();
  EXPECT_EQ(stats.verify_mismatches, 0u) << engine.first_mismatch();
  EXPECT_GT(stats.reallocs, 0u);
  EXPECT_GE(largest, 3u) << "no component with several flows formed";
  EXPECT_EQ(completed + cancelled, kFlows);
  EXPECT_EQ(engine.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 1337u, 0xfeedu));

}  // namespace
}  // namespace wadp::net
