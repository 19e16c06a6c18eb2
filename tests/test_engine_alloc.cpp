// Proves the event engine's core claim: steady-state schedule/next
// churn performs ZERO heap allocations. Global operator new/delete are
// replaced with counting versions; the count is armed only around the
// measured loop (gtest itself allocates freely outside it).
//
// The warm-up loops matter: the slot pool and calendar geometry are
// allowed to allocate while growing to their high-water mark — the
// contract is about the steady state after that.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"

namespace {
// Single-threaded tests; plain counters are fine.
std::uint64_t g_new_calls = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_new_calls;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

using hmcs::simcore::Rng;
using hmcs::simcore::Simulator;

TEST(EngineAllocation, SteadyStateChurnIsAllocationFree) {
  // The hold model every simulator runs: take the next event, then
  // schedule its source again.
  Simulator sim;
  Rng rng(42);
  for (std::uint64_t source = 0; source < 4096; ++source) {
    sim.schedule(rng.uniform(0.0, 1000.0), source);
  }
  // Reach the slot-pool and calendar high-water mark (rebuilds included)
  // before arming the counter.
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t source = sim.next();
    sim.schedule(rng.uniform(0.0, 1000.0), source);
  }

  std::uint64_t checksum = 0;
  g_new_calls = 0;
  g_counting = true;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t source = sim.next();
    checksum += source;
    sim.schedule(rng.uniform(0.0, 1000.0), source);
  }
  g_counting = false;

  EXPECT_EQ(g_new_calls, 0u);
  EXPECT_GT(checksum, 0u);
  EXPECT_EQ(sim.pending_events(), 4096u);
}

}  // namespace
