// Proves the event engine's core claim: steady-state push/pop/cancel
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
#include <vector>

#include "hmcs/simcore/event_queue.hpp"
#include "hmcs/simcore/rng.hpp"

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

using hmcs::simcore::EventId;
using hmcs::simcore::EventQueue;
using hmcs::simcore::Rng;

TEST(EngineAllocation, SteadyStateChurnIsAllocationFree) {
  EventQueue queue;
  Rng rng(42);
  double sink = 0.0;
  for (int i = 0; i < 4096; ++i) {
    queue.push(rng.uniform(0.0, 1000.0), [&sink] { sink += 1.0; });
  }
  // Reach the slot-pool and calendar high-water mark (rebuilds included)
  // before arming the counter.
  double now = 0.0;
  for (int i = 0; i < 100000; ++i) {
    auto event = queue.pop_next();
    now = event->time;
    queue.push(now + rng.uniform(0.0, 1000.0), [&sink] { sink += 1.0; });
  }

  g_new_calls = 0;
  g_counting = true;
  for (int i = 0; i < 100000; ++i) {
    auto event = queue.pop_next();
    event->payload();
    now = event->time;
    queue.push(now + rng.uniform(0.0, 1000.0), [&sink] { sink += 1.0; });
  }
  g_counting = false;

  EXPECT_EQ(g_new_calls, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(EngineAllocation, CancelHeavyChurnIsAllocationFree) {
  // Timer-wheel style: every iteration arms a far-future timeout and
  // disarms an earlier one, so tombstones flow through the calendar's
  // purge path while live population stays pinned.
  constexpr std::size_t kLag = 64;
  EventQueue queue;
  Rng rng(7);
  std::vector<EventId> pending(kLag);
  for (int i = 0; i < 2048; ++i) queue.push(rng.uniform(0.0, 1000.0), [] {});
  for (std::size_t i = 0; i < kLag; ++i) {
    pending[i] = queue.push(1.0e6 + rng.uniform(0.0, 1000.0), [] {});
  }
  double now = 0.0;
  std::size_t cursor = 0;
  auto churn = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      auto event = queue.pop_next();
      now = event->time;
      queue.push(now + rng.uniform(0.0, 1000.0), [] {});
      const EventId fresh =
          queue.push(now + 1.0e6 + rng.uniform(0.0, 1000.0), [] {});
      ASSERT_TRUE(queue.cancel(pending[cursor]));
      pending[cursor] = fresh;
      cursor = (cursor + 1) % kLag;
    }
  };
  churn(100000);  // several tombstone purge cycles — high-water reached

  g_new_calls = 0;
  g_counting = true;
  churn(100000);
  g_counting = false;

  EXPECT_EQ(g_new_calls, 0u);
}

TEST(EngineAllocation, InlineCapturesDoNotAllocate) {
  // A capture that would overflow std::function's small-buffer
  // optimisation on common ABIs still fits InlineFunction's inline
  // storage: scheduling it must not touch the heap.
  EventQueue queue;
  double a = 1.0, b = 2.0, c = 3.0, d = 4.0;
  double out = 0.0;
  queue.push(0.0, [] {});  // first push builds the initial geometry
  queue.pop_next();

  g_new_calls = 0;
  g_counting = true;
  queue.push(1.0, [&out, a, b, c, d] { out = a + b + c + d; });
  auto event = queue.pop_next();
  g_counting = false;

  ASSERT_TRUE(event.has_value());
  event->payload();
  EXPECT_EQ(g_new_calls, 0u);
  EXPECT_EQ(out, 10.0);
}

}  // namespace
