#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "hmcs/simcore/event_queue.hpp"
#include "hmcs/simcore/rng.hpp"

namespace {

using hmcs::simcore::EventQueue;

/// Pops every pending event and returns the payloads in pop order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> payloads;
  while (auto event = q.pop_next()) payloads.push_back(event->payload);
  return payloads;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, 3);
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(5.0, i);
  EXPECT_EQ(drain(q),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, TracksCounts) {
  EventQueue q;
  q.push(1.0, 0);
  q.push(2.0, 0);
  EXPECT_EQ(q.total_pushed(), 2u);
  EXPECT_EQ(q.size(), 2u);
  q.pop_next();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_pushed(), 2u);
  q.pop_next();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_next().has_value());
}

TEST(EventQueue, DifferentialFuzzAgainstReferenceModel) {
  // Random interleaving of push/pop, mirrored into a simple reference
  // model ordered by (time, push sequence) — the engine's documented
  // total order. Each payload is its push sequence, so a pop is checked
  // for both its time and its identity. Most times come from a small
  // grid so equal-time ties actually occur and the FIFO tie-break is
  // exercised; a few lie far ahead (near 1e6, and 1e300, which the
  // virtual-bucket clamp holds at 2^62), so whole empty calendar years
  // send the dequeue scan down its full-sweep fallback.
  hmcs::simcore::Rng rng(0xfeedULL);
  EventQueue queue;
  std::map<std::pair<double, std::uint64_t>, std::uint64_t> reference;
  std::uint64_t sequence = 0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform_below(2) == 0) {  // push
      const std::uint64_t spread = rng.uniform_below(64);
      double t = static_cast<double>(rng.uniform_below(256));
      if (spread == 0) t += 1e6;
      if (spread == 1) t = 1e300;
      queue.push(t, sequence);
      reference.emplace(std::make_pair(t, sequence), sequence);
      ++sequence;
    } else {  // pop
      auto event = queue.pop_next();
      if (!event.has_value()) {
        ASSERT_TRUE(reference.empty()) << "step " << step;
        continue;
      }
      ASSERT_FALSE(reference.empty()) << "step " << step;
      const auto it = reference.begin();
      ASSERT_EQ(event->time, it->first.first) << "step " << step;
      ASSERT_EQ(event->payload, it->second) << "step " << step;
      reference.erase(it);
    }
    ASSERT_EQ(queue.size(), reference.size()) << "step " << step;
  }
  EXPECT_GT(queue.sweep_fallbacks(), 0u);
}

TEST(EventQueue, SameTimeFifoSurvivesChurn) {
  // FIFO among equal times must hold while pops and slot reuse shuffle
  // the underlying storage.
  constexpr std::uint64_t kDecoy = ~std::uint64_t{0};
  EventQueue q;
  for (std::uint64_t round = 0; round < 200; ++round) {
    // A cohort of same-time events, interleaved with decoys that fall
    // due before every cohort.
    const double t = 1000.0 + static_cast<double>(round);
    for (std::uint64_t i = 0; i < 5; ++i) {
      q.push(t, round * 5 + i);
      q.push(0.5 * static_cast<double>(round), kDecoy);
    }
    // Pop this round's decoys so their slots recycle mid-sequence.
    for (int i = 0; i < 5; ++i) {
      auto event = q.pop_next();
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(event->payload, kDecoy) << "round " << round;
    }
  }
  const std::vector<std::uint64_t> fired = drain(q);
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], i) << "at position " << i;
  }
}

TEST(EventQueue, SlotPoolIsReusedAcrossMillionsOfEvents) {
  // 2^20 events through a tiny pending window: the slot pool must stay
  // at the high-water mark of *simultaneous* events, proving push/pop
  // recycles slots instead of growing storage with total events.
  EventQueue q;
  hmcs::simcore::Rng rng(99);
  for (std::uint64_t i = 0; i < 8; ++i) q.push(rng.uniform(0.0, 1.0), i);
  double now = 0.0;
  constexpr std::uint64_t kEvents = 1u << 20;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    auto event = q.pop_next();
    ASSERT_TRUE(event.has_value());
    now = event->time;
    q.push(now + rng.uniform(0.0, 1.0), event->payload);
  }
  EXPECT_EQ(q.total_pushed(), kEvents + 8);
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.slot_capacity(), 64u);
}

// A moved-from queue would keep its free list and count over emptied
// vectors, so the queue can be neither copied nor moved.
static_assert(!std::is_copy_constructible_v<EventQueue>);
static_assert(!std::is_copy_assignable_v<EventQueue>);
static_assert(!std::is_move_constructible_v<EventQueue>);
static_assert(!std::is_move_assignable_v<EventQueue>);

TEST(EventQueue, StressInterleavedPushPopCancel) {
  // Rounds of pushes on a coarse time grid, each followed by half as
  // many pops: pushes keep landing before the last pop, so the cursor
  // rewinds and slots recycle. No event may be lost, and the final
  // drain must come out in time order.
  EventQueue q;
  std::size_t popped = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const double t = static_cast<double>((round * 7 + i * 13) % 101);
      q.push(t, 0);
    }
    for (int i = 0; i < 10; ++i) {
      if (q.pop_next()) ++popped;
    }
  }
  std::vector<double> drained;
  while (auto event = q.pop_next()) drained.push_back(event->time);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(popped + drained.size(), 1000u);
  // Interleaved pops may legitimately see later-pushed earlier times;
  // within the drain phase times are non-decreasing.
  for (std::size_t i = 1; i < drained.size(); ++i) {
    EXPECT_LE(drained[i - 1], drained[i]) << "at position " << i;
  }
}

}  // namespace
