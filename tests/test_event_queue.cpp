#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "hmcs/simcore/event_queue.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace {

using hmcs::simcore::EventId;
using hmcs::simcore::EventQueue;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (auto event = q.pop_next()) event->payload();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (auto event = q.pop_next()) event->payload();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PeekDoesNotRemove) {
  EventQueue q;
  q.push(4.0, [] {});
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_DOUBLE_EQ(*q.peek_time(), 4.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId keep = q.push(1.0, [&] { ++fired; });
  const EventId drop = q.push(2.0, [&] { fired += 100; });
  (void)keep;
  EXPECT_TRUE(q.cancel(drop));
  EXPECT_EQ(q.size(), 1u);
  while (auto event = q.pop_next()) event->payload();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotentAndReportsMisses) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_next().has_value());
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  int fired = 0;
  const EventId head = q.push(1.0, [&] { fired = -1; });
  q.push(2.0, [&] { fired = 2; });
  q.cancel(head);
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_DOUBLE_EQ(*q.peek_time(), 2.0);
  auto event = q.pop_next();
  ASSERT_TRUE(event.has_value());
  event->payload();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RejectsEmptyAction) {
  EventQueue q;
  EXPECT_THROW(q.push(0.0, hmcs::simcore::EventAction{}), hmcs::ConfigError);
}

TEST(EventQueue, TracksCounts) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.total_pushed(), 2u);
  EXPECT_EQ(q.size(), 2u);
  q.pop_next();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_pushed(), 2u);
}

TEST(EventQueue, DifferentialFuzzAgainstReferenceModel) {
  // Random interleaving of push/cancel/pop, mirrored into a simple
  // reference model ordered by (time, push sequence) — the engine's
  // documented total order. Ids are generation-tagged slot references,
  // so the reference tracks the push sequence separately and checks the
  // popped id against the one recorded for that sequence number. Times
  // are drawn from a small grid so equal-time ties actually occur and
  // the FIFO tie-break is exercised.
  hmcs::simcore::Rng rng(0xfeedULL);
  EventQueue queue;
  struct Entry {
    EventId id;
    bool alive;
  };
  std::map<std::pair<double, std::uint64_t>, Entry> reference;
  std::vector<std::pair<double, std::uint64_t>> live_keys;
  std::uint64_t sequence = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t action = rng.uniform_below(10);
    if (action < 5) {  // push
      const double t = static_cast<double>(rng.uniform_below(256));
      const EventId id = queue.push(t, [] {});
      const auto key = std::make_pair(t, sequence++);
      reference.emplace(key, Entry{id, true});
      live_keys.push_back(key);
    } else if (action < 7 && !live_keys.empty()) {  // cancel random id
      const std::size_t pick = rng.uniform_below(live_keys.size());
      Entry& entry = reference.at(live_keys[pick]);
      const bool queue_says = queue.cancel(entry.id);
      ASSERT_EQ(queue_says, entry.alive) << "step " << step;
      entry.alive = false;
      live_keys.erase(live_keys.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {  // pop
      auto event = queue.pop_next();
      // Reference pop: smallest (time, sequence) still alive.
      auto it = reference.begin();
      while (it != reference.end() && !it->second.alive) {
        it = reference.erase(it);
      }
      if (!event.has_value()) {
        ASSERT_TRUE(it == reference.end()) << "step " << step;
        continue;
      }
      ASSERT_TRUE(it != reference.end()) << "step " << step;
      ASSERT_EQ(event->time, it->first.first) << "step " << step;
      ASSERT_EQ(event->id, it->second.id) << "step " << step;
      live_keys.erase(
          std::remove(live_keys.begin(), live_keys.end(), it->first),
          live_keys.end());
      reference.erase(it);
    }
  }
  std::size_t reference_alive = 0;
  for (const auto& [key, entry] : reference) {
    reference_alive += entry.alive ? 1u : 0u;
  }
  EXPECT_EQ(queue.size(), reference_alive);
}

TEST(EventQueue, StaleIdAfterPopIsRejected) {
  // Generation tagging: once an event has fired, its id is dead forever —
  // even after the slot is recycled for a new event.
  EventQueue q;
  const EventId first = q.push(1.0, [] {});
  auto event = q.pop_next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->id, first);
  EXPECT_FALSE(q.cancel(first)) << "id of an executed event must be dead";

  int fired = 0;
  const EventId second = q.push(2.0, [&] { ++fired; });
  EXPECT_NE(first, second) << "recycled slot must carry a new generation";
  EXPECT_FALSE(q.cancel(first)) << "stale id must not hit the new occupant";
  EXPECT_EQ(q.size(), 1u);
  auto next = q.pop_next();
  ASSERT_TRUE(next.has_value());
  next->payload();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SameTimeFifoSurvivesChurn) {
  // FIFO among equal times must hold while pops, cancels, and slot reuse
  // shuffle the underlying storage.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> cancellable;
  for (int round = 0; round < 200; ++round) {
    // A cohort of same-time events, interleaved with decoys that are
    // cancelled before the cohort fires.
    const double t = 1000.0 + static_cast<double>(round);
    for (int i = 0; i < 5; ++i) {
      const int tag = round * 5 + i;
      q.push(t, [&fired, tag] { fired.push_back(tag); });
      cancellable.push_back(q.push(t, [&fired] { fired.push_back(-1); }));
    }
    // Cancel this round's decoys and pop a few earlier events so slots
    // recycle mid-sequence.
    for (std::size_t i = cancellable.size() - 5; i < cancellable.size(); ++i) {
      ASSERT_TRUE(q.cancel(cancellable[i]));
    }
    if (round % 3 == 0) {
      if (auto event = q.pop_next()) event->payload();
    }
  }
  while (auto event = q.pop_next()) event->payload();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i)) << "at position " << i;
  }
}

TEST(EventQueue, SlotPoolIsReusedAcrossMillionsOfEvents) {
  // 2^20 events through a tiny pending window: the slot pool must stay
  // at the high-water mark of *simultaneous* events, proving push/pop
  // recycles slots instead of growing storage with total events.
  EventQueue q;
  hmcs::simcore::Rng rng(99);
  for (int i = 0; i < 8; ++i) q.push(rng.uniform(0.0, 1.0), [] {});
  double now = 0.0;
  constexpr std::uint64_t kEvents = 1u << 20;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    auto event = q.pop_next();
    ASSERT_TRUE(event.has_value());
    now = event->time;
    q.push(now + rng.uniform(0.0, 1.0), [] {});
  }
  EXPECT_EQ(q.total_pushed(), kEvents + 8);
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.slot_capacity(), 64u);
}

TEST(EventQueue, MoveTransfersPendingEvents) {
  EventQueue source;
  int fired = 0;
  source.push(2.0, [&] { fired += 2; });
  const EventId cancel_me = source.push(3.0, [&] { fired += 100; });
  source.push(1.0, [&] { fired += 1; });

  EventQueue moved(std::move(source));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(moved.cancel(cancel_me)) << "ids must survive the move";

  EventQueue assigned;
  assigned.push(9.0, [&] { fired += 1000; });
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  while (auto event = assigned.pop_next()) event->payload();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StressInterleavedPushPopCancel) {
  EventQueue q;
  std::vector<double> popped;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const double t = static_cast<double>((round * 7 + i * 13) % 101);
      ids.push_back(q.push(t, [] {}));
    }
    // Cancel every third id pushed this round.
    for (std::size_t i = ids.size() - 20; i < ids.size(); i += 3) {
      q.cancel(ids[i]);
    }
    for (int i = 0; i < 10; ++i) {
      if (auto event = q.pop_next()) popped.push_back(event->time);
    }
  }
  while (auto event = q.pop_next()) popped.push_back(event->time);
  EXPECT_TRUE(q.empty());
  // Within the drain phase times are non-decreasing.
  // (Interleaved pops may legitimately see later-pushed earlier times.)
  SUCCEED();
}

}  // namespace
