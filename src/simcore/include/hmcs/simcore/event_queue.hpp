#pragma once

/// \file event_queue.hpp
/// The pending-event set of the discrete-event engine, built for
/// allocation-free, hash-free, O(1) steady state:
///
///  * An event is a time plus an 8-byte payload that its owner decodes
///    (simcore::Simulator's owners keep a kind in the low bits). Events
///    live in a slot pool recycled through an intrusive free list.
///    Steady-state push/pop never allocates — the pool and bucket array
///    only grow when the number of simultaneously pending events exceeds
///    every previous high-water mark.
///  * Ordering comes from a calendar queue (Brown 1988): a power-of-two
///    array of buckets, each an intrusive singly-linked list of slots
///    sorted by (time, sequence). An event's *virtual bucket* is the
///    integer floor(time / width); its physical bucket is that number
///    modulo the array size, so each lap of the array is one "year" of
///    simulated time. For the roughly stationary event populations a
///    discrete-event simulation produces, push and pop are O(1) — no
///    O(log n) sift chains of unpredictable branches, which is what makes
///    this several times faster than any binary/d-ary heap at realistic
///    horizons (a 4-ary indexed-heap prototype measured ~150 ns/op at a
///    16k-event horizon; the calendar queue runs the same churn in a
///    fraction of that).
///  * All year/bucket decisions compare *integer* virtual bucket numbers
///    computed exactly once per event at push time, so floating-point
///    boundary drift can never reorder two events: the pop order is the
///    exact total order (time, then push sequence), bit-for-bit
///    reproducible. Same-time events fire in scheduling order.
///
/// The bucket width adapts to the observed event-time density: a running
/// average of positive dequeue gaps re-parameterizes the calendar whenever
/// the population crosses a resize threshold or the width drifts far from
/// the density (checked every few thousand dequeues), keeping ~1-2 events
/// per occupied bucket.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "hmcs/simcore/time.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

class EventQueue {
 public:
  struct Event {
    SimTime time;
    std::uint64_t payload;
  };

  EventQueue() = default;
  /// Not copyable or movable: no owner needs it, and a moved-from queue
  /// would keep its free list and count over emptied vectors.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  EventQueue(EventQueue&&) = delete;
  EventQueue& operator=(EventQueue&&) = delete;

  /// Inserts an event.
  void push(SimTime time, std::uint64_t payload) {
    if (free_head_ == kNoSlot) grow();
    const std::uint32_t slot = free_head_;
    SlotKey& s = slots_[slot];
    free_head_ = s.next;
    payloads_[slot] = payload;
    s.time = time;
    s.seq = next_seq_++;
    s.virtual_bucket = virtual_bucket(time);
    link_into_bucket(slot);

    if (count_ == 0 || s.virtual_bucket < cursor_vb_) {
      cursor_vb_ = s.virtual_bucket;  // keep the cursor at/before the minimum
    }
    ++count_;

    if (count_ > 2 * buckets_.size()) {
      rebuild(2 * buckets_.size(), has_gap_ema_ ? target_width() : width_);
    }
  }

  /// Removes and returns the earliest event; nullopt if empty.
  std::optional<Event> pop_next() {
    if (count_ == 0) return std::nullopt;
    const std::uint32_t slot = find_min();

    SlotKey& s = slots_[slot];
    const std::size_t bucket =
        static_cast<std::size_t>(s.virtual_bucket) & bucket_mask_;
    buckets_[bucket] = s.next;  // find_min() leaves the minimum at its head
    --count_;

    const Event event{s.time, payloads_[slot]};

    // Width calibration: the mean gap between consecutive dequeues tracks
    // the head-of-queue event density. Only positive gaps carry a density
    // signal — zero gaps are simultaneous events (free in one bucket) and
    // negative ones mean a later push rewound time below an earlier pop.
    // The average is seeded from the first real gap, never from zero, so
    // an early rebuild cannot collapse the width before any data exists.
    if (has_pop_gap_) {
      const double gap = event.time - last_pop_time_;
      if (gap > 0.0) {
        gap_ema_ = has_gap_ema_ ? gap_ema_ + (gap - gap_ema_) * 0.03125 : gap;
        has_gap_ema_ = true;
      }
    }
    last_pop_time_ = event.time;
    has_pop_gap_ = true;

    s.next = free_head_;
    free_head_ = slot;
    // Shrink first, then the periodic width check: the calendar_resizes
    // counts of the golden runs fix this order.
    if (buckets_.size() > kInitialBuckets && count_ * 4 < buckets_.size()) {
      shrink();
    } else if (++pops_since_width_check_ == kWidthCheckInterval) {
      check_width();
    }
    return event;
  }

  /// Number of pending events.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Total events ever pushed (diagnostic).
  std::uint64_t total_pushed() const { return next_seq_; }

  /// Size of the slot pool (diagnostic): the high-water mark of events
  /// simultaneously pending, independent of how many were ever pushed.
  std::size_t slot_capacity() const { return slots_.size(); }

  /// Calendar re-parameterizations: bucket count or width changed
  /// (diagnostic; rare in steady state).
  std::uint64_t calendar_resizes() const { return calendar_resizes_; }

  /// Full-calendar sweeps taken when a whole year of buckets was empty
  /// (diagnostic; the O(buckets) fallback of find_min).
  std::uint64_t sweep_fallbacks() const { return sweep_fallbacks_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Virtual bucket numbers are clamped here so time/width can never
  /// overflow the integer conversion.
  static constexpr std::uint64_t kMaxVirtualBucket = 1ULL << 62;
  static constexpr std::size_t kInitialBuckets = 16;
  static constexpr double kMinWidth = 1e-9;
  /// Dequeues between width-drift checks.
  static constexpr std::uint64_t kWidthCheckInterval = 4096;

  /// Hot per-slot state, 32 bytes: everything chain walks and dequeue
  /// scans touch. The payloads live in a parallel cold array
  /// (`payloads_`) that is only accessed once per push and once per pop,
  /// so walking a chain streams two keys per cache line.
  struct SlotKey {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t virtual_bucket = 0;
    std::uint32_t next = kNoSlot;  // bucket chain when queued, free list after
  };
  static_assert(sizeof(SlotKey) == 32);

  /// The exact total order of the queue.
  static bool before(const SlotKey& a, const SlotKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // FIFO among equal times
  }

  /// floor(time * (1/width)), clamped to [0, 2^62]. Multiplying by the
  /// stored reciprocal replaces a division on the push path; any fixed
  /// monotone map works because the result is computed exactly once per
  /// event per calendar geometry and only compared as an integer.
  std::uint64_t virtual_bucket(SimTime time) const {
    const double scaled = time * inv_width_;
    if (!(scaled > 0.0)) return 0;  // clamps negatives (and NaN) low
    if (scaled >= static_cast<double>(kMaxVirtualBucket)) {
      return kMaxVirtualBucket;  // far-future overflow guard
    }
    return static_cast<std::uint64_t>(scaled);
  }

  /// Links `slot` into its bucket's (time, seq)-sorted chain.
  void link_into_bucket(std::uint32_t slot) {
    SlotKey& s = slots_[slot];
    const std::size_t bucket =
        static_cast<std::size_t>(s.virtual_bucket) & bucket_mask_;
    std::uint32_t* link = &buckets_[bucket];
    while (*link != kNoSlot && before(slots_[*link], s)) {
      link = &slots_[*link].next;
    }
    s.next = *link;
    *link = slot;
  }

  /// Advances the cursor to the bucket holding the earliest event and
  /// returns that head slot. Requires a non-empty queue.
  std::uint32_t find_min() {
    std::size_t steps = 0;
    for (;;) {
      const std::uint32_t head =
          buckets_[static_cast<std::size_t>(cursor_vb_) & bucket_mask_];
      // A head from this virtual bucket is the global minimum: every
      // earlier virtual bucket has already been scanned empty, and chains
      // are (time, seq)-sorted. Heads from a later lap are skipped.
      if (head != kNoSlot && slots_[head].virtual_bucket == cursor_vb_) {
        return head;
      }
      ++cursor_vb_;
      if (++steps > buckets_.size()) return sweep_min();
    }
  }

  void set_width(double width) {
    width_ = width;
    inv_width_ = 1.0 / width;
  }

  /// Adds one slot to the empty free list: the pool's high-water mark
  /// rose. The first call also builds the initial calendar. Kept out of
  /// line so that push stays small enough for GCC to inline it into the
  /// owner's run loop (docs/PERFORMANCE.md, "The executive").
  void grow();
  /// Full sweep over all bucket heads — the rare fallback when a whole
  /// calendar year is empty (events clustered far beyond the cursor).
  std::uint32_t sweep_min();
  double target_width() const;
  /// The population collapsed well below the bucket count.
  void shrink();
  /// Every kWidthCheckInterval pops: re-fits the width to the density.
  void check_width();
  /// Re-parameterizes the calendar (bucket count and/or width) and
  /// relinks every queued slot.
  void rebuild(std::size_t new_bucket_count, double new_width);

  std::vector<SlotKey> slots_;
  std::vector<std::uint64_t> payloads_;  // parallel to slots_
  std::vector<std::uint32_t> buckets_;
  std::size_t bucket_mask_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  /// Virtual bucket the dequeue scan is currently parked on; invariant:
  /// no queued event has a smaller virtual bucket (pushes rewind it).
  std::uint64_t cursor_vb_ = 0;

  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;

  std::uint64_t calendar_resizes_ = 0;
  std::uint64_t sweep_fallbacks_ = 0;

  /// Running mean of positive consecutive-dequeue time gaps; drives the
  /// width. Seeded from the first observed gap, not from zero.
  double gap_ema_ = 0.0;
  SimTime last_pop_time_ = 0.0;
  bool has_pop_gap_ = false;
  bool has_gap_ema_ = false;
  std::uint64_t pops_since_width_check_ = 0;
};

}  // namespace hmcs::simcore
