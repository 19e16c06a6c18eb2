#include "hmcs/simcore/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "hmcs/obs/metrics.hpp"

namespace hmcs::simcore {

template <typename Payload>
std::uint32_t BasicEventQueue<Payload>::sweep_min() {
  // Rare fallback path: structural counters only, never per-push/pop —
  // the hot path stays free of shared-cache-line traffic.
  ++sweep_fallbacks_;
  HMCS_OBS_COUNTER_INC("simcore.event_queue.sweep_fallbacks");
  std::uint32_t best = kNoSlot;
  for (std::size_t bucket = 0; bucket < buckets_.size(); ++bucket) {
    std::uint32_t head = buckets_[bucket];
    while (head != kNoSlot && !is_live(slots_[head])) {
      buckets_[bucket] = slots_[head].next;
      retire_slot(head);
      --chained_count_;
      head = buckets_[bucket];
    }
    if (head == kNoSlot) continue;
    if (best == kNoSlot || before(slots_[head], slots_[best])) best = head;
  }
  if (best != kNoSlot) cursor_vb_ = slots_[best].virtual_bucket;
  return best;
}

template <typename Payload>
double BasicEventQueue<Payload>::target_width() const {
  return std::max(2.0 * gap_ema_, kMinWidth);
}

template <typename Payload>
void BasicEventQueue<Payload>::maybe_check_width() {
  // Population collapsed well below the bucket count: shrink.
  if (buckets_.size() > kInitialBuckets &&
      chained_count_ * 4 < buckets_.size()) {
    const std::size_t shrunk =
        std::bit_ceil(std::max(kInitialBuckets, chained_count_));
    rebuild(shrunk, has_gap_ema_ ? target_width() : width_);
    return;
  }
  // Periodically re-check the width against the observed density: a
  // stationary population never crosses a resize threshold, but its
  // event-time spacing can still drift from what the width was last
  // calibrated for.
  if (++pops_since_width_check_ < kWidthCheckInterval) return;
  pops_since_width_check_ = 0;
  if (!has_gap_ema_) return;
  const double target = target_width();
  if (width_ > 4.0 * target || width_ * 4.0 < target) {
    rebuild(buckets_.size(), target);
  }
}

template <typename Payload>
void BasicEventQueue<Payload>::rebuild(std::size_t new_bucket_count,
                                       double new_width) {
  if (new_bucket_count == buckets_.size() && new_width == width_) {
    ++calendar_purges_;
    HMCS_OBS_COUNTER_INC("simcore.event_queue.calendar_purges");
  } else {
    ++calendar_resizes_;
    HMCS_OBS_COUNTER_INC("simcore.event_queue.calendar_resizes");
  }
  // Thread every chained slot onto one temporary list, freeing the
  // bucket heads.
  std::uint32_t all = kNoSlot;
  for (std::size_t bucket = 0; bucket < buckets_.size(); ++bucket) {
    std::uint32_t head = buckets_[bucket];
    buckets_[bucket] = kNoSlot;
    while (head != kNoSlot) {
      const std::uint32_t next = slots_[head].next;
      slots_[head].next = all;
      all = head;
      head = next;
    }
  }

  buckets_.assign(new_bucket_count, kNoSlot);
  bucket_mask_ = new_bucket_count - 1;
  set_width(new_width);
  chained_count_ = 0;

  // Relink live slots under the new geometry; collect cancelled ones —
  // a rebuild doubles as a tombstone purge.
  std::uint64_t min_vb = 0;
  bool any_live = false;
  while (all != kNoSlot) {
    const std::uint32_t next = slots_[all].next;
    SlotKey& s = slots_[all];
    if (!is_live(s)) {
      retire_slot(all);
    } else {
      s.virtual_bucket = virtual_bucket(s.time);
      link_into_bucket(all);
      ++chained_count_;
      if (!any_live || s.virtual_bucket < min_vb) {
        min_vb = s.virtual_bucket;
        any_live = true;
      }
    }
    all = next;
  }
  cursor_vb_ = any_live ? min_vb : 0;
}

template class BasicEventQueue<EventAction>;
template class BasicEventQueue<std::uint64_t>;

}  // namespace hmcs::simcore
