#include "hmcs/simcore/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "hmcs/obs/metrics.hpp"

namespace hmcs::simcore {

void EventQueue::grow() {
  if (buckets_.empty()) {
    buckets_.assign(kInitialBuckets, kNoSlot);
    bucket_mask_ = kInitialBuckets - 1;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  ensure(slot != kNoSlot, "EventQueue: slot pool exhausted");
  slots_.emplace_back();
  payloads_.emplace_back();
  slots_[slot].next = free_head_;
  free_head_ = slot;
}

std::uint32_t EventQueue::sweep_min() {
  // Rare fallback path: structural counters only, never per-push/pop —
  // the hot path stays free of shared-cache-line traffic.
  ++sweep_fallbacks_;
  HMCS_OBS_COUNTER_INC("simcore.event_queue.sweep_fallbacks");
  std::uint32_t best = kNoSlot;
  for (const std::uint32_t head : buckets_) {
    if (head == kNoSlot) continue;
    if (best == kNoSlot || before(slots_[head], slots_[best])) best = head;
  }
  cursor_vb_ = slots_[best].virtual_bucket;
  return best;
}

double EventQueue::target_width() const {
  return std::max(2.0 * gap_ema_, kMinWidth);
}

void EventQueue::shrink() {
  rebuild(std::bit_ceil(std::max(kInitialBuckets, count_)),
          has_gap_ema_ ? target_width() : width_);
}

void EventQueue::check_width() {
  // A stationary population never crosses a resize threshold, but its
  // event-time spacing can still drift from what the width was last
  // calibrated for.
  pops_since_width_check_ = 0;
  if (!has_gap_ema_) return;
  const double target = target_width();
  if (width_ > 4.0 * target || width_ * 4.0 < target) {
    rebuild(buckets_.size(), target);
  }
}

void EventQueue::rebuild(std::size_t new_bucket_count, double new_width) {
  ++calendar_resizes_;
  HMCS_OBS_COUNTER_INC("simcore.event_queue.calendar_resizes");
  // Thread every queued slot onto one temporary list, freeing the
  // bucket heads.
  std::uint32_t all = kNoSlot;
  for (std::uint32_t& bucket : buckets_) {
    std::uint32_t head = bucket;
    bucket = kNoSlot;
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

  // Relink every slot under the new geometry and park the cursor on the
  // earliest virtual bucket.
  std::uint64_t min_vb = 0;
  bool any = false;
  while (all != kNoSlot) {
    const std::uint32_t next = slots_[all].next;
    SlotKey& s = slots_[all];
    s.virtual_bucket = virtual_bucket(s.time);
    link_into_bucket(all);
    if (!any || s.virtual_bucket < min_vb) {
      min_vb = s.virtual_bucket;
      any = true;
    }
    all = next;
  }
  cursor_vb_ = min_vb;
}

}  // namespace hmcs::simcore
