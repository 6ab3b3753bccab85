#pragma once

// Reference CoalescingQueue for the differential test: the original
// linear-scan implementation over one std::deque, kept verbatim (only the
// namespace differs). Every pop rescans the whole queue, so it is the
// plain statement of the dispatch rules the indexed queue must reproduce.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

namespace pnc::serve::oracle {

/// Bounded multi-producer request queue with batch-coalescing consumers
/// and (priority, earliest-deadline) dispatch.
///
/// Producers (submit callers) push without ever blocking. A push against a
/// full queue sheds *lowest-urgency-first*: if the incoming item is
/// strictly more urgent than the least urgent queued item, that victim is
/// displaced (returned through `displaced` so the caller can deliver its
/// shed response) and the new item admitted; otherwise the push returns
/// kFull and the caller sheds the incoming item. Without an urgency
/// functor every item ranks equal and the queue behaves exactly like the
/// old FIFO bound.
///
/// Consumers (worker shards) pop *coalesced batches*: the most urgent item
/// — lowest priority class, then earliest deadline, then arrival order —
/// fixes the batch key, then up to max_batch - 1 further items with the
/// same key are gathered in arrival order, waiting up to `gather` for
/// stragglers. Items whose deadline has passed are not served: each
/// pop sweeps them into `expired` (when provided) so the caller can
/// answer them as deadline-shed instead of serving them late.
///
/// Batching never reorders items *within* a key, so a consumer that treats
/// each item independently (the serving forward is row-independent)
/// produces results that do not depend on batch shape or shard count.
template <class Item, class Key>
class CoalescingQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  using Clock = std::chrono::steady_clock;

  /// Scheduling rank of one item: lower klass = more urgent; within a
  /// klass, earlier deadline = more urgent; Clock::time_point::max()
  /// means "no deadline" (and never expires). A `sticky` item is pinned:
  /// admission control never displaces it to make room — session chunks
  /// carry recurrent-state ordering, so dropping one from the middle of a
  /// stream would wedge every later chunk of that session.
  struct Urgency {
    int klass = 0;
    Clock::time_point deadline = Clock::time_point::max();
    bool sticky = false;
  };

  using KeyFn = std::function<Key(const Item&)>;
  using UrgencyFn = std::function<Urgency(const Item&)>;
  /// May `next` ride in the same batch directly after `last`? A null
  /// functor means any same-key items coalesce. Session chunks use this
  /// to keep batches sequence-contiguous: a batch holding chunks {k,
  /// k+5} would make its shard wait for chunks k+1..k+4 to be applied by
  /// *other* shards, and once every shard holds such a gap the chunks
  /// that could fill it are stuck in the queue — deadlock. Contiguous
  /// batches keep the shard holding the lowest unapplied chunk always
  /// able to progress.
  using JoinFn = std::function<bool(const Item& last, const Item& next)>;

  /// `capacity` is the admission threshold (> 0). A null `urgency_of`
  /// gives plain FIFO dispatch with no expiry and no displacement.
  explicit CoalescingQueue(std::size_t capacity, KeyFn key_of,
                           UrgencyFn urgency_of = nullptr,
                           JoinFn join_of = nullptr)
      : capacity_(capacity),
        key_of_(std::move(key_of)),
        urgency_of_(std::move(urgency_of)),
        join_of_(std::move(join_of)) {}

  /// On kFull / kClosed the item is left untouched, so the caller can
  /// still deliver a shed/error response from it. On kOk with a non-null
  /// `displaced`, a lower-urgency victim evicted to make room (at most
  /// one per push) is appended there for its own shed response.
  PushResult push(Item&& item, std::vector<Item>* displaced = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) {
        if (!urgency_of_ || displaced == nullptr) return PushResult::kFull;
        auto victim = least_urgent_locked();
        if (victim == items_.end()) return PushResult::kFull;  // all sticky
        const Urgency mine = urgency_of_(item);
        const Urgency theirs = urgency_of_(victim->item);
        // Strictly more urgent wins; ties keep the earlier arrival.
        if (mine.klass > theirs.klass ||
            (mine.klass == theirs.klass && mine.deadline >= theirs.deadline)) {
          return PushResult::kFull;
        }
        displaced->push_back(std::move(victim->item));
        items_.erase(victim);
      }
      items_.push_back(Slot{std::move(item), next_seq_++});
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Pop one coalesced batch into `out` (cleared first). Blocks until an
  /// item is available or the queue is closed *and* drained — the latter
  /// returns false. `gather` counts from the moment the batch head is
  /// taken. When `expired` is non-null, queued items past their deadline
  /// are swept into it instead of being served; a sweep that leaves no
  /// live item returns true with `out` empty so the caller can answer the
  /// expired ones promptly.
  bool pop_batch(std::size_t max_batch, std::chrono::microseconds gather,
                 std::vector<Item>& out, std::vector<Item>* expired = nullptr) {
    out.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] { return !items_.empty() || closed_; });
      const std::size_t expired_before =
          expired != nullptr ? expired->size() : 0;
      if (expired != nullptr) expire_locked(Clock::now(), *expired);
      if (!items_.empty()) break;
      if (expired != nullptr && expired->size() > expired_before) {
        return true;  // only expired work this round; out stays empty
      }
      if (closed_) return false;  // closed and drained
    }

    auto head_it = most_urgent_locked();
    Item head = std::move(head_it->item);
    items_.erase(head_it);
    const Key key = key_of_(head);
    out.push_back(std::move(head));
    take_matching(key, max_batch, out, expired);

    // A zero gather takes only what is already queued: a wait until "now"
    // would still sleep for the kernel's timer slack on every short batch.
    if (gather.count() > 0) {
      const auto wait_until = Clock::now() + gather;
      while (out.size() < max_batch && !closed_) {
        if (cv_.wait_until(lock, wait_until) == std::cv_status::timeout) {
          take_matching(key, max_batch, out, expired);
          break;
        }
        take_matching(key, max_batch, out, expired);
      }
    }
    lock.unlock();
    // A gather may have consumed a notify that another consumer needed.
    cv_.notify_all();
    return true;
  }

  /// Close the queue: pushes start failing, consumers drain what is left
  /// and then see pop_batch return false.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  /// Arrival order is the tiebreak everywhere, so items within one
  /// (klass, deadline) rank — and the whole queue in FIFO mode — keep
  /// their submission order.
  struct Slot {
    Item item;
    std::uint64_t seq = 0;
  };

  Urgency urgency_of(const Item& item) const {
    return urgency_of_ ? urgency_of_(item) : Urgency{};
  }

  typename std::deque<Slot>::iterator most_urgent_locked() {
    auto best = items_.begin();
    Urgency best_u = urgency_of(best->item);
    for (auto it = std::next(items_.begin()); it != items_.end(); ++it) {
      const Urgency u = urgency_of(it->item);
      if (u.klass < best_u.klass ||
          (u.klass == best_u.klass &&
           (u.deadline < best_u.deadline ||
            (u.deadline == best_u.deadline && it->seq < best->seq)))) {
        best = it;
        best_u = u;
      }
    }
    return best;
  }

  /// Displacement candidate: the least urgent non-sticky item, or end()
  /// when every resident is sticky (the push then sheds the arrival).
  typename std::deque<Slot>::iterator least_urgent_locked() {
    auto worst = items_.end();
    Urgency worst_u{};
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      const Urgency u = urgency_of(it->item);
      if (u.sticky) continue;
      // >= on seq: among equals, displace the latest arrival.
      if (worst == items_.end() || u.klass > worst_u.klass ||
          (u.klass == worst_u.klass &&
           (u.deadline > worst_u.deadline ||
            (u.deadline == worst_u.deadline && it->seq >= worst->seq)))) {
        worst = it;
        worst_u = u;
      }
    }
    return worst;
  }

  /// Move every queued item whose deadline has passed into `expired`,
  /// in arrival order. Caller holds the lock.
  void expire_locked(Clock::time_point now, std::vector<Item>& expired) {
    if (!urgency_of_) return;
    for (auto it = items_.begin(); it != items_.end();) {
      if (urgency_of_(it->item).deadline <= now) {
        expired.push_back(std::move(it->item));
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Move queued items matching `key` into `out` (arrival order) until
  /// `out` holds max_batch items; matching items already past their
  /// deadline go to `expired` instead. A same-key item the join functor
  /// rejects stops the scan — later same-key arrivals are even further
  /// out of order, so gathering past the gap would break batch
  /// contiguity. Caller holds the lock; `out` is never empty here (the
  /// batch head is taken first).
  void take_matching(const Key& key, std::size_t max_batch,
                     std::vector<Item>& out, std::vector<Item>* expired) {
    const auto now = Clock::now();
    for (auto it = items_.begin();
         it != items_.end() && out.size() < max_batch;) {
      if (!(key_of_(it->item) == key)) {
        ++it;
        continue;
      }
      if (join_of_ && !join_of_(out.back(), it->item)) break;
      if (expired != nullptr && urgency_of_ &&
          urgency_of_(it->item).deadline <= now) {
        expired->push_back(std::move(it->item));
      } else {
        out.push_back(std::move(it->item));
      }
      it = items_.erase(it);
    }
  }

  const std::size_t capacity_;
  const KeyFn key_of_;
  const UrgencyFn urgency_of_;
  const JoinFn join_of_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Slot> items_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace pnc::serve::oracle
