#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pnc::serve {

/// Bounded multi-producer request queue with batch-coalescing consumers
/// and (priority, earliest-deadline) dispatch.
///
/// Producers (submit callers) push without ever blocking. A push against a
/// full queue sheds *lowest-urgency-first*: if the incoming item is
/// strictly more urgent than the least urgent queued non-sticky item, that
/// victim is displaced (returned through `displaced` so the caller can
/// deliver its shed response) and the new item admitted; otherwise the
/// push returns kFull and the caller sheds the incoming item. Without an
/// urgency functor every item ranks equal and the queue behaves exactly
/// like the old FIFO bound.
///
/// Consumers (worker shards) pop *coalesced batches*: the most urgent item
/// — lowest priority class, then earliest deadline, then arrival order —
/// fixes the batch key, then up to max_batch - 1 further items with the
/// same key are gathered in arrival order *across all classes* (the key
/// carries no priority), waiting up to `gather` for stragglers. Items
/// whose deadline has passed are not served: each pop sweeps them into
/// `expired` (when provided) so the caller can answer them as
/// deadline-shed instead of serving them late.
///
/// Batching never reorders items *within* a key, so a consumer that treats
/// each item independently (the serving forward is row-independent)
/// produces results that do not depend on batch shape or shard count.
///
/// Cost does not grow with depth. Key and urgency are computed once per
/// push and kept in the item's slot; every decision then reads an index:
/// - items without a deadline are FIFO within their class, so one
///   intrusive list per (class, sticky) orders them exactly — the head is
///   the older front of the lowest class's two lists, the displacement
///   victim the back of the highest class's non-sticky list;
/// - items with a finite deadline sit in three binary heaps — urgency
///   (klass, deadline, seq), displacement (the same order, non-sticky
///   only, max on top) and expiry (deadline, seq) — with lazy deletion:
///   an entry whose slot was freed or reused is skipped when it surfaces,
///   and a heap is rebuilt once stale entries outnumber live ones;
/// - each key has an intrusive FIFO lane in arrival order, so the gather
///   walks only same-key items.
/// Push, pop and displacement are O(log n) in the timed items plus the
/// number of classes; a pop is that plus its batch and expired items.
/// Slots live in fixed-size chunks with a free list, so growth never
/// moves a queued item. A lane is freed once it empties and may then be
/// reused by another key: the gather therefore finds its lane by key
/// again after every wait, never through an id held across one.
template <class Item, class Key, class KeyHash = std::hash<Key>>
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
      const Urgency mine = urgency_of_ ? urgency_of_(item) : Urgency{};
      if (size_ >= capacity_) {
        if (!urgency_of_ || displaced == nullptr) return PushResult::kFull;
        const std::uint32_t victim = least_urgent_locked();
        if (victim == kNone) return PushResult::kFull;  // all sticky
        const Slot& theirs = slot(victim);
        // Strictly more urgent wins; ties keep the earlier arrival.
        if (mine.klass > theirs.klass ||
            (mine.klass == theirs.klass && mine.deadline >= theirs.deadline)) {
          return PushResult::kFull;
        }
        displaced->push_back(remove_locked(victim));
      }
      if (free_slots_.empty() && slab_size_ == kNone) return PushResult::kFull;
      const Key key = key_of_(item);
      insert_locked(std::move(item), key, mine);
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
      cv_.wait(lock, [&] { return size_ > 0 || closed_; });
      const std::size_t expired_before =
          expired != nullptr ? expired->size() : 0;
      if (expired != nullptr) expire_locked(Clock::now(), *expired);
      if (size_ > 0) break;
      if (expired != nullptr && expired->size() > expired_before) {
        return true;  // only expired work this round; out stays empty
      }
      if (closed_) return false;  // closed and drained
    }

    const std::uint32_t head = most_urgent_locked();
    const Key key = lanes_[slot(head).lane].key;
    out.push_back(remove_locked(head));
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
    return size_;
  }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kChunk = 64;      // slots per slab allocation
  static constexpr std::size_t kHeapSlack = 64;  // extra stale heap entries allowed

  struct Link {
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };
  struct List {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    bool empty() const { return head == kNone; }
  };

  /// One queued item and everything dispatch needs to know about it.
  /// Arrival order (`seq`) is the tiebreak everywhere, so items within
  /// one (klass, deadline) rank — and the whole queue in FIFO mode — keep
  /// their submission order; it also tells a heap entry whether its slot
  /// still holds the item the entry was made for.
  struct Slot {
    std::optional<Item> item;  // engaged while queued
    std::uint64_t seq = 0;
    Clock::time_point deadline{};
    int klass = 0;
    bool sticky = false;
    std::uint32_t lane = kNone;
    Link in_lane;   // the key's FIFO
    Link in_class;  // the class list (no-deadline items only)
  };

  /// Items without a deadline in one priority class, in arrival order,
  /// split by stickiness so the displacement victim is a list's back.
  struct ClassLists {
    int klass = 0;
    List held;  // sticky
    List open;  // displaceable
  };

  struct Lane {
    Key key;
    List items;
  };

  /// Heap entry for an item with a finite deadline.
  struct Timed {
    int klass = 0;
    std::uint32_t slot = kNone;
    Clock::time_point deadline{};
    std::uint64_t seq = 0;
  };

  static bool more_urgent(const Timed& a, const Timed& b) {
    return std::tie(a.klass, a.deadline, a.seq) <
           std::tie(b.klass, b.deadline, b.seq);
  }
  // std::push_heap and friends keep the greatest element under the given
  // order on top. urgent_ and due_ want their smallest key there, so their
  // orders are reversed; victims_ uses more_urgent as is (least urgent on
  // top).
  static bool urgent_below(const Timed& a, const Timed& b) {
    return more_urgent(b, a);
  }
  static bool due_below(const Timed& a, const Timed& b) {
    return std::tie(b.deadline, b.seq) < std::tie(a.deadline, a.seq);
  }

  Slot& slot(std::uint32_t s) { return chunks_[s / kChunk][s % kChunk]; }

  bool live(const Timed& entry) {
    const Slot& sl = slot(entry.slot);
    return sl.item.has_value() && sl.seq == entry.seq;
  }

  void link_back(List& list, std::uint32_t s, Link Slot::*link) {
    (slot(s).*link) = Link{list.tail, kNone};
    if (list.tail == kNone) {
      list.head = s;
    } else {
      (slot(list.tail).*link).next = s;
    }
    list.tail = s;
  }

  void unlink(List& list, std::uint32_t s, Link Slot::*link) {
    const Link l = slot(s).*link;
    if (l.prev == kNone) {
      list.head = l.next;
    } else {
      (slot(l.prev).*link).next = l.next;
    }
    if (l.next == kNone) {
      list.tail = l.prev;
    } else {
      (slot(l.next).*link).prev = l.prev;
    }
  }

  typename std::vector<ClassLists>::iterator class_lists(int klass) {
    return std::lower_bound(
        classes_.begin(), classes_.end(), klass,
        [](const ClassLists& c, int k) { return c.klass < k; });
  }

  template <class Below>
  void heap_push(std::vector<Timed>& heap, const Timed& entry, Below below) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), below);
  }

  /// Drop stale entries off the top; true when a live entry is left there.
  template <class Below>
  bool heap_clean_top(std::vector<Timed>& heap, Below below) {
    while (!heap.empty() && !live(heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), below);
      heap.pop_back();
    }
    return !heap.empty();
  }

  /// Rebuild a heap from its live entries once stale ones outnumber them,
  /// so lazy deletion costs O(1) amortized and memory stays O(depth).
  template <class Below>
  void heap_compact(std::vector<Timed>& heap, std::size_t live_entries,
                    Below below) {
    if (heap.size() <= 2 * live_entries + kHeapSlack) return;
    std::erase_if(heap, [&](const Timed& e) { return !live(e); });
    std::make_heap(heap.begin(), heap.end(), below);
  }

  void insert_locked(Item&& item, const Key& key, const Urgency& u) {
    std::uint32_t s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if (slab_size_ % kChunk == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunk));
      }
      s = slab_size_++;
    }
    Slot& sl = slot(s);
    sl.item.emplace(std::move(item));
    sl.seq = next_seq_++;
    sl.deadline = u.deadline;
    sl.klass = u.klass;
    sl.sticky = u.sticky;

    const auto [it, fresh] = lane_of_.try_emplace(key, kNone);
    if (fresh) {
      if (free_lanes_.empty()) {
        it->second = static_cast<std::uint32_t>(lanes_.size());
        lanes_.push_back(Lane{key, {}});
      } else {
        it->second = free_lanes_.back();
        free_lanes_.pop_back();
        lanes_[it->second].key = key;
      }
    }
    sl.lane = it->second;
    link_back(lanes_[sl.lane].items, s, &Slot::in_lane);

    if (u.deadline == Clock::time_point::max()) {
      auto c = class_lists(u.klass);
      if (c == classes_.end() || c->klass != u.klass) {
        c = classes_.insert(c, ClassLists{u.klass, {}, {}});
      }
      link_back(u.sticky ? c->held : c->open, s, &Slot::in_class);
    } else {
      const Timed entry{u.klass, s, u.deadline, sl.seq};
      heap_push(urgent_, entry, urgent_below);
      heap_push(due_, entry, due_below);
      if (!u.sticky) {
        heap_push(victims_, entry, more_urgent);
        ++timed_open_;
      }
      ++timed_;
    }
    ++size_;
  }

  /// Take slot `s`'s item out of the queue and every index that orders it
  /// exactly; heap entries go stale and are skipped later.
  Item remove_locked(std::uint32_t s) {
    Slot& sl = slot(s);
    Lane& lane = lanes_[sl.lane];
    unlink(lane.items, s, &Slot::in_lane);
    if (lane.items.empty()) {
      lane_of_.erase(lane.key);
      free_lanes_.push_back(sl.lane);
    }
    if (sl.deadline == Clock::time_point::max()) {
      const auto c = class_lists(sl.klass);
      unlink(sl.sticky ? c->held : c->open, s, &Slot::in_class);
      if (c->held.empty() && c->open.empty()) classes_.erase(c);
    } else {
      --timed_;
      if (!sl.sticky) --timed_open_;
    }
    Item item = std::move(*sl.item);
    sl.item.reset();
    free_slots_.push_back(s);
    --size_;
    heap_compact(urgent_, timed_, urgent_below);
    heap_compact(due_, timed_, due_below);
    heap_compact(victims_, timed_open_, more_urgent);
    return item;
  }

  /// The batch head: the lowest class's oldest deadline-free item, unless
  /// a timed item of that class or a lower one outranks it.
  std::uint32_t most_urgent_locked() {
    std::uint32_t best = kNone;
    if (!classes_.empty()) {
      const ClassLists& c = classes_.front();
      if (c.held.empty()) {
        best = c.open.head;
      } else if (c.open.empty()) {
        best = c.held.head;
      } else {
        best = slot(c.held.head).seq < slot(c.open.head).seq ? c.held.head
                                                             : c.open.head;
      }
    }
    if (heap_clean_top(urgent_, urgent_below) &&
        (best == kNone || urgent_.front().klass <= slot(best).klass)) {
      best = urgent_.front().slot;
    }
    return best;
  }

  /// Displacement candidate: the least urgent non-sticky item — among
  /// equals the latest arrival — or kNone when every resident is sticky
  /// (the push then sheds the arrival).
  std::uint32_t least_urgent_locked() {
    std::uint32_t worst = kNone;
    for (auto c = classes_.rbegin(); c != classes_.rend(); ++c) {
      if (!c->open.empty()) {
        worst = c->open.tail;
        break;
      }
    }
    if (heap_clean_top(victims_, more_urgent) &&
        (worst == kNone || victims_.front().klass > slot(worst).klass)) {
      worst = victims_.front().slot;
    }
    return worst;
  }

  /// Move every queued item whose deadline has passed into `expired`,
  /// in arrival order. Caller holds the lock.
  void expire_locked(Clock::time_point now, std::vector<Item>& expired) {
    std::vector<Timed> due;
    while (heap_clean_top(due_, due_below) && due_.front().deadline <= now) {
      due.push_back(due_.front());
      std::pop_heap(due_.begin(), due_.end(), due_below);
      due_.pop_back();
    }
    std::sort(due.begin(), due.end(),
              [](const Timed& a, const Timed& b) { return a.seq < b.seq; });
    for (const Timed& entry : due) {
      expired.push_back(remove_locked(entry.slot));
    }
  }

  /// Move queued items matching `key` into `out` (arrival order) until
  /// `out` holds max_batch items; matching items already past their
  /// deadline go to `expired` instead. A same-key item the join functor
  /// rejects stops the walk — later same-key arrivals are even further
  /// out of order, so gathering past the gap would break batch
  /// contiguity. Caller holds the lock; `out` is never empty here (the
  /// batch head is taken first).
  void take_matching(const Key& key, std::size_t max_batch,
                     std::vector<Item>& out, std::vector<Item>* expired) {
    const auto lane = lane_of_.find(key);
    if (lane == lane_of_.end()) return;
    const auto now = Clock::now();
    std::uint32_t s = lanes_[lane->second].items.head;
    while (s != kNone && out.size() < max_batch) {
      Slot& sl = slot(s);
      if (join_of_ && !join_of_(out.back(), *sl.item)) break;
      const std::uint32_t next = sl.in_lane.next;
      const bool late = expired != nullptr && sl.deadline <= now;
      // Removing the lane's last item frees the lane; `next` is then kNone.
      (late ? *expired : out).push_back(remove_locked(s));
      s = next;
    }
  }

  const std::size_t capacity_;
  const KeyFn key_of_;
  const UrgencyFn urgency_of_;
  const JoinFn join_of_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // Everything below is guarded by mutex_.
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // slab, kChunk slots each
  std::uint32_t slab_size_ = 0;                  // slots ever handed out
  std::vector<std::uint32_t> free_slots_;
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> free_lanes_;
  std::unordered_map<Key, std::uint32_t, KeyHash> lane_of_;
  std::vector<ClassLists> classes_;  // ascending klass, none empty
  std::vector<Timed> urgent_;        // min (klass, deadline, seq) on top
  std::vector<Timed> victims_;       // max (klass, deadline, seq), non-sticky
  std::vector<Timed> due_;           // min (deadline, seq) on top
  std::size_t timed_ = 0;            // live items with a finite deadline
  std::size_t timed_open_ = 0;       // ... of which non-sticky
  std::size_t size_ = 0;             // live items
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace pnc::serve
