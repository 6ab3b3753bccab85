// CoalescingQueue: admission control, same-key batch gathering, ordering
// and clean shutdown; PlanCache: LRU eviction and stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pnc/core/adapt_pnc.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/plan_cache.hpp"
#include "pnc/serve/queue.hpp"
#include "pnc/util/rng.hpp"
#include "queue_oracle.hpp"

namespace pnc {
namespace {

using namespace std::chrono_literals;

struct Item {
  int key = 0;
  int seq = 0;
};

using Queue = serve::CoalescingQueue<Item, int>;

Queue make_queue(std::size_t capacity) {
  return Queue(capacity, [](const Item& item) { return item.key; });
}

TEST(ServeQueue, PushPopSingle) {
  Queue q = make_queue(4);
  EXPECT_EQ(q.push(Item{1, 0}), Queue::PushResult::kOk);
  EXPECT_EQ(q.depth(), 1u);
  std::vector<Item> batch;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, 1);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ServeQueue, ShedsAtCapacityWithoutConsumingItem) {
  Queue q = make_queue(2);
  EXPECT_EQ(q.push(Item{1, 0}), Queue::PushResult::kOk);
  EXPECT_EQ(q.push(Item{1, 1}), Queue::PushResult::kOk);
  Item extra{1, 2};
  EXPECT_EQ(q.push(std::move(extra)), Queue::PushResult::kFull);
  // The rejected item must still be intact for the shed response.
  EXPECT_EQ(extra.seq, 2);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServeQueue, CoalescesSameKeyOnlyPreservingArrivalOrder) {
  Queue q = make_queue(16);
  ASSERT_EQ(q.push(Item{7, 0}), Queue::PushResult::kOk);
  ASSERT_EQ(q.push(Item{7, 1}), Queue::PushResult::kOk);
  ASSERT_EQ(q.push(Item{9, 2}), Queue::PushResult::kOk);
  ASSERT_EQ(q.push(Item{7, 3}), Queue::PushResult::kOk);

  std::vector<Item> batch;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  ASSERT_EQ(batch.size(), 3u);  // the three key-7 items, in arrival order
  EXPECT_EQ(batch[0].seq, 0);
  EXPECT_EQ(batch[1].seq, 1);
  EXPECT_EQ(batch[2].seq, 3);

  ASSERT_TRUE(q.pop_batch(8, 0us, batch));  // key 9 stayed queued
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].seq, 2);
}

TEST(ServeQueue, RespectsMaxBatch) {
  Queue q = make_queue(16);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.push(Item{1, i}), Queue::PushResult::kOk);
  }
  std::vector<Item> batch;
  ASSERT_TRUE(q.pop_batch(4, 0us, batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(q.pop_batch(4, 0us, batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ServeQueue, DeadlineGathersStragglers) {
  Queue q = make_queue(16);
  ASSERT_EQ(q.push(Item{1, 0}), Queue::PushResult::kOk);
  std::thread straggler([&] {
    std::this_thread::sleep_for(5ms);
    (void)q.push(Item{1, 1});
  });
  std::vector<Item> batch;
  ASSERT_TRUE(q.pop_batch(2, std::chrono::microseconds(2'000'000), batch));
  straggler.join();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ServeQueue, CloseDrainsThenReturnsFalse) {
  Queue q = make_queue(16);
  ASSERT_EQ(q.push(Item{1, 0}), Queue::PushResult::kOk);
  ASSERT_EQ(q.push(Item{2, 1}), Queue::PushResult::kOk);
  q.close();
  EXPECT_EQ(q.push(Item{3, 2}), Queue::PushResult::kClosed);

  std::vector<Item> batch;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));  // key-1 remainder
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));  // key-2 remainder
  EXPECT_FALSE(q.pop_batch(8, 0us, batch));  // closed and drained
}

// Multi-producer / multi-consumer: every item is delivered exactly once,
// and each popped batch is key-homogeneous.
TEST(ServeQueue, ConcurrentProducersConsumersDeliverExactlyOnce) {
  Queue q = make_queue(1024);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  constexpr int kTotal = kProducers * kPerProducer;

  std::atomic<int> delivered{0};
  std::atomic<bool> mixed_key_batch{false};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<Item> batch;
      while (q.pop_batch(8, 50us, batch)) {
        for (const Item& item : batch) {
          if (item.key != batch.front().key) mixed_key_batch = true;
        }
        delivered += static_cast<int>(batch.size());
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Item item{p % 2, p * kPerProducer + i};
        while (q.push(std::move(item)) != Queue::PushResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(delivered.load(), kTotal);
  EXPECT_FALSE(mixed_key_batch.load());
}

// ---------------------------------------------------------------------------
// Priority / deadline scheduling (DESIGN.md §13). An urgency functor
// turns the FIFO bound into (priority class, earliest deadline, arrival)
// dispatch with expiry sweeps and lowest-urgency-first displacement.

struct UItem {
  int key = 0;
  int klass = 0;
  Queue::Clock::time_point deadline = Queue::Clock::time_point::max();
  int seq = 0;
};

using UQueue = serve::CoalescingQueue<UItem, int>;

UQueue make_urgent_queue(std::size_t capacity) {
  return UQueue(
      capacity, [](const UItem& item) { return item.key; },
      [](const UItem& item) {
        return UQueue::Urgency{item.klass, item.deadline};
      });
}

TEST(ServeQueue, PriorityClassOrdersDispatch) {
  UQueue q = make_urgent_queue(8);
  ASSERT_EQ(q.push(UItem{.key = 1, .klass = 2, .seq = 0}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{.key = 2, .klass = 1, .seq = 1}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{.key = 3, .klass = 0, .seq = 2}), UQueue::PushResult::kOk);

  // Distinct keys: each pop returns one item — most urgent class first.
  std::vector<UItem> batch;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).klass, 0);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).klass, 1);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).klass, 2);
}

TEST(ServeQueue, EarlierDeadlineDispatchedFirstWithinClass) {
  const auto now = Queue::Clock::now();
  UQueue q = make_urgent_queue(8);
  ASSERT_EQ(q.push(UItem{1, 1, now + 50ms, 0}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{2, 1, now + 20ms, 1}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{3, 1, Queue::Clock::time_point::max(), 2}),
            UQueue::PushResult::kOk);

  std::vector<UItem> batch;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).seq, 1);  // tightest deadline
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).seq, 0);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch));
  EXPECT_EQ(batch.at(0).seq, 2);  // no deadline goes last
}

TEST(ServeQueue, MoreUrgentArrivalDisplacesLeastUrgentAtCapacity) {
  UQueue q = make_urgent_queue(2);
  ASSERT_EQ(q.push(UItem{.key = 1, .klass = 2, .seq = 0}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{.key = 2, .klass = 1, .seq = 1}), UQueue::PushResult::kOk);

  // A class-0 arrival displaces the class-2 victim, which is handed back
  // for its shed response.
  std::vector<UItem> displaced;
  EXPECT_EQ(q.push(UItem{.key = 3, .klass = 0, .seq = 2}, &displaced), UQueue::PushResult::kOk);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced.at(0).seq, 0);
  EXPECT_EQ(q.depth(), 2u);

  // Equal-or-lower urgency never displaces: the incoming item sheds.
  UItem equal{.key = 4, .klass = 1, .seq = 3};
  EXPECT_EQ(q.push(std::move(equal), &displaced), UQueue::PushResult::kFull);
  EXPECT_EQ(equal.seq, 3);  // intact for the caller's shed response
  EXPECT_EQ(displaced.size(), 1u);

  // Without a displaced sink there is no displacement, only kFull.
  EXPECT_EQ(q.push(UItem{.key = 5, .klass = 0, .seq = 4}), UQueue::PushResult::kFull);
}

TEST(ServeQueue, ExpiredItemsAreSweptNotServed) {
  const auto now = Queue::Clock::now();
  UQueue q = make_urgent_queue(8);
  ASSERT_EQ(q.push(UItem{1, 0, now - 1ms, 0}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{1, 0, now - 1ms, 1}), UQueue::PushResult::kOk);
  ASSERT_EQ(q.push(UItem{2, 0, now + 1h, 2}), UQueue::PushResult::kOk);

  std::vector<UItem> batch;
  std::vector<UItem> expired;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, &expired));
  ASSERT_EQ(expired.size(), 2u);  // swept in arrival order
  EXPECT_EQ(expired.at(0).seq, 0);
  EXPECT_EQ(expired.at(1).seq, 1);
  ASSERT_EQ(batch.size(), 1u);  // the live item still serves
  EXPECT_EQ(batch.at(0).seq, 2);
}

TEST(ServeQueue, OnlyExpiredWorkReturnsEmptyBatch) {
  const auto now = Queue::Clock::now();
  UQueue q = make_urgent_queue(8);
  ASSERT_EQ(q.push(UItem{1, 0, now - 1ms, 0}), UQueue::PushResult::kOk);

  std::vector<UItem> batch;
  std::vector<UItem> expired;
  // True with an empty batch: the caller answers the expired item now
  // instead of blocking for live work.
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, &expired));
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(q.depth(), 0u);
}

// A same-key straggler that is already past its deadline when the gather
// meets it goes to `expired`, and the gather goes on past it.
TEST(ServeQueue, ExpiredStragglerMetDuringGatherIsNotServed) {
  UQueue q = make_urgent_queue(8);
  ASSERT_EQ(q.push(UItem{1, 0, Queue::Clock::time_point::max(), 0}), UQueue::PushResult::kOk);
  std::thread straggler([&] {
    std::this_thread::sleep_for(5ms);
    (void)q.push(UItem{1, 0, Queue::Clock::now() - 1ms, 1});
    (void)q.push(UItem{1, 0, Queue::Clock::time_point::max(), 2});
  });
  std::vector<UItem> batch;
  std::vector<UItem> expired;
  ASSERT_TRUE(q.pop_batch(2, std::chrono::microseconds(2'000'000), batch, &expired));
  straggler.join();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.at(0).seq, 0);
  EXPECT_EQ(batch.at(1).seq, 2);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.at(0).seq, 1);
}

// ---------------------------------------------------------------------------
// Differential test against the linear-scan reference (queue_oracle.hpp).
// Seeded random op sequences — pushes over 1–4 keys and 3 classes with
// already-past, far-future and absent deadlines, sticky session items
// under a seq-contiguity JoinFn, pops with and without an expired sink,
// displacement at a small capacity, and close — must give identical push
// results, batches, expired and displaced items (contents and order) and
// depth after every op.

struct DItem {
  std::uint64_t id = 0;
  int key = 0;
  int klass = 0;
  Queue::Clock::time_point deadline = Queue::Clock::time_point::max();
  bool session = false;
  std::uint64_t chain = 0;  // session sequence number within its key
};

template <class Q>
Q make_session_queue(std::size_t capacity, bool urgent = true) {
  if (!urgent) return Q(capacity, [](const DItem& item) { return item.key; });
  return Q(
      capacity, [](const DItem& item) { return item.key; },
      [](const DItem& item) {
        return typename Q::Urgency{item.klass, item.deadline, item.session};
      },
      [](const DItem& last, const DItem& next) {
        return !last.session || next.chain == last.chain + 1;
      });
}

std::vector<std::uint64_t> ids_of(const std::vector<DItem>& items) {
  std::vector<std::uint64_t> ids;
  for (const DItem& item : items) ids.push_back(item.id);
  return ids;
}

TEST(ServeQueue, MatchesLinearScanOracleOnRandomSequences) {
  using Indexed = serve::CoalescingQueue<DItem, int>;
  using Oracle = serve::oracle::CoalescingQueue<DItem, int>;
  const auto start = Queue::Clock::now();
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    // Every fourth seed runs plain FIFO: no urgency, no join.
    const bool urgent = seed % 4 != 0;
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(2, 24));
    const int keys = static_cast<int>(rng.uniform_int(1, 4));
    Indexed indexed = make_session_queue<Indexed>(capacity, urgent);
    Oracle oracle = make_session_queue<Oracle>(capacity, urgent);
    std::vector<std::uint64_t> chains(4, 0);
    constexpr int kOps = 2000;
    const int close_at = static_cast<int>(rng.uniform_int(kOps / 2, kOps + kOps / 2));
    std::uint64_t next_id = 0;
    std::vector<DItem> batch_i, batch_o, side_i, side_o;

    for (int op = 0; op < kOps; ++op) {
      if (op == close_at) {
        indexed.close();
        oracle.close();
      }
      const bool can_pop = oracle.depth() > 0 || op >= close_at;
      if (!can_pop || rng.bernoulli(0.55)) {
        DItem item;
        item.id = next_id++;
        item.key = static_cast<int>(rng.uniform_int(0, keys - 1));
        item.klass = static_cast<int>(rng.uniform_int(0, 2));
        const double d = rng.uniform();
        if (d < 0.2) {
          item.deadline = start - std::chrono::milliseconds(rng.uniform_int(1, 50));
        } else if (d < 0.6) {
          item.deadline = start + std::chrono::hours(1) +
                          std::chrono::milliseconds(rng.uniform_int(0, 50));
        }
        item.session = rng.bernoulli(0.25);
        // Occasionally skip a sequence number so the join functor splits.
        if (item.session) item.chain = chains[item.key] += rng.bernoulli(0.1) ? 2 : 1;
        const bool sink = rng.bernoulli(0.8);
        side_i.clear();
        side_o.clear();
        DItem copy = item;
        const auto ri = indexed.push(std::move(item), sink ? &side_i : nullptr);
        const auto ro = oracle.push(std::move(copy), sink ? &side_o : nullptr);
        ASSERT_EQ(static_cast<int>(ri), static_cast<int>(ro)) << "push at op " << op;
        ASSERT_EQ(ids_of(side_i), ids_of(side_o)) << "displaced at op " << op;
      } else {
        const auto max_batch = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const bool sink = rng.bernoulli(0.8);
        side_i.clear();
        side_o.clear();
        const bool pi = indexed.pop_batch(max_batch, 0us, batch_i, sink ? &side_i : nullptr);
        const bool po = oracle.pop_batch(max_batch, 0us, batch_o, sink ? &side_o : nullptr);
        ASSERT_EQ(pi, po) << "pop at op " << op;
        ASSERT_EQ(ids_of(batch_i), ids_of(batch_o)) << "batch at op " << op;
        ASSERT_EQ(ids_of(side_i), ids_of(side_o)) << "expired at op " << op;
      }
      ASSERT_EQ(indexed.depth(), oracle.depth()) << "depth after op " << op;
    }
  }
}

// Three consumers and four producers over a small capacity: urgency
// classes, displacement, already-past deadlines and sticky session items
// under a seq-contiguity JoinFn. Every admitted item comes back exactly
// once — served, expired or displaced — no batch mixes keys, and session
// batches are seq-contiguous.
TEST(ServeQueue, ConcurrentUrgencyDisplacementAndSessionsDeliverExactlyOnce) {
  using SQueue = serve::CoalescingQueue<DItem, int>;
  SQueue q = make_session_queue<SQueue>(32);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1500;
  std::vector<std::atomic<int>> returned(kProducers * kPerProducer);
  std::vector<char> admitted(kProducers * kPerProducer, 0);
  std::atomic<bool> mixed_key_batch{false};
  std::atomic<bool> session_gap{false};

  std::atomic<bool> session_shed{false};  // sticky: never displaced or expired

  auto count = [&](const std::vector<DItem>& items, bool shed) {
    for (const DItem& item : items) {
      ++returned[item.id];
      if (shed && item.session) session_shed = true;
    }
  };
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<DItem> batch;
      std::vector<DItem> expired;
      while (q.pop_batch(8, 20us, batch, &expired)) {
        for (std::size_t i = 1; i < batch.size(); ++i) {
          if (batch[i].key != batch.front().key) mixed_key_batch = true;
          if (batch[i - 1].session && batch[i].chain != batch[i - 1].chain + 1) {
            session_gap = true;
          }
        }
        count(batch, false);
        count(expired, true);
        expired.clear();
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(static_cast<std::uint64_t>(p) + 1);
      std::vector<DItem> displaced;
      for (int i = 0; i < kPerProducer; ++i) {
        DItem item;
        item.id = static_cast<std::uint64_t>(p * kPerProducer + i);
        if (p < 2) {
          // A session stream on its own key: sticky, gapless, retried
          // until admitted.
          item.key = 10 + p;
          item.klass = 1;
          item.session = true;
          item.chain = static_cast<std::uint64_t>(i);
          while (q.push(DItem(item), &displaced) != SQueue::PushResult::kOk) {
            std::this_thread::yield();
          }
          admitted[item.id] = 1;
        } else {
          item.key = static_cast<int>(rng.uniform_int(0, 2));
          item.klass = static_cast<int>(rng.uniform_int(0, 2));
          const double d = rng.uniform();
          if (d < 0.25) {
            item.deadline = Queue::Clock::now() - 1ms;
          } else if (d < 0.5) {
            item.deadline = Queue::Clock::now() + 1h;
          }
          const std::uint64_t id = item.id;
          if (q.push(std::move(item), &displaced) == SQueue::PushResult::kOk) {
            admitted[id] = 1;
          }
        }
        count(displaced, true);
        displaced.clear();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  int not_once = 0;
  for (std::size_t id = 0; id < admitted.size(); ++id) {
    if (returned[id].load() != (admitted[id] != 0 ? 1 : 0)) ++not_once;
  }
  EXPECT_EQ(not_once, 0);
  EXPECT_FALSE(session_shed.load());
  EXPECT_FALSE(mixed_key_batch.load());
  EXPECT_FALSE(session_gap.load());
  EXPECT_EQ(q.depth(), 0u);
}

// ---------------------------------------------------------------------------
// PlanCache

std::shared_ptr<const infer::Engine> test_engine() {
  static const std::shared_ptr<const infer::Engine> engine = [] {
    auto model = core::make_adapt_pnc(2, 0.01, 5, 4);
    return std::make_shared<const infer::Engine>(
        infer::Engine::compile(*model));
  }();
  return engine;
}

serve::PlanCache::Factory entry_factory() {
  return [] {
    return std::make_shared<serve::PlanCacheEntry>(
        test_engine(), variation::VariationSpec::none(), 0);
  };
}

serve::PlanKey key_of(std::uint64_t digest) {
  return serve::PlanKey{digest, 0, 1, 0, "adapt_pnc"};
}

TEST(ServePlanCache, HitsMissesAndReuse) {
  serve::PlanCache cache(4);
  auto a = cache.get_or_create(key_of(1), entry_factory());
  auto b = cache.get_or_create(key_of(1), entry_factory());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServePlanCache, EvictsLeastRecentlyUsed) {
  serve::PlanCache cache(2);
  auto a = cache.get_or_create(key_of(1), entry_factory());
  auto b = cache.get_or_create(key_of(2), entry_factory());
  // Touch 1 so 2 becomes the LRU entry.
  (void)cache.get_or_create(key_of(1), entry_factory());
  auto c = cache.get_or_create(key_of(3), entry_factory());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(2)));
  EXPECT_TRUE(cache.contains(key_of(3)));
  // The evicted entry stays alive through the caller's shared_ptr (an
  // in-flight batch keeps serving on it).
  EXPECT_NE(b.get(), nullptr);
}

TEST(ServePlanCache, DistinctKeysDistinctEntries) {
  serve::PlanCache cache(8);
  auto base = cache.get_or_create(key_of(1), entry_factory());
  // Any differing key component — digest, seed, generation, family — is a
  // different realization.
  auto other_seed = cache.get_or_create(serve::PlanKey{1, 5, 1, 0, "adapt_pnc"},
                                        entry_factory());
  auto other_gen = cache.get_or_create(serve::PlanKey{1, 0, 2, 0, "adapt_pnc"},
                                       entry_factory());
  EXPECT_NE(base.get(), other_seed.get());
  EXPECT_NE(base.get(), other_gen.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ServePlanCache, LeasedPlansAreStampedAtRequestedRows) {
  serve::PlanCache cache(2);
  auto entry = cache.get_or_create(key_of(1), entry_factory());
  {
    auto plan = entry->lease_plan(5);
    EXPECT_TRUE(plan->stamped());
    EXPECT_EQ(plan->batch(), 5u);
  }
  // Returned to the pool and re-broadcast on the next lease.
  auto plan = entry->lease_plan(2);
  EXPECT_EQ(plan->batch(), 2u);
}

}  // namespace
}  // namespace pnc
