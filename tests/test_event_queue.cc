/**
 * @file
 * TournamentQueue (the winner tree behind GpuChip::runUntil) against a
 * reference ordered set: the contract is strictly ascending (tick, id)
 * pop order with one live entry per id, for schedules in any order at
 * ticks in [0, maxTick()]. The randomized cross-check drives both
 * structures through the same operation stream, including schedules
 * earlier than the last pop and ticks at the top of the key encoding.
 */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gpu/event_queue.hh"

using namespace pcstall;
using gpu::TournamentQueue;

namespace
{

/** Reference model: ordered (tick, id) pairs, one entry per id. */
class ReferenceQueue
{
  public:
    void
    reset(std::uint32_t n)
    {
        entries_.clear();
        when_.assign(n, -1);
    }

    void
    schedule(std::uint32_t id, Tick t)
    {
        if (when_[id] >= 0)
            entries_.erase({when_[id], id});
        when_[id] = t;
        entries_.insert({t, id});
    }

    bool
    popMin(Tick &t_out, std::uint32_t &id_out)
    {
        if (entries_.empty())
            return false;
        const auto [t, id] = *entries_.begin();
        entries_.erase(entries_.begin());
        when_[id] = -1;
        t_out = t;
        id_out = id;
        return true;
    }

    bool empty() const { return entries_.empty(); }

  private:
    std::set<std::pair<Tick, std::uint32_t>> entries_;
    std::vector<Tick> when_;
};

/** Pop every entry of @p q as (tick, id) pairs, in pop order. */
std::vector<std::pair<Tick, std::uint32_t>>
drain(TournamentQueue &q)
{
    std::vector<std::pair<Tick, std::uint32_t>> out;
    Tick t = 0;
    std::uint32_t id = 0;
    while (q.popMin(t, id))
        out.emplace_back(t, id);
    return out;
}

using Pops = std::vector<std::pair<Tick, std::uint32_t>>;

} // namespace

TEST(TournamentQueue, PopsInAscendingTickIdOrder)
{
    TournamentQueue q;
    q.reset(8);
    // Same tick for several ids: pop order must break ties by id.
    q.schedule(5, 100);
    q.schedule(1, 100);
    q.schedule(3, 100);
    q.schedule(0, 50);
    q.schedule(7, 2000);
    EXPECT_EQ(drain(q),
              (Pops{{50, 0}, {100, 1}, {100, 3}, {100, 5}, {2000, 7}}));
    EXPECT_TRUE(q.empty());
}

TEST(TournamentQueue, RescheduleMovesAnEntry)
{
    TournamentQueue q;
    q.reset(4);
    q.schedule(2, 1000);
    q.schedule(2, 10); // overrides, does not duplicate
    q.schedule(1, 20);
    q.schedule(1, 5000); // later is fine too
    EXPECT_EQ(drain(q), (Pops{{10, 2}, {5000, 1}}));
}

TEST(TournamentQueue, FarFutureAndNearEntriesInterleave)
{
    TournamentQueue q;
    q.reset(3);
    // Entries seconds apart share the tree with near ones; scheduling
    // near work after a far pop (the launch-finished broadcast's
    // pattern, reversed) must still order correctly.
    const Tick far_a = 50'000'000;
    const Tick far_b = 900'000'000;
    q.schedule(0, far_b);
    q.schedule(1, 5);
    q.schedule(2, far_a);

    Tick t = 0;
    std::uint32_t id = 0;
    ASSERT_TRUE(q.popMin(t, id));
    EXPECT_EQ(t, 5);
    EXPECT_EQ(id, 1u);
    ASSERT_TRUE(q.popMin(t, id));
    EXPECT_EQ(t, far_a);
    EXPECT_EQ(id, 2u);
    q.schedule(1, 6);
    q.schedule(2, far_a + 1);
    EXPECT_EQ(drain(q), (Pops{{6, 1}, {far_a + 1, 2}, {far_b, 0}}));
}

TEST(TournamentQueue, ResetReusesBuffersAndDropsEntries)
{
    TournamentQueue q;
    EXPECT_TRUE(q.empty());
    q.reset(4);
    q.schedule(0, 7);
    q.schedule(3, 9);
    q.reset(4);
    EXPECT_TRUE(q.empty());
    Tick t = 0;
    std::uint32_t id = 0;
    EXPECT_FALSE(q.popMin(t, id));
    q.schedule(1, 100'500);
    q.schedule(0, 100'400);
    ASSERT_TRUE(q.popMin(t, id));
    EXPECT_EQ(t, 100'400);
    EXPECT_EQ(id, 0u);
    // A reset to a different id count re-sizes the tree.
    q.reset(1);
    EXPECT_TRUE(q.empty());
    q.schedule(0, 3);
    EXPECT_EQ(drain(q), (Pops{{3, 0}}));
}

TEST(TournamentQueue, AcceptsTheLargestEncodableTick)
{
    TournamentQueue q;
    // 64 ids need 6 id bits, leaving 58 for the tick; the all-ones
    // key is reserved for empty leaves.
    q.reset(64);
    const Tick top = (Tick{1} << 58) - 2;
    EXPECT_EQ(q.maxTick(), top);
    q.schedule(63, top);
    q.schedule(0, top);
    q.schedule(17, top - 1);
    q.schedule(5, 0);
    EXPECT_EQ(drain(q),
              (Pops{{0, 5}, {top - 1, 17}, {top, 0}, {top, 63}}));

    // 70 ids need 7 bits; a single id needs none, so every
    // non-negative Tick is representable.
    q.reset(70);
    EXPECT_EQ(q.maxTick(), (Tick{1} << 57) - 2);
    q.reset(1);
    EXPECT_EQ(q.maxTick(), std::numeric_limits<Tick>::max());
    q.schedule(0, q.maxTick());
    EXPECT_EQ(drain(q), (Pops{{q.maxTick(), 0}}));
}

TEST(TournamentQueue, RejectsTicksOutsideTheKeyEncoding)
{
    TournamentQueue q;
    q.reset(64);
    q.schedule(4, 10);
    EXPECT_FATAL(q.schedule(1, q.maxTick() + 1), "outside");
    EXPECT_FATAL(q.schedule(1, -1), "outside");
    EXPECT_FATAL(q.schedule(2, std::numeric_limits<Tick>::max()),
                 "outside");
    // A rejected schedule leaves the queue untouched.
    EXPECT_EQ(drain(q), (Pops{{10, 4}}));
}

TEST(TournamentQueue, RandomizedCrossCheckAgainstOrderedSet)
{
    // Deltas mix short hops around the last pop (including ties and
    // schedules before it), mid-range and far jumps, and ticks at the
    // top of the encoding.
    Rng rng(0xE0E0'51A7ULL);
    const std::uint32_t num_ids = 70; // > one word, not a power of two
    TournamentQueue q;
    ReferenceQueue ref;

    for (int round = 0; round < 20; ++round) {
        q.reset(num_ids);
        ref.reset(num_ids);
        Tick last_pop = static_cast<Tick>(rng.below(1'000'000'000ULL));

        for (int op = 0; op < 4000; ++op) {
            const std::uint64_t roll = rng.below(100);
            if (roll < 55 || ref.empty()) {
                const std::uint32_t id =
                    static_cast<std::uint32_t>(rng.below(num_ids));
                const std::uint64_t kind = rng.below(100);
                Tick t = 0;
                if (kind < 45)
                    t = last_pop + static_cast<Tick>(rng.below(2'000));
                else if (kind < 55)
                    t = last_pop - static_cast<Tick>(rng.below(
                                       static_cast<std::uint64_t>(
                                           last_pop) + 1));
                else if (kind < 85)
                    t = last_pop + static_cast<Tick>(rng.below(200'000));
                else if (kind < 97)
                    t = last_pop + static_cast<Tick>(
                                       rng.below(2'000'000'000ULL));
                else
                    t = q.maxTick() - static_cast<Tick>(rng.below(3));
                q.schedule(id, t);
                ref.schedule(id, t);
            } else {
                Tick qt = 0, rt = 0;
                std::uint32_t qid = 0, rid = 0;
                const bool qok = q.popMin(qt, qid);
                const bool rok = ref.popMin(rt, rid);
                ASSERT_EQ(qok, rok) << "round " << round << " op "
                                    << op;
                ASSERT_EQ(qt, rt) << "round " << round << " op " << op;
                ASSERT_EQ(qid, rid)
                    << "round " << round << " op " << op;
                // Keep the stream near real ticks after a far pop.
                if (qt < q.maxTick() - 2)
                    last_pop = qt;
            }
            ASSERT_EQ(q.empty(), ref.empty());
        }

        // Drain both queues completely; order must match to the end.
        for (;;) {
            Tick qt = 0, rt = 0;
            std::uint32_t qid = 0, rid = 0;
            const bool qok = q.popMin(qt, qid);
            const bool rok = ref.popMin(rt, rid);
            ASSERT_EQ(qok, rok);
            if (!qok)
                break;
            ASSERT_EQ(qt, rt);
            ASSERT_EQ(qid, rid);
        }
        EXPECT_TRUE(q.empty());
    }
}
