/**
 * @file
 * A tournament (winner) tree for the GPU event loop.
 *
 * Each compute unit has at most one pending activation time, so the
 * event loop needs a priority structure over at most numCus keys with
 * in-place reschedule (the launch-finished broadcast reschedules every
 * CU to "now"). The tree keeps one packed key, (tick << idBits) | id,
 * per leaf, and every internal node holds the smaller of its two
 * children, so the root is the minimum (tick, id). schedule() and
 * popMin() rewrite one leaf and replay its path to the root: one
 * compare per level, 6 levels at 64 CUs and 3 at 8.
 *
 * Ordering contract: popMin() returns scheduled entries in strictly
 * ascending (tick, id) lexicographic order, one live entry per id,
 * for any sequence of schedules at ticks in [0, maxTick()].
 */

#ifndef PCSTALL_GPU_EVENT_QUEUE_HH
#define PCSTALL_GPU_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pcstall::gpu
{

/** Winner-tree priority queue holding one pending tick per id. */
class TournamentQueue
{
  public:
    /**
     * Prepare for a run over ids [0, @p n). Drops any previously
     * scheduled entries; the buffer is reused.
     */
    void
    reset(std::uint32_t n)
    {
        idBits_ = static_cast<unsigned>(std::bit_width(n > 0 ? n - 1 : 0));
        maxTick_ = std::min<std::uint64_t>(
            (kEmpty >> idBits_) - 1,
            static_cast<std::uint64_t>(std::numeric_limits<Tick>::max()));
        leaves_ = std::bit_ceil(std::max<std::size_t>(n, 1));
        tree_.assign(2 * leaves_, kEmpty);
    }

    bool empty() const { return tree_[1] == kEmpty; }

    /** Key of an empty queue; compares above every packed key. */
    static constexpr std::uint64_t noKey =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * The packed (tick, id) key schedule(id, t) files: keys compare
     * like (tick, id) pairs. Valid for ticks in [0, maxTick()].
     */
    std::uint64_t
    key(Tick t, std::uint32_t id) const
    {
        return (static_cast<std::uint64_t>(t) << idBits_) | id;
    }

    /** Key of the smallest scheduled entry (noKey when empty). */
    std::uint64_t minKey() const { return tree_[1]; }

    /** Largest tick schedule() accepts after reset(n) (key packing). */
    Tick maxTick() const { return static_cast<Tick>(maxTick_); }

    /**
     * Schedule (or reschedule) @p id at time @p t. Throws FatalError
     * when @p t lies outside [0, maxTick()].
     */
    void
    schedule(std::uint32_t id, Tick t)
    {
        if (static_cast<std::uint64_t>(t) > maxTick_) [[unlikely]]
            fatal("event queue: tick " + std::to_string(t) +
                  " outside [0, " + std::to_string(maxTick_) + "]");
        replay(id, key(t, id));
    }

    /**
     * Pop the scheduled entry with the smallest (tick, id). Returns
     * false when nothing is scheduled.
     */
    bool
    popMin(Tick &t_out, std::uint32_t &id_out)
    {
        const std::uint64_t key = tree_[1];
        if (key == kEmpty)
            return false;
        id_out = static_cast<std::uint32_t>(key & ((1ULL << idBits_) - 1));
        t_out = static_cast<Tick>(key >> idBits_);
        replay(id_out, kEmpty);
        return true;
    }

  private:
    /** Key of an unscheduled leaf; sorts after every packed key. */
    static constexpr std::uint64_t kEmpty = noKey;

    /** Set @p id's leaf to @p key and recompute its path's winners. */
    void
    replay(std::uint32_t id, std::uint64_t key)
    {
        std::size_t node = leaves_ + id;
        tree_[node] = key;
        for (; node > 1; node >>= 1) {
            key = std::min(key, tree_[node ^ 1]);
            tree_[node >> 1] = key;
        }
    }

    unsigned idBits_ = 0;
    std::uint64_t maxTick_ = 0;
    std::size_t leaves_ = 1;
    /** Heap-ordered nodes: root at 1, leaves at [leaves_, 2 * leaves_). */
    std::vector<std::uint64_t> tree_{kEmpty, kEmpty};
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_EVENT_QUEUE_HH
