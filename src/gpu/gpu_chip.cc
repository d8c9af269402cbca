#include "gpu/gpu_chip.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/event_queue.hh"

namespace pcstall::gpu
{

namespace
{
/** Sync derived fields of the configuration. */
GpuConfig
normalized(GpuConfig cfg)
{
    fatalIf(cfg.numCus == 0, "GPU needs at least one CU");
    fatalIf(cfg.waveSlotsPerCu == 0, "GPU needs at least one wave slot");
    cfg.mem.numCus = cfg.numCus;
    return cfg;
}
} // namespace

GpuChip::GpuChip(const GpuConfig &config,
                 std::shared_ptr<const isa::Application> app_in)
    : cfg(normalized(config)), app(std::move(app_in)), mem(cfg.mem)
{
    fatalIf(!app, "GpuChip requires an application");
    fatalIf(app->launches.empty(),
            "application '" + app->name + "' has no kernel launches");
    for (const isa::Kernel &k : app->launches) {
        k.validate();
        fatalIf(k.wavesPerWorkgroup > cfg.waveSlotsPerCu,
                "kernel '" + k.name + "' workgroup does not fit in a CU");
    }

    cus.resize(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        cus[i].init(i, cfg.waveSlotsPerCu, cfg.simdsPerCu,
                    cfg.defaultFreq);

    dispatch.curLaunch = 0;
    dispatch.wgUndispatched = app->launches[0].numWorkgroups;
    dispatch.wgCompleted = 0;
}

CuContext
GpuChip::makeContext()
{
    return CuContext{mem, *app, dispatch, cfg};
}

bool
GpuChip::done() const
{
    if (dispatch.curLaunch < app->launches.size())
        return false;
    for (const ComputeUnit &cu : cus)
        if (!cu.idle())
            return false;
    return true;
}

bool
GpuChip::runUntil(Tick until, CuTeam *team)
{
    panicIf(until < curTick, "runUntil into the past");
    CuContext ctx = makeContext();
    if (team != nullptr)
        runTeam(ctx, until, *team);
    else
        runSerial(ctx, until);
    curTick = until;
    return done();
}

void
GpuChip::runSerial(CuContext &ctx, Tick hi)
{
    // Tournament tree of (nextEventAt, cuId), kept in a thread_local
    // scratch so the hottest loop of the simulator performs no heap
    // allocation per epoch: the oracle calls runUntil once per V/f
    // sample per epoch boundary. Each schedule or pop replays one
    // leaf-to-root path (log2 of the CU count), pops come out in
    // strictly ascending (tick, id) order, and a reschedule rewrites
    // the CU's single leaf, so the launch-finished broadcast leaves
    // no stale entries behind.
    static thread_local TournamentQueue queue;
    queue.reset(static_cast<std::uint32_t>(cus.size()));
    for (std::uint32_t i = 0; i < cus.size(); ++i) {
        if (cus[i].nextEventAt < hi)
            queue.schedule(i, cus[i].nextEventAt);
    }

    Tick t = 0;
    std::uint32_t id = 0;
    while (queue.popMin(t, id)) {
        const StepResult res = cus[id].step(ctx, t);
        cus[id].nextEventAt = res.next;
        if (res.next < hi)
            queue.schedule(id, res.next);

        if (res.launchFinished) {
            // A new kernel launch became available: wake every CU so
            // idle ones can pull workgroups.
            for (std::uint32_t i = 0; i < cus.size(); ++i) {
                if (i == id)
                    continue;
                if (cus[i].nextEventAt > t) {
                    cus[i].nextEventAt = t;
                    queue.schedule(i, t);
                }
            }
        }
    }
}

void
GpuChip::runTeam(CuContext &ctx, Tick until, CuTeam &team)
{
    Witness witness;
    for (;;) {
        Tick lo = tickInf;
        for (const ComputeUnit &cu : cus)
            lo = std::min(lo, cu.nextEventAt);
        if (lo >= until)
            break;
        const Tick horizon = launchHorizon(lo, until, witness);
        if (horizon - lo >= teamWindow) {
            runMembers(ctx, std::min(horizon, until), team);
            ++team.stats.windowsParallel;
        } else {
            runSerial(ctx, until - lo > teamWindow ? lo + teamWindow : until);
            ++team.stats.windowsSerial;
        }
    }
}

namespace
{

/** One team member's state in GpuChip::runMembers(). */
struct alignas(64) Member
{
    /** Key of the member's earliest unfinished step; the others read
     *  it to decide when a parked shared action of theirs is next.
     *  Its line holds nothing the member writes on every step. */
    alignas(64) std::atomic<std::uint64_t> clock{0};
    /** Members asleep until `clock` changes. */
    std::atomic<std::uint32_t> sleepers{0};
    alignas(64) TournamentQueue queue;
    /** (key, CU id) of the member's CUs parked before a shared action. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> parked;
    std::vector<StepCursor> cursors;
    /** The other members' clocks as last read. */
    std::vector<std::uint64_t> seen;
    std::uint64_t privateSteps = 0;
    std::uint64_t parkedSteps = 0;
    /** A step's failure, and the CU whose step threw it. */
    std::exception_ptr error;
    std::uint32_t failedCu = 0;
};

/**
 * Set @p me's clock and wake the members sleeping on it. Sequentially
 * consistent, pairing with the sleeper's count-then-load: either the
 * sleeper sees the new clock or this sees the sleeper.
 */
void
publish(Member &me, std::uint64_t clock)
{
    me.clock.store(clock);
    if (me.sleepers.load() > 0)
        me.clock.notify_all();
}

} // namespace

void
GpuChip::runMembers(CuContext &ctx, Tick end, CuTeam &team)
{
    const auto n = static_cast<std::uint32_t>(cus.size());
    const unsigned members = team.size();
    // The calling thread's scratch, handed to the members by pointer.
    static thread_local std::unique_ptr<Member[]> scratch;
    static thread_local unsigned scratch_size = 0;
    if (scratch_size != members) {
        scratch = std::make_unique<Member[]>(members);
        scratch_size = members;
    }
    Member *const all = scratch.get();
    for (unsigned m = 0; m < members; ++m) {
        all[m].clock.store(0, std::memory_order_relaxed);
        all[m].error = nullptr;
    }
    // Set when a step fails, so the others stop waiting for its member.
    std::atomic<bool> failed{false};

    auto run_member = [&, all](unsigned m) {
        Member &me = all[m];
        // Member m owns CUs m, m + members, ...: dispatch hands out
        // workgroups in CU id order, so a launch smaller than the
        // chip still spreads over every member.
        me.queue.reset(n);
        for (std::uint32_t id = m; id < n; id += members) {
            if (cus[id].nextEventAt < end)
                me.queue.schedule(id, cus[id].nextEventAt);
        }
        me.parked.clear();
        me.cursors.assign((n + members - 1) / members, StepCursor{});
        me.privateSteps = 0;
        me.parkedSteps = 0;

        // The first other member not yet past `key` (members when
        // none is). Clocks only grow, so a clock seen past `key` stays
        // past it and is not read again (another core's line).
        me.seen.assign(members, 0);
        auto behind = [&](std::uint64_t key) {
            for (unsigned o = 0; o < members; ++o) {
                if (o == m || me.seen[o] > key)
                    continue;
                me.seen[o] = all[o].clock.load(std::memory_order_acquire);
                if (me.seen[o] <= key)
                    return o;
            }
            return members;
        };

        StepResult res;
        std::uint32_t id = 0;
        std::chrono::steady_clock::time_point idle_since;
        // Publishing an unchanged clock would only pull the line away
        // from the members polling it.
        std::uint64_t published = 0;
        try {
            for (unsigned idle = 0;;) {
                if (failed.load(std::memory_order_relaxed))
                    break;
                std::uint64_t parked_key = TournamentQueue::noKey;
                std::size_t parked_at = 0;
                for (std::size_t k = 0; k < me.parked.size(); ++k) {
                    if (me.parked[k].first < parked_key) {
                        parked_key = me.parked[k].first;
                        parked_at = k;
                    }
                }
                const std::uint64_t queue_key = me.queue.minKey();
                const std::uint64_t mine = std::min(parked_key, queue_key);
                if (mine != published) {
                    publish(me, mine);
                    published = mine;
                }
                if (mine == TournamentQueue::noKey)
                    break;

                const unsigned waiting_for = parked_key < queue_key
                    ? behind(parked_key) : members;
                if (parked_key < queue_key && waiting_for == members) {
                    // This member's earliest step is the globally next
                    // shared action: finish the parked step.
                    id = me.parked[parked_at].second;
                    me.parked[parked_at] = me.parked.back();
                    me.parked.pop_back();
                    ComputeUnit &cu = cus[id];
                    res = cu.step(ctx, cu.nextEventAt,
                                  me.cursors[id / members]);
                    panicIf(res.launchFinished,
                            "kernel launch ended inside a parallel team "
                            "window");
                    cu.nextEventAt = res.next;
                    if (res.next < end)
                        me.queue.schedule(id, res.next);
                    idle = 0;
                    continue;
                }
                Tick t = 0;
                if (me.queue.popMin(t, id)) {
                    // Private steps commute with every other CU's, so
                    // run ahead while an earlier parked action waits.
                    ComputeUnit &cu = cus[id];
                    if (cu.stepPrivate(ctx, t, me.cursors[id / members],
                                       res)) {
                        ++me.privateSteps;
                        cu.nextEventAt = res.next;
                        if (res.next < end)
                            me.queue.schedule(id, res.next);
                    } else {
                        ++me.parkedSteps;
                        me.parked.emplace_back(me.queue.key(t, id), id);
                    }
                    idle = 0;
                    continue;
                }
                // Only parked actions left; another member is behind.
                // Spin, then yield (on a loaded machine it may be
                // waiting for this core), then sleep until its clock
                // moves: waits are short unless a core is taken away.
                if (++idle < 64) {
                    cpuRelax();
                } else if (idle == 64) {
                    idle_since = std::chrono::steady_clock::now();
                } else if (std::chrono::steady_clock::now() - idle_since <
                           std::chrono::microseconds(50)) {
                    std::this_thread::yield();
                } else {
                    Member &other = all[waiting_for];
                    other.sleepers.fetch_add(1);
                    const std::uint64_t seen = other.clock.load();
                    if (seen <= parked_key &&
                        !failed.load(std::memory_order_relaxed)) {
                        other.clock.wait(seen);
                    }
                    other.sleepers.fetch_sub(1);
                }
            }
        } catch (...) {
            me.error = std::current_exception();
            me.failedCu = id;
            failed.store(true, std::memory_order_relaxed);
        }
        // Done (or failed): never hold the others back again.
        publish(me, TournamentQueue::noKey);
    };
    team.forEachMember(run_member);

    const Member *first_failure = nullptr;
    for (unsigned m = 0; m < members; ++m) {
        team.stats.privateSteps += all[m].privateSteps;
        team.stats.parkedSteps += all[m].parkedSteps;
        if (all[m].error &&
            (!first_failure || all[m].failedCu < first_failure->failedCu))
            first_failure = &all[m];
    }
    if (first_failure != nullptr)
        std::rethrow_exception(first_failure->error);
}

Tick
GpuChip::launchHorizon(Tick lo, Tick until, Witness &w) const
{
    if (dispatch.curLaunch >= app->launches.size())
        return tickInf;
    // A CU issues at most once per cycle of its clock and a wave at
    // most once per CU step, so a wave needing d more issues reaches
    // its s_endpgm no earlier than lo + (d - 1) periods. Every
    // resident wave belongs to the current launch, which cannot end
    // before that wave's workgroup does.
    auto horizon_of = [&](std::uint32_t cu, std::uint32_t slot) {
        const std::uint64_t d = cus[cu].issuesToEnd(*app, slot);
        if (d == 0)
            return lo;
        return lo + static_cast<Tick>(d - 1) * cus[cu].period();
    };
    const Tick cached = horizon_of(w.cu, w.slot);
    if (cached >= until ||
        (w.launch == dispatch.curLaunch && lo < w.rescanAt)) {
        return cached;
    }
    // Look for the wave with the most issues left, so it lasts, at
    // most once per horizon found. In a launch's tail every wave is
    // close to its end; search only now and then there.
    Tick best = cached;
    for (std::uint32_t cu = 0; cu < cus.size(); ++cu) {
        for (std::uint32_t slot = 0; slot < cus[cu].slotCount(); ++slot) {
            const Tick h = horizon_of(cu, slot);
            if (h > best) {
                best = h;
                w.cu = cu;
                w.slot = slot;
                if (best >= until)
                    break;
            }
        }
        if (best >= until)
            break;
    }
    w.launch = dispatch.curLaunch;
    w.rescanAt = std::max(best, lo + 16 * teamWindow);
    return best;
}

EpochRecord
GpuChip::harvestEpoch(Tick epoch_start)
{
    EpochRecord record;
    harvestEpoch(epoch_start, record);
    return record;
}

void
GpuChip::harvestEpoch(Tick epoch_start, EpochRecord &out)
{
    CuContext ctx = makeContext();
    out.start = epoch_start;
    out.end = curTick;
    out.cus.resize(cus.size());
    out.waves.clear();
    for (std::uint32_t i = 0; i < cus.size(); ++i)
        cus[i].harvest(ctx, curTick, out.cus[i], out.waves);
    mem.resetActivity();
}

void
GpuChip::setCuFrequency(std::uint32_t cu_id, Freq freq,
                        Tick transition_latency)
{
    panicIf(cu_id >= cus.size(), "setCuFrequency: bad CU id");
    cus[cu_id].setFrequency(freq, curTick, transition_latency);
}

Freq
GpuChip::cuFrequency(std::uint32_t cu_id) const
{
    panicIf(cu_id >= cus.size(), "cuFrequency: bad CU id");
    return cus[cu_id].frequency();
}

std::vector<WaveSnapshot>
GpuChip::waveSnapshots() const
{
    std::vector<WaveSnapshot> out;
    out.reserve(cus.size() * cfg.waveSlotsPerCu);
    for (const ComputeUnit &cu : cus)
        cu.appendSnapshots(*app, out);
    return out;
}

std::uint64_t
GpuChip::stateFingerprint() const
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    h = hashCombine(h, static_cast<std::uint64_t>(curTick));
    h = hashCombine(h, dispatch.curLaunch);
    h = hashCombine(h, dispatch.wgUndispatched);
    h = hashCombine(h, dispatch.wgCompleted);
    h = hashCombine(h, dispatch.nextGlobalWaveId);
    for (const ComputeUnit &cu : cus)
        cu.fingerprint(h);
    mem.fingerprint(h);
    return h;
}

std::uint64_t
GpuChip::totalCommitted() const
{
    std::uint64_t sum = 0;
    for (const ComputeUnit &cu : cus)
        sum += cu.lifeCommitted();
    return sum;
}

Tick
GpuChip::lastCommitTick() const
{
    Tick last = 0;
    for (const ComputeUnit &cu : cus)
        last = std::max(last, cu.lastCommitTick());
    return last;
}

Tick
transitionLatencyFor(Tick epoch_length)
{
    // Paper Section 5: 4 ns @ 1 us, 40 ns @ 10 us, 200 ns @ 50 us,
    // 400 ns @ 100 us. Interpolate linearly between the published
    // points and clamp outside.
    struct Point { Tick epoch; Tick latency; };
    static constexpr Point points[] = {
        {1 * tickUs, 4 * tickNs},
        {10 * tickUs, 40 * tickNs},
        {50 * tickUs, 200 * tickNs},
        {100 * tickUs, 400 * tickNs},
    };
    if (epoch_length <= points[0].epoch)
        return points[0].latency;
    for (std::size_t i = 1; i < std::size(points); ++i) {
        if (epoch_length <= points[i].epoch) {
            const auto &a = points[i - 1];
            const auto &b = points[i];
            const double frac =
                static_cast<double>(epoch_length - a.epoch) /
                static_cast<double>(b.epoch - a.epoch);
            return a.latency + static_cast<Tick>(
                frac * static_cast<double>(b.latency - a.latency));
        }
    }
    return points[std::size(points) - 1].latency;
}

} // namespace pcstall::gpu
