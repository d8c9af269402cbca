#include "gpu/gpu_chip.hh"

#include <algorithm>

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
GpuChip::runUntil(Tick until)
{
    panicIf(until < curTick, "runUntil into the past");
    CuContext ctx = makeContext();

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
        if (cus[i].nextEventAt < until)
            queue.schedule(i, cus[i].nextEventAt);
    }

    Tick t = 0;
    std::uint32_t id = 0;
    while (queue.popMin(t, id)) {
        const StepResult res = cus[id].step(ctx, t);
        cus[id].nextEventAt = res.next;
        if (res.next < until)
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

    curTick = until;
    return done();
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
