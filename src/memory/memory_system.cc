#include "memory/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::memory
{

const char *
serviceLevelName(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1: return "L1";
      case ServiceLevel::L2: return "L2";
      case ServiceLevel::Dram: return "DRAM";
    }
    return "?";
}

MemActivity &
MemActivity::operator+=(const MemActivity &other)
{
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    stores += other.stores;
    storesCombined += other.storesCombined;
    return *this;
}

MemorySystem::MemorySystem(const MemConfig &config) : cfg(config)
{
    fatalIf(cfg.numCus == 0, "memory system needs at least one CU");
    fatalIf(cfg.l2Banks == 0, "memory system needs at least one L2 bank");
    fatalIf(cfg.dramChannels == 0, "memory system needs a DRAM channel");
    fatalIf(cfg.l2SizeBytes % cfg.l2Banks != 0,
            "L2 size must divide evenly across banks");

    cuSide.reserve(cfg.numCus);
    for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu) {
        cuSide.push_back(CuSide{
            CacheModel(cfg.l1SizeBytes, cfg.lineBytes, cfg.l1Ways),
            MemActivity{}, ~0ULL});
    }

    const std::uint64_t slice_size = cfg.l2SizeBytes / cfg.l2Banks;
    l2Slices.reserve(cfg.l2Banks);
    for (std::uint32_t b = 0; b < cfg.l2Banks; ++b)
        l2Slices.emplace_back(slice_size, cfg.lineBytes, cfg.l2Ways);

    bankFree.assign(cfg.l2Banks, 0);
    channelFree.assign(cfg.dramChannels, 0);
    l2Period = clockPeriod(cfg.l2Freq);
}

std::uint32_t
MemorySystem::bankOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr / cfg.lineBytes) % cfg.l2Banks);
}

std::uint32_t
MemorySystem::channelOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>(
        (addr / cfg.lineBytes / cfg.l2Banks) % cfg.dramChannels);
}

MemResult
MemorySystem::access(std::uint32_t cu_id, std::uint64_t addr, bool is_store,
                     Tick now, Tick cu_period)
{
    panicIf(cu_id >= cfg.numCus, "memory access from unknown CU");
    CuSide &side = cuSide[cu_id];
    MemActivity &act = side.activity;
    MemResult result;

    const std::uint64_t line_addr = addr & ~static_cast<std::uint64_t>(
        cfg.lineBytes - 1);

    if (is_store) {
        // Write-through, no-allocate: touch L1 if present, then occupy
        // the L2 bank. The store is architecturally complete (for
        // waitcnt purposes) once the bank accepts it. Back-to-back
        // stores to the same line merge in the L1 write buffer.
        ++act.stores;
        if (cfg.storeCombining && side.lastStoreLine == line_addr) {
            // Absorbed by the write buffer in a single CU cycle.
            ++act.storesCombined;
            result.completion = now + cu_period;
            result.servicedBy = ServiceLevel::L1;
            return result;
        }
        side.lastStoreLine = line_addr;
        side.l1.probe(line_addr);

        const Tick arrive = now + cfg.l1MissOverhead;
        const std::uint32_t bank = bankOf(line_addr);
        const Tick start = std::max(arrive, bankFree[bank]);
        bankFree[bank] = start + cfg.l2ServiceCycles * l2Period;

        const bool l2_hit = l2Slices[bank].access(line_addr, true);
        if (l2_hit) {
            ++act.l2Hits;
        } else {
            ++act.l2Misses;
            // Dirty line eventually writes back; occupy the channel
            // but do not delay store completion.
            const std::uint32_t chan = channelOf(line_addr);
            const Tick dram_start = std::max(bankFree[bank],
                                             channelFree[chan]);
            channelFree[chan] = dram_start + cfg.dramServicePerLine;
        }
        result.completion = bankFree[bank];
        result.servicedBy = l2_hit ? ServiceLevel::L2 : ServiceLevel::Dram;
        return result;
    }

    // Loads: L1 in the CU's own clock domain.
    const bool l1_hit = side.l1.access(line_addr, true);
    if (l1_hit) {
        ++act.l1Hits;
        result.completion = now + cfg.l1HitCycles * cu_period;
        result.servicedBy = ServiceLevel::L1;
        return result;
    }
    ++act.l1Misses;

    const Tick arrive = now + cfg.l1HitCycles * cu_period +
        cfg.l1MissOverhead;
    const std::uint32_t bank = bankOf(line_addr);
    const Tick start = std::max(arrive, bankFree[bank]);
    bankFree[bank] = start + cfg.l2ServiceCycles * l2Period;

    const bool l2_hit = l2Slices[bank].access(line_addr, true);
    if (l2_hit) {
        ++act.l2Hits;
        result.completion = start + cfg.l2HitCycles * l2Period;
        result.servicedBy = ServiceLevel::L2;
        return result;
    }
    ++act.l2Misses;

    const std::uint32_t chan = channelOf(line_addr);
    const Tick lookup_done = start + cfg.l2HitCycles * l2Period;
    const Tick dram_start = std::max(lookup_done, channelFree[chan]);
    channelFree[chan] = dram_start + cfg.dramServicePerLine;
    result.completion = dram_start + cfg.dramLatency;
    result.servicedBy = ServiceLevel::Dram;
    return result;
}

bool
MemorySystem::staysInCu(std::uint32_t cu_id, std::uint64_t addr,
                        bool is_store) const
{
    const std::uint64_t line_addr = addr & ~static_cast<std::uint64_t>(
        cfg.lineBytes - 1);
    if (is_store)
        return cfg.storeCombining &&
            cuSide[cu_id].lastStoreLine == line_addr;
    return cuSide[cu_id].l1.probe(line_addr);
}

void
MemorySystem::resetActivity()
{
    for (CuSide &side : cuSide)
        side.activity = MemActivity{};
}

void
MemorySystem::fingerprint(std::uint64_t &h) const
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    for (const CuSide &side : cuSide)
        side.l1.fingerprint(h);
    for (const CacheModel &slice : l2Slices)
        slice.fingerprint(h);
    for (Tick t : bankFree)
        mix(static_cast<std::uint64_t>(t));
    for (Tick t : channelFree)
        mix(static_cast<std::uint64_t>(t));
    for (const CuSide &side : cuSide) {
        const MemActivity &act = side.activity;
        mix(act.l1Hits);
        mix(act.l1Misses);
        mix(act.l2Hits);
        mix(act.l2Misses);
        mix(act.stores);
        mix(act.storesCombined);
    }
    for (const CuSide &side : cuSide)
        mix(side.lastStoreLine);
}

} // namespace pcstall::memory
