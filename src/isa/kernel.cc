#include "isa/kernel.hh"

#include <map>
#include <set>
#include <vector>

#include "common/logging.hh"

namespace pcstall::isa
{

const char *
opTypeName(OpType op)
{
    switch (op) {
      case OpType::VAlu: return "v_alu";
      case OpType::SAlu: return "s_alu";
      case OpType::Lds: return "lds";
      case OpType::VMemLoad: return "v_load";
      case OpType::VMemStore: return "v_store";
      case OpType::Waitcnt: return "s_waitcnt";
      case OpType::Barrier: return "s_barrier";
      case OpType::Branch: return "s_branch";
      case OpType::EndPgm: return "s_endpgm";
    }
    return "?";
}

const char *
accessPatternName(AccessPattern pattern)
{
    switch (pattern) {
      case AccessPattern::Streaming: return "streaming";
      case AccessPattern::Strided: return "strided";
      case AccessPattern::Random: return "random";
      case AccessPattern::SharedHot: return "shared-hot";
    }
    return "?";
}

void
Kernel::validate() const
{
    fatalIf(code.empty(), "kernel '" + name + "' has no instructions");
    fatalIf(code.back().op != OpType::EndPgm,
            "kernel '" + name + "' does not end with s_endpgm");
    fatalIf(wavesPerWorkgroup == 0 || numWorkgroups == 0,
            "kernel '" + name + "' has an empty launch grid");

    std::vector<bool> loop_closed(loops.size(), false);
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Instruction &ins = code[i];
        if (ins.op == OpType::Branch) {
            fatalIf(ins.target < 0 ||
                    static_cast<std::size_t>(ins.target) >= code.size(),
                    "kernel '" + name + "' branch target out of range");
            fatalIf(static_cast<std::size_t>(ins.target) >= i,
                    "kernel '" + name + "' has a forward loop back-edge");
            fatalIf(ins.loopId >= loops.size(),
                    "kernel '" + name + "' branch references unknown loop");
            // One trip counter per branch: GpuChip's launch-end bound
            // relies on only a loop's own back-edge changing it.
            fatalIf(loop_closed[ins.loopId],
                    "kernel '" + name + "' closes a loop twice");
            loop_closed[ins.loopId] = true;
        }
        if (isVMem(ins.op)) {
            fatalIf(ins.mem.regionId >= regions.size(),
                    "kernel '" + name + "' memory op references unknown "
                    "region");
        }
        if (ins.op == OpType::EndPgm) {
            fatalIf(i + 1 != code.size(),
                    "kernel '" + name + "' has s_endpgm before the last "
                    "instruction");
        }
    }

    for (const LoopSpec &loop : loops) {
        fatalIf(loop.baseTrips == 0,
                "kernel '" + name + "' has a zero-trip loop");
        fatalIf(loop.tripVariation >= loop.baseTrips,
                "kernel '" + name + "' loop variation >= base trips");
    }

    for (const MemRegion &region : regions) {
        fatalIf(region.sizeBytes == 0,
                "kernel '" + name + "' region '" + region.name +
                "' is empty");
    }
}

std::size_t
Application::uniqueKernelCount() const
{
    std::set<std::string> names;
    for (const Kernel &k : launches)
        names.insert(k.name);
    return names.size();
}

void
Application::assignCodeBases()
{
    // Kernels are packed contiguously (256 B aligned) in a dedicated
    // code segment, as a loader would place them; same-named launches
    // share one address. Packing matters: page-aligned spacing would
    // make every kernel alias onto the same PC-table indices, since
    // table indexing uses the low PC bits.
    std::map<std::string, std::uint64_t> bases;
    std::uint64_t next = 0x4000'0000ULL;
    for (Kernel &k : launches) {
        auto [it, inserted] = bases.try_emplace(k.name, next);
        if (inserted) {
            const std::uint64_t size =
                static_cast<std::uint64_t>(k.code.size()) *
                instrSizeBytes;
            next += (size + 0xFFULL) & ~0xFFULL;
        }
        k.codeBase = it->second;
    }
}

} // namespace pcstall::isa
