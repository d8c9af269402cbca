/** @file Unit tests for src/isa: kernels, builder DSL, validation. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include "isa/kernel.hh"
#include "isa/kernel_builder.hh"

using namespace pcstall;
using namespace pcstall::isa;

namespace
{

Kernel
simpleKernel()
{
    KernelBuilder b("k");
    const auto r = b.region("data", 1 << 20);
    b.loop(10);
    b.load(r, AccessPattern::Streaming);
    b.waitcnt(0);
    b.valu(4, 3);
    b.endLoop();
    return b.build();
}

} // namespace

TEST(KernelBuilder, EmitsValidatedKernel)
{
    const Kernel k = simpleKernel();
    EXPECT_EQ(k.code.back().op, OpType::EndPgm);
    // loop body: load, waitcnt, 3x valu, branch, endpgm = 7.
    EXPECT_EQ(k.code.size(), 7u);
    EXPECT_EQ(k.loops.size(), 1u);
    EXPECT_EQ(k.loops[0].baseTrips, 10u);
}

TEST(KernelBuilder, BranchTargetsLoopHead)
{
    const Kernel k = simpleKernel();
    const Instruction &branch = k.code[k.code.size() - 2];
    ASSERT_EQ(branch.op, OpType::Branch);
    EXPECT_EQ(branch.target, 0);
    EXPECT_EQ(branch.loopId, 0);
}

TEST(KernelBuilder, NestedLoops)
{
    KernelBuilder b("nested");
    const auto r = b.region("data", 1 << 16);
    b.loop(5);
    b.valu(4, 2);
    b.loop(3);
    b.load(r, AccessPattern::Random);
    b.waitcnt(0);
    b.endLoop();
    b.endLoop();
    const Kernel k = b.build();
    EXPECT_EQ(k.loops.size(), 2u);
    // Inner branch targets the inner head.
    int branches = 0;
    for (const auto &ins : k.code)
        if (ins.op == OpType::Branch)
            ++branches;
    EXPECT_EQ(branches, 2);
}

TEST(KernelBuilder, RegionsDoNotOverlap)
{
    KernelBuilder b("regions");
    const auto r1 = b.region("a", 3 << 20);
    const auto r2 = b.region("b", 1 << 20);
    b.valu(1, 1);
    const Kernel k = b.build();
    const MemRegion &a = k.regions[r1];
    const MemRegion &bb = k.regions[r2];
    EXPECT_GE(bb.base, a.base + a.sizeBytes);
}

TEST(KernelBuilder, GridAndSeed)
{
    KernelBuilder b("g");
    b.valu(1, 1);
    b.grid(128, 8).seed(99);
    const Kernel k = b.build();
    EXPECT_EQ(k.numWorkgroups, 128u);
    EXPECT_EQ(k.wavesPerWorkgroup, 8u);
    EXPECT_EQ(k.seed, 99u);
    EXPECT_EQ(k.totalWaves(), 1024u);
}

TEST(KernelBuilder, WaitcntMaxOutstanding)
{
    KernelBuilder b("w");
    const auto r = b.region("d", 1 << 16);
    b.load(r, AccessPattern::Streaming);
    b.load(r, AccessPattern::Streaming);
    b.waitcnt(1);
    const Kernel k = b.build();
    EXPECT_EQ(k.code[2].op, OpType::Waitcnt);
    EXPECT_EQ(k.code[2].maxOutstanding, 1);
}

TEST(Kernel, PcAddressIncludesCodeBase)
{
    Kernel k = simpleKernel();
    k.codeBase = 0x1000;
    EXPECT_EQ(k.pcAddr(0), 0x1000u);
    EXPECT_EQ(k.pcAddr(3), 0x1000u + 3 * instrSizeBytes);
}

TEST(Application, UniqueKernelCount)
{
    Application app;
    app.name = "a";
    app.launches.push_back(simpleKernel());
    app.launches.push_back(simpleKernel());
    KernelBuilder b("other");
    b.valu(1, 1);
    app.launches.push_back(b.build());
    EXPECT_EQ(app.uniqueKernelCount(), 2u);
}

TEST(Application, AssignCodeBasesSharesSameName)
{
    Application app;
    app.launches.push_back(simpleKernel());
    app.launches.push_back(simpleKernel());
    KernelBuilder b("other");
    b.valu(1, 1);
    app.launches.push_back(b.build());
    app.assignCodeBases();
    EXPECT_EQ(app.launches[0].codeBase, app.launches[1].codeBase);
    EXPECT_NE(app.launches[0].codeBase, app.launches[2].codeBase);
}

TEST(Kernel, ValidateAcceptsWellFormed)
{
    const Kernel k = simpleKernel();
    EXPECT_NO_FATAL_FAILURE(k.validate());
}

using KernelDeath = ::testing::Test;

TEST(KernelDeath, BuildWithOpenLoopDies)
{
    KernelBuilder b("bad");
    b.loop(3);
    b.valu(1, 1);
    EXPECT_FATAL(b.build(), "unclosed");
}

TEST(KernelDeath, ValidateRejectsLoopClosedTwice)
{
    KernelBuilder b("twice");
    b.loop(3);
    b.valu(1, 1);
    b.endLoop();
    Kernel k = b.build();
    // A second back-edge reusing loop 0's trip counter.
    Instruction back = k.code[1];
    k.code.insert(k.code.end() - 1, back);
    EXPECT_FATAL(k.validate(), "closes a loop twice");
}

TEST(KernelDeath, EndLoopWithoutLoopDies)
{
    KernelBuilder b("bad");
    b.valu(1, 1);
    EXPECT_FATAL(b.endLoop(), "endLoop");
}

TEST(KernelDeath, EmptyLoopDies)
{
    KernelBuilder b("bad");
    b.loop(3);
    EXPECT_FATAL(b.endLoop(), "empty loop");
}

TEST(KernelDeath, ValidateRejectsMissingEndpgm)
{
    Kernel k;
    k.name = "broken";
    Instruction i;
    i.op = OpType::VAlu;
    k.code.push_back(i);
    EXPECT_FATAL(k.validate(), "s_endpgm");
}

TEST(KernelDeath, ValidateRejectsBadRegion)
{
    Kernel k;
    k.name = "broken";
    Instruction load;
    load.op = OpType::VMemLoad;
    load.mem.regionId = 3;
    k.code.push_back(load);
    Instruction end;
    end.op = OpType::EndPgm;
    k.code.push_back(end);
    EXPECT_FATAL(k.validate(), "unknown region");
}

TEST(OpTypes, Names)
{
    EXPECT_STREQ(opTypeName(OpType::VAlu), "v_alu");
    EXPECT_STREQ(opTypeName(OpType::Waitcnt), "s_waitcnt");
    EXPECT_STREQ(accessPatternName(AccessPattern::Random), "random");
    EXPECT_TRUE(isVMem(OpType::VMemLoad));
    EXPECT_TRUE(isVMem(OpType::VMemStore));
    EXPECT_FALSE(isVMem(OpType::VAlu));
}

TEST(KernelDeath, BarrierInsideDivergentLoopDies)
{
    KernelBuilder b("bad");
    b.loop(10, 5); // divergent trips
    b.valu(4, 1);
    EXPECT_FATAL(b.barrier(), "divergent loop");
}

TEST(KernelBuilder, BarrierInsideUniformLoopIsFine)
{
    KernelBuilder b("ok");
    b.loop(10);
    b.valu(4, 1);
    b.barrier();
    b.endLoop();
    EXPECT_NO_FATAL_FAILURE(b.build());
}

TEST(Kernel, TotalWavesAndValidationInteract)
{
    KernelBuilder b("geom");
    b.valu(1, 1);
    b.grid(7, 3);
    const Kernel k = b.build();
    EXPECT_EQ(k.totalWaves(), 21u);
}
