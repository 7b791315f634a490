/**
 * @file
 * Lockstep-runner self-tests: identical machines complete with zero
 * divergences, an Ibex/Flute pairing agrees architecturally while
 * disagreeing on timing, and deliberately seeded divergences —
 * register, memory — are detected at exactly the instruction they
 * were planted, with trace context on both sides.
 */

#include "isa/assembler.h"
#include "snapshot/lockstep.h"

#include <gtest/gtest.h>

#include <memory>

namespace cheriot::snapshot
{
namespace
{

using namespace cheriot::isa;

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;

sim::MachineConfig
smallConfig(sim::CoreConfig core)
{
    sim::MachineConfig config;
    config.core = core;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

/** A cycle-independent program: sum 1..N with a store per round. */
std::vector<uint32_t>
sumProgram(uint32_t rounds)
{
    Assembler a(kEntry);
    const uint32_t buffer = kEntry + 0x4000;
    a.li(T0, static_cast<int32_t>(buffer));
    a.csetaddr(A2, A0, T0);
    a.li(T1, 64);
    a.csetbounds(A2, A2, T1);
    a.li(A3, 0); // accumulator
    a.li(A4, 1); // induction
    a.li(A5, static_cast<int32_t>(rounds));
    auto loop = a.here();
    a.add(A3, A3, A4);
    a.sw(A3, A2, 0);
    a.addi(A4, A4, 1);
    a.bge(A5, A4, loop);
    a.ebreak();
    return a.finish();
}

std::unique_ptr<sim::Machine>
makeMachine(sim::CoreConfig core, const std::vector<uint32_t> &program)
{
    auto machine = std::make_unique<sim::Machine>(smallConfig(core));
    machine->loadProgram(program, kEntry);
    machine->resetCpu(kEntry);
    return machine;
}

TEST(Lockstep, IdenticalMachinesCompleteWithZeroDivergences)
{
    const auto program = sumProgram(500);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);

    LockstepRunner runner(*a, *b);
    const LockstepReport &report = runner.run(1u << 20);

    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.diverged);
    EXPECT_GT(runner.steps(), 500u);
    EXPECT_EQ(a->readRegInt(A3), 125250u); // 1..500
    EXPECT_EQ(a->stateDigest(), b->stateDigest());
}

TEST(Lockstep, CrossCoreRunAgreesArchitecturallyNotOnTiming)
{
    const auto program = sumProgram(200);
    const auto ibex = makeMachine(sim::CoreConfig::ibex(), program);
    const auto flute = makeMachine(sim::CoreConfig::flute(), program);

    LockstepRunner runner(*ibex, *flute);
    const LockstepReport &report = runner.run(1u << 20);

    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.diverged) << report.detail;
    // The cores disagree on cost, not on meaning.
    EXPECT_NE(ibex->cycles(), flute->cycles());
    EXPECT_EQ(ibex->readRegInt(A3), flute->readRegInt(A3));
}

TEST(Lockstep, SeededRegisterDivergenceIsCaughtAtTheRightInstruction)
{
    const auto program = sumProgram(500);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);

    LockstepRunner runner(*a, *b);
    constexpr uint64_t kCleanSteps = 100;
    for (uint64_t n = 0; n < kCleanSteps; ++n) {
        ASSERT_TRUE(runner.stepBoth()) << "diverged at step " << n;
    }

    // Plant the divergence: corrupt B's accumulator. The compare runs
    // after every paired step, so the very next step must trip.
    b->writeRegInt(A3, 0xdeadbeef);
    EXPECT_FALSE(runner.stepBoth());

    const LockstepReport &report = runner.report();
    EXPECT_TRUE(report.diverged);
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.divergenceStep, kCleanSteps + 1);
    EXPECT_FALSE(report.detail.empty());
    EXPECT_FALSE(report.traceA.empty());
    EXPECT_FALSE(report.traceB.empty());

    // The report is final: run() must not resume past a divergence.
    const LockstepReport &again = runner.run(1u << 20);
    EXPECT_TRUE(again.diverged);
    EXPECT_EQ(again.divergenceStep, kCleanSteps + 1);
}

TEST(Lockstep, SeededMemoryDivergenceIsCaughtByDigestCheck)
{
    const auto program = sumProgram(2000);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);

    LockstepRunner runner(*a, *b);
    for (uint64_t n = 0; n < 50; ++n) {
        ASSERT_TRUE(runner.stepBoth());
    }

    // Corrupt a word in B's memory that the program never rereads:
    // invisible to the architectural compare, caught by the periodic
    // memory compare.
    const cap::Capability root = b->readReg(A0);
    ASSERT_EQ(b->storeData(root, kEntry + 0x8000, 4, 0x42424242, false),
              sim::TrapCause::None);

    const LockstepReport &report = runner.run(1u << 20, 64);
    EXPECT_TRUE(report.diverged);
    EXPECT_NE(report.detail.find("memory"), std::string::npos)
        << report.detail;
}

TEST(Lockstep, FlippedGranuleIsReportedByAddressDataAndTags)
{
    const auto program = sumProgram(2000);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);

    // Two granules the program never touches; the first holds the
    // same tagged capability on both sides.
    constexpr uint32_t kTagged = kEntry + 0x8000;
    constexpr uint32_t kFlipped = kEntry + 0x9008;
    for (sim::Machine *m : {a.get(), b.get()}) {
        const cap::Capability root = m->readReg(A0);
        ASSERT_EQ(m->storeCap(root, kTagged, root, false),
                  sim::TrapCause::None);
    }

    LockstepRunner runner(*a, *b);
    for (uint64_t n = 0; n < 50; ++n) {
        ASSERT_TRUE(runner.stepBoth());
    }
    // Bit 36 of one granule: the high word 0 becomes 0x10.
    b->memory().sram().injectDataFlip(kFlipped, 36, false);
    const LockstepReport &report = runner.run(1u << 20, 64);
    ASSERT_TRUE(report.diverged);
    EXPECT_EQ(report.detail,
              "memory granule 0x2000a008: A=0000000000000000 micro-tags=00 "
              "B=0000001000000000 micro-tags=00");
    EXPECT_EQ(report.divergenceStep, 64u);
}

TEST(Lockstep, ClearedTagIsReportedAtTheLowestGranule)
{
    const auto program = sumProgram(50);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);
    constexpr uint32_t kTagged = kEntry + 0x8000;
    for (sim::Machine *m : {a.get(), b.get()}) {
        const cap::Capability root = m->readReg(A0);
        ASSERT_EQ(m->storeCap(root, kTagged, root, false),
                  sim::TrapCause::None);
    }
    // Two differences: the report names the lower one.
    b->memory().sram().injectDataFlip(kTagged + 0x100, 0, false);
    b->memory().sram().injectTagClear(kTagged);

    LockstepRunner runner(*a, *b);
    const LockstepReport &report = runner.run(1u << 20, 0);
    ASSERT_TRUE(report.diverged);
    EXPECT_EQ(report.detail.rfind("memory granule 0x20009000: A=", 0), 0u)
        << report.detail;
    EXPECT_NE(report.detail.find("micro-tags=11 B="), std::string::npos)
        << report.detail;
    EXPECT_NE(report.detail.find("micro-tags=00"), std::string::npos)
        << report.detail;
}

TEST(Lockstep, CsrDivergenceNamesTheCsr)
{
    const auto program = sumProgram(100);
    const auto a = makeMachine(sim::CoreConfig::ibex(), program);
    const auto b = makeMachine(sim::CoreConfig::ibex(), program);

    LockstepRunner runner(*a, *b);
    ASSERT_TRUE(runner.stepBoth());
    b->csrs().mtval = 0x1234;
    EXPECT_FALSE(runner.stepBoth());
    EXPECT_EQ(runner.report().detail, "mtval: A=0x0 B=0x1234");

    const auto c = makeMachine(sim::CoreConfig::ibex(), program);
    const auto d = makeMachine(sim::CoreConfig::ibex(), program);
    LockstepRunner scrRunner(*c, *d);
    d->csrs().mscratchc = d->readReg(A0);
    EXPECT_FALSE(scrRunner.stepBoth());
    EXPECT_EQ(scrRunner.report().detail.rfind("mscratchc: A=", 0), 0u)
        << scrRunner.report().detail;
}

TEST(Lockstep, HaltMismatchIsADivergence)
{
    // A halts immediately (EBREAK first); B runs a loop.
    Assembler haltNow(kEntry);
    haltNow.ebreak();
    const auto a = makeMachine(sim::CoreConfig::ibex(), haltNow.finish());
    const auto b = makeMachine(sim::CoreConfig::ibex(), sumProgram(10));

    LockstepRunner runner(*a, *b);
    const LockstepReport &report = runner.run(1u << 20);
    EXPECT_TRUE(report.diverged);
    EXPECT_FALSE(report.completed);
}

} // namespace
} // namespace cheriot::snapshot
