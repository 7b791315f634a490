/**
 * @file
 * Concurrency stress: the background revoker sweeps *while* the
 * allocator churns and the application reads/writes its live data
 * (the §3.3.3 scenario at scale). Correctness demands that across
 * hundreds of overlapping sweeps no live allocation ever loses its
 * tag or its contents — the store-snoop logic and the
 * bits-before-zeroing ordering are what make that true.
 */

#include "fault/fault_injector.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace cheriot
{
namespace
{

using alloc::HeapAllocator;
using cap::Capability;
using sim::TrapCause;

TEST(RevokerStress, LiveDataSurvivesHundredsOfConcurrentSweeps)
{
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.sramSize = 96u << 10;
    config.heapOffset = 32u << 10;
    config.heapSize = 64u << 10;
    sim::Machine machine(config);
    rtos::Kernel kernel(machine);
    // A low threshold forces sweeps to overlap the churn constantly.
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation, 8u << 10);
    rtos::Thread &thread = kernel.createThread("stress", 1, 1024);
    kernel.activate(thread);
    auto &allocator = kernel.allocator();

    struct Live
    {
        Capability ptr;
        Capability holderSlot; ///< In-memory home of the pointer.
        uint32_t stamp;
    };

    // The holders array: live pointers stored in heap memory, where
    // every sweep must load-and-examine them without harming them.
    const Capability holders = allocator.malloc(256);
    ASSERT_TRUE(holders.tag());
    // And a graveyard where every freed pointer leaves a stale copy
    // behind — the sweeps' actual prey.
    const Capability graveyard = allocator.malloc(512);
    ASSERT_TRUE(graveyard.tag());
    uint32_t graveyardCursor = 0;

    Rng rng(0x57e55);
    std::vector<Live> live;
    uint64_t verified = 0;

    for (int round = 0; round < 3000; ++round) {
        if (rng.chance(3, 5) || live.empty()) {
            if (live.size() < 32) {
                const uint32_t size = 32 + rng.below(900);
                const Capability ptr = allocator.malloc(size);
                if (ptr.tag()) {
                    const uint32_t stamp = rng.next();
                    kernel.guest().storeWord(ptr, ptr.base(), stamp);
                    kernel.guest().storeWord(
                        ptr, ptr.base() + (ptr.length() & ~7u) - 4,
                        ~stamp);
                    const uint32_t slot =
                        static_cast<uint32_t>(live.size()) * 8;
                    ASSERT_EQ(machine.storeCap(holders,
                                               holders.base() + slot, ptr,
                                               false),
                              TrapCause::None);
                    live.push_back(
                        {ptr, holders.withAddressOffset(slot), stamp});
                }
            } else {
                const uint32_t victim = rng.below(32);
                ASSERT_EQ(machine.storeCap(
                              graveyard,
                              graveyard.base() +
                                  (graveyardCursor++ % 64) * 8,
                              live[victim].ptr, false),
                          TrapCause::None);
                ASSERT_EQ(allocator.free(live[victim].ptr),
                          HeapAllocator::FreeResult::Ok);
                // Compact: move the last entry into the hole (and its
                // in-memory slot).
                live[victim] = live.back();
                live.pop_back();
                ASSERT_EQ(
                    machine.storeCap(holders,
                                     holders.base() + victim * 8,
                                     live.size() > victim
                                         ? live[victim].ptr
                                         : Capability(),
                                     false),
                    TrapCause::None);
            }
        }

        // Verify a random live allocation through its *in-memory*
        // pointer: the load goes through the filter mid-sweep.
        if (!live.empty()) {
            const uint32_t pick = rng.below(
                static_cast<uint32_t>(live.size()));
            Capability reloaded;
            ASSERT_EQ(machine.loadCap(holders,
                                      holders.base() + pick * 8,
                                      &reloaded, false),
                      TrapCause::None);
            ASSERT_TRUE(reloaded.tag())
                << "round " << round
                << ": live pointer lost its tag mid-sweep";
            EXPECT_EQ(kernel.guest().loadWord(reloaded, reloaded.base()),
                      live[pick].stamp);
            EXPECT_EQ(kernel.guest().loadWord(
                          reloaded,
                          reloaded.base() +
                              (reloaded.length() & ~7u) - 4),
                      ~live[pick].stamp);
            ++verified;
        }

        // A little idle time so the engine actually advances.
        machine.idle(16 + rng.below(64));
    }

    EXPECT_GT(verified, 2500u);
    EXPECT_GE(allocator.sweepsTriggered.value(), 20u)
        << "the stress must actually have overlapped many sweeps";
    EXPECT_GE(machine.backgroundRevoker().tagsInvalidated.value(), 100u);
    // Snoops actually happened (the race was exercised, not avoided).
    EXPECT_GT(machine.backgroundRevoker().wordsExamined.value(),
              100'000u);
}

/** Shared setup for the injected-revoker-fault scenarios: a heap
 * under memory pressure whose only way forward is a completed sweep. */
struct PressureRig
{
    explicit PressureRig(fault::FaultInjector *injector,
                         uint32_t sramSize = 96u << 10)
    {
        sim::MachineConfig config;
        config.core = sim::CoreConfig::ibex();
        config.sramSize = sramSize;
        config.heapOffset = 32u << 10;
        config.heapSize = 64u << 10;
        config.injector = injector;
        machine = std::make_unique<sim::Machine>(config);
        kernel = std::make_unique<rtos::Kernel>(*machine);
        // A huge quarantine threshold: frees never trigger sweeps on
        // their own, so the pressure malloc below must block on one.
        kernel->initHeap(alloc::TemporalMode::HardwareRevocation,
                         1ull << 30);

        // Exhaust the heap, then free everything into quarantine.
        auto &allocator = kernel->allocator();
        std::vector<Capability> blocks;
        for (;;) {
            const Capability ptr = allocator.malloc(1024);
            if (!ptr.tag()) {
                break;
            }
            blocks.push_back(ptr);
        }
        EXPECT_GT(blocks.size(), 16u);
        for (const Capability &ptr : blocks) {
            EXPECT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
        }
    }

    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rtos::Kernel> kernel;
};

TEST(RevokerStress, StalledSweepRecoversViaTimeoutKick)
{
    fault::FaultInjector injector(0xfeed);
    PressureRig rig(&injector);

    // A stall that never expires by itself: only the waiter's
    // recovery kick can un-wedge the engine. Triggered a few
    // thousand cycles in, i.e. mid-sweep.
    fault::FaultPlan plan;
    plan.site = fault::FaultSite::RevokerStall;
    plan.triggerCycle = rig.machine->cycles() + 5000;
    plan.param = 1u << 30;
    injector.arm(plan);

    // Memory pressure: this malloc must force a sweep, wait for it,
    // survive the injected stall, and still make progress.
    const Capability ptr = rig.kernel->allocator().malloc(1024);
    ASSERT_TRUE(ptr.tag())
        << "allocation must make progress despite the stalled revoker";
    EXPECT_TRUE(injector.fired());
    EXPECT_GE(rig.kernel->hardwareRevoker()->timeoutKicks.value(), 1u);
    EXPECT_GE(injector.kicksObserved.value(), 1u);
    EXPECT_GT(rig.machine->backgroundRevoker().stallCycles.value(), 0u);
    EXPECT_FALSE(rig.kernel->hardwareRevoker()->sweepInProgress());
}

TEST(RevokerStress, StuckEpochRecoversViaTimeoutKick)
{
    fault::FaultInjector injector(0xfade);
    PressureRig rig(&injector);

    // The sweep runs dry but its completion never becomes visible
    // (the epoch stays odd) until software kicks the engine.
    fault::FaultPlan plan;
    plan.site = fault::FaultSite::RevokerStuckEpoch;
    plan.triggerCycle = rig.machine->cycles() + 5000;
    injector.arm(plan);

    const Capability ptr = rig.kernel->allocator().malloc(1024);
    ASSERT_TRUE(ptr.tag())
        << "allocation must make progress despite the stuck epoch";
    EXPECT_TRUE(injector.fired());
    EXPECT_EQ(injector.epochsStuck.value(), 1u);
    EXPECT_GE(rig.kernel->hardwareRevoker()->timeoutKicks.value(), 1u);
    EXPECT_GE(injector.kicksObserved.value(), 1u);
    EXPECT_FALSE(rig.kernel->hardwareRevoker()->sweepInProgress())
        << "the kick let the completion become visible";
}

TEST(RevokerStress, HealthyLongSweepIsNeverKicked)
{
    // No injector, and a sweep over 512 KiB of SRAM: it takes far more
    // than kStallTimeoutPolls poll windows, but the engine moves on
    // every one of them, so the waiter must not suspect a stall.
    PressureRig rig(nullptr, 512u << 10);
    const Capability ptr = rig.kernel->allocator().malloc(1024);
    ASSERT_TRUE(ptr.tag());
    const auto &engine = rig.machine->backgroundRevoker();
    EXPECT_GE(engine.sweepsCompleted.value(), 1u);
    EXPECT_GE(engine.wordsExamined.value(), (512u << 10) / 8);
    EXPECT_EQ(rig.kernel->hardwareRevoker()->timeoutKicks.value(), 0u);
    EXPECT_EQ(engine.kicksReceived.value(), engine.sweepsCompleted.value())
        << "one kick per requested sweep, none from the watchdog";
}

TEST(Fig4Timing, LoadFilterIsFreeOnFluteAndCostsTwoCyclesOnIbex)
{
    // Figure 4's point in one assertion: with a dedicated revocation
    // read port the filter fits the 5-stage pipeline without stalls;
    // the area-optimised Ibex pays an exposed lookup.
    auto flute = sim::CoreConfig::flute();
    auto ibex = sim::CoreConfig::ibex();

    flute.loadFilterEnabled = false;
    const unsigned fluteOff = flute.capLoadCycles();
    flute.loadFilterEnabled = true;
    EXPECT_EQ(flute.capLoadCycles(), fluteOff);

    ibex.loadFilterEnabled = false;
    const unsigned ibexOff = ibex.capLoadCycles();
    ibex.loadFilterEnabled = true;
    EXPECT_EQ(ibex.capLoadCycles(), ibexOff + 2);

    // And the filter never affects plain data loads on either core.
    EXPECT_EQ(flute.dataLoadCycles(4), 1u);
    EXPECT_EQ(ibex.dataLoadCycles(4), 2u);
}

} // namespace
} // namespace cheriot
