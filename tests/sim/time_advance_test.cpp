/**
 * @file
 * Differential tests for the batched time advance: one
 * Machine::advance(N, busy) call must leave a machine exactly where N
 * single-cycle advance(1, i < busy) calls leave its twin — same state
 * digest, revoker counters and epoch, and the same injector delivery —
 * across an idle revoker, a sweep under every busy-prefix length, each
 * cycle-triggered fault site at every trigger position relative to the
 * advanced range, a stall window expiring mid-range, and a stuck epoch
 * released by an MMIO kick.
 */

#include "fault/fault_injector.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cheriot::sim
{
namespace
{

using cap::Capability;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;

constexpr uint32_t kSweepWindow = 8u << 10;
constexpr uint32_t kPlanted = 128;
constexpr uint32_t kTargetOffset = 16u << 10;

/** One machine with its own injector; twins are built identically. */
struct Rig
{
    Rig() : injector(7), machine(config(&injector)) {}

    static MachineConfig config(FaultInjector *injector)
    {
        MachineConfig c;
        c.sramSize = 128u << 10;
        c.heapOffset = 64u << 10;
        c.heapSize = 32u << 10;
        c.injector = injector;
        return c;
    }

    uint32_t slot(uint32_t k) const { return machine.heapBase() + 16 * k; }
    uint32_t target(uint32_t k) const
    {
        return machine.heapBase() + kTargetOffset + 64 * k;
    }

    /** Capabilities in the sweep window, every other one stale. */
    void plant()
    {
        for (uint32_t k = 0; k < kPlanted; ++k) {
            const Capability ref = Capability::memoryRoot()
                                       .withAddress(target(k))
                                       .withBounds(32);
            ASSERT_EQ(machine.storeCap(Capability::memoryRoot(), slot(k),
                                       ref),
                      TrapCause::None);
        }
        for (uint32_t k = 0; k < kPlanted; k += 2) {
            machine.revocationBitmap().setRange(target(k), 32);
        }
    }

    void kick()
    {
        auto &engine = machine.backgroundRevoker();
        engine.write32(0x0, machine.heapBase());
        engine.write32(0x4, machine.heapBase() + kSweepWindow);
        engine.write32(0xc, 1);
    }

    FaultInjector injector;
    Machine machine;
};

struct Twins
{
    /** Both machines planted; a sweep kicked when @p sweeping. */
    explicit Twins(bool sweeping)
    {
        for (Rig *rig : {batched.get(), stepped.get()}) {
            rig->plant();
            if (sweeping) {
                rig->kick();
            }
        }
    }

    void arm(const FaultPlan &plan)
    {
        batched->injector.arm(plan);
        stepped->injector.arm(plan);
    }

    void advance(uint64_t cycles, uint64_t busy)
    {
        batched->machine.advance(cycles, busy);
        for (uint64_t i = 0; i < cycles; ++i) {
            stepped->machine.advance(1, i < busy ? 1 : 0);
        }
    }

    uint64_t now() const { return batched->machine.cycles(); }

    std::unique_ptr<Rig> batched = std::make_unique<Rig>();
    std::unique_ptr<Rig> stepped = std::make_unique<Rig>();
};

/** Drain and count pending spurious faults, folding in their causes. */
std::pair<uint32_t, uint32_t>
drainSpurious(FaultInjector &injector)
{
    uint32_t count = 0;
    uint32_t causes = 0;
    uint32_t cause = 0;
    while (injector.takeSpuriousFault(&cause)) {
        ++count;
        causes = causes * 31 + cause;
    }
    return {count, causes};
}

void
expectSame(Twins &twins)
{
    Machine &a = twins.batched->machine;
    Machine &b = twins.stepped->machine;
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.stateDigest(), b.stateDigest());

    auto &ra = a.backgroundRevoker();
    auto &rb = b.backgroundRevoker();
    EXPECT_EQ(ra.epoch(), rb.epoch());
    EXPECT_EQ(ra.wordsExamined.value(), rb.wordsExamined.value());
    EXPECT_EQ(ra.portCycles.value(), rb.portCycles.value());
    EXPECT_EQ(ra.stallCycles.value(), rb.stallCycles.value());
    EXPECT_EQ(ra.tagsInvalidated.value(), rb.tagsInvalidated.value());
    EXPECT_EQ(ra.sweepsCompleted.value(), rb.sweepsCompleted.value());

    FaultInjector &ia = twins.batched->injector;
    FaultInjector &ib = twins.stepped->injector;
    EXPECT_EQ(ia.fired(), ib.fired());
    EXPECT_EQ(ia.stats().snapshot(), ib.stats().snapshot());
    EXPECT_EQ(ia.revokerStalled(), ib.revokerStalled());
    EXPECT_EQ(ia.suppressEpochIncrement(), ib.suppressEpochIncrement());
    EXPECT_EQ(ia.nextEventCycle(), ib.nextEventCycle());
    EXPECT_EQ(drainSpurious(ia), drainSpurious(ib));
}

TEST(TimeAdvance, IdleRevoker)
{
    Twins twins(/*sweeping=*/false);
    twins.advance(5000, 0);
    twins.advance(3000, 1200);
    expectSame(twins);
    EXPECT_EQ(twins.batched->machine.backgroundRevoker().portCycles.value(),
              0u);
}

TEST(TimeAdvance, SweepUnderEveryBusyPrefix)
{
    constexpr uint64_t kChunk = 1500;
    for (const uint64_t busy : {uint64_t{400}, kChunk, uint64_t{2000}}) {
        SCOPED_TRACE("busy prefix " + std::to_string(busy));
        Twins twins(/*sweeping=*/true);
        twins.advance(kChunk, busy);
        expectSame(twins);
        auto &engine = twins.batched->machine.backgroundRevoker();
        EXPECT_EQ(engine.portCycles.value(),
                  busy < kChunk ? kChunk - busy : 0);
        // Run on past the sweep's end.
        twins.advance(6000, 300);
        expectSame(twins);
        EXPECT_FALSE(engine.sweeping());
        EXPECT_EQ(engine.tagsInvalidated.value(), kPlanted / 2);
    }
}

enum class TriggerAt
{
    BeforeNow,
    FirstCycle,
    MidChunk,
    LastCycle,
};

using SiteCase = std::tuple<FaultSite, TriggerAt>;

std::vector<FaultSite>
cycleTriggeredSites()
{
    std::vector<FaultSite> sites;
    for (uint32_t i = 0; i < fault::kFaultSiteCount; ++i) {
        const auto site = static_cast<FaultSite>(i);
        if (fault::cycleTriggered(site)) {
            sites.push_back(site);
        }
    }
    return sites;
}

class CycleTriggeredSite : public ::testing::TestWithParam<SiteCase>
{
};

TEST_P(CycleTriggeredSite, BatchedAdvanceMatchesStepped)
{
    constexpr uint64_t kChunk = 3000;
    const auto [site, at] = GetParam();
    Twins twins(/*sweeping=*/true);
    const Rig &rig = *twins.batched;

    const uint64_t now = twins.now();
    ASSERT_GT(now, 0u);
    FaultPlan plan;
    plan.site = site;
    switch (at) {
      case TriggerAt::BeforeNow: plan.triggerCycle = now - 1; break;
      case TriggerAt::FirstCycle: plan.triggerCycle = now + 1; break;
      case TriggerAt::MidChunk: plan.triggerCycle = now + kChunk / 2; break;
      case TriggerAt::LastCycle: plan.triggerCycle = now + kChunk; break;
    }
    switch (site) {
      case FaultSite::TagClear:
      case FaultSite::DataFlip:
        // A stale capability: a disturbance that lands before the
        // sweep reaches it spares the sweep one invalidation.
        plan.addr = rig.slot(kPlanted - 2);
        plan.param = 5;
        break;
      case FaultSite::BitmapCorrupt:
        // Paint a live capability's target: the sweep must strip it.
        plan.addr = rig.target(kPlanted - 1);
        break;
      case FaultSite::RevokerStall: plan.param = 700; break;
      case FaultSite::SpuriousFault: plan.param = 1; break;
      case FaultSite::FaultStorm: plan.param = (2u << 8) | 4; break;
      default: break;
    }
    twins.arm(plan);

    twins.advance(kChunk, 200);
    expectSame(twins);
    EXPECT_TRUE(twins.batched->injector.fired());
    twins.advance(kChunk, 0);
    expectSame(twins);
}

std::string
siteCaseName(const ::testing::TestParamInfo<SiteCase> &info)
{
    static const char *const kAt[] = {"BeforeNow", "FirstCycle", "MidChunk",
                                      "LastCycle"};
    std::string name = fault::faultSiteName(std::get<0>(info.param));
    for (char &c : name) {
        if (c == '-') {
            c = '_';
        }
    }
    return name + "_" + kAt[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllCycleSites, CycleTriggeredSite,
    ::testing::Combine(::testing::ValuesIn(cycleTriggeredSites()),
                       ::testing::Values(TriggerAt::BeforeNow,
                                         TriggerAt::FirstCycle,
                                         TriggerAt::MidChunk,
                                         TriggerAt::LastCycle)),
    siteCaseName);

TEST(TimeAdvance, SevenSitesAreCycleTriggered)
{
    EXPECT_EQ(cycleTriggeredSites().size(), 7u);
    // An armed event-triggered plan never puts an event on the clock.
    for (uint32_t i = 0; i < fault::kFaultSiteCount; ++i) {
        const auto site = static_cast<FaultSite>(i);
        if (fault::cycleTriggered(site)) {
            continue;
        }
        FaultInjector injector(3);
        FaultPlan plan;
        plan.site = site;
        plan.triggerCycle = 0;
        injector.arm(plan);
        EXPECT_EQ(injector.nextEventCycle(), UINT64_MAX)
            << fault::faultSiteName(site);
        injector.tick(1000);
        EXPECT_FALSE(injector.fired()) << fault::faultSiteName(site);
    }
}

TEST(TimeAdvance, StallDeadlineMidChunk)
{
    Twins twins(/*sweeping=*/true);
    FaultPlan plan;
    plan.site = FaultSite::RevokerStall;
    plan.triggerCycle = twins.now() + 100;
    plan.param = 500; // Deadline 600 cycles in, mid-range.
    twins.arm(plan);

    twins.advance(3000, 50);
    expectSame(twins);
    const auto &engine = twins.batched->machine.backgroundRevoker();
    EXPECT_EQ(engine.stallCycles.value(), 500u);
    EXPECT_FALSE(twins.batched->injector.revokerStalled());
    EXPECT_GT(engine.portCycles.value(), 2000u);
}

TEST(TimeAdvance, StuckEpochDrainsThenKickReleases)
{
    Twins twins(/*sweeping=*/true);
    FaultPlan plan;
    plan.site = FaultSite::RevokerStuckEpoch;
    plan.triggerCycle = twins.now() + 10;
    twins.arm(plan);

    // Long enough to drain the sweep: the epoch stays odd.
    twins.advance(10000, 0);
    expectSame(twins);
    auto &engine = twins.batched->machine.backgroundRevoker();
    EXPECT_TRUE(engine.sweeping());
    EXPECT_EQ(engine.sweepsCompleted.value(), 0u);

    twins.batched->machine.backgroundRevoker().write32(0xc, 1);
    twins.stepped->machine.backgroundRevoker().write32(0xc, 1);
    twins.advance(100, 0);
    expectSame(twins);
    EXPECT_FALSE(engine.sweeping());
    EXPECT_EQ(engine.sweepsCompleted.value(), 1u);
}

} // namespace
} // namespace cheriot::sim
