#include "fault/fault_injector.h"

#include "mem/bus.h"
#include "mem/tagged_memory.h"
#include "revoker/revocation_bitmap.h"
#include "sim/csr.h"
#include "snapshot/serializer.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::fault
{

namespace
{

/** Causes a glitched core can plausibly raise spuriously. */
constexpr sim::TrapCause kSpuriousCauses[] = {
    sim::TrapCause::CheriTagViolation,
    sim::TrapCause::CheriBoundsViolation,
    sim::TrapCause::CheriPermViolation,
    sim::TrapCause::LoadAccessFault,
    sim::TrapCause::IllegalInstruction,
};
constexpr uint32_t kSpuriousCauseCount =
    sizeof(kSpuriousCauses) / sizeof(kSpuriousCauses[0]);

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::TagClear: return "tag-clear";
      case FaultSite::DataFlip: return "data-flip";
      case FaultSite::BusDrop: return "bus-drop";
      case FaultSite::BusDelay: return "bus-delay";
      case FaultSite::RevokerStall: return "revoker-stall";
      case FaultSite::RevokerStuckEpoch: return "stuck-epoch";
      case FaultSite::BitmapCorrupt: return "bitmap-corrupt";
      case FaultSite::SpuriousFault: return "spurious-fault";
      case FaultSite::FaultStorm: return "fault-storm";
      case FaultSite::MallocStall: return "malloc-stall";
      case FaultSite::NicDmaCorrupt: return "nic-dma-corrupt";
      case FaultSite::NicRingCorrupt: return "nic-ring-corrupt";
      case FaultSite::NicLinkDrop: return "nic-link-drop";
      case FaultSite::SwitchPortStall: return "switch-port-stall";
      case FaultSite::FlowStateCorrupt: return "flow-state-corrupt";
      case FaultSite::BrokerQueueCorrupt: return "broker-queue-corrupt";
      case FaultSite::CapTableCorrupt: return "cap-table-corrupt";
      case FaultSite::kCount: break;
    }
    return "unknown";
}

FaultInjector::FaultInjector(uint64_t seed)
    : seed_(seed), selector_(Rng::forStream(seed, kFaultSiteCount))
{
    for (uint32_t i = 0; i < kFaultSiteCount; ++i) {
        streams_[i] = Rng::forStream(seed, i);
    }
    snapshot::registerStats(stats_, *this);
}

FaultPlan
FaultInjector::planNext(uint64_t horizonCycles, uint32_t memBase,
                        uint32_t memSize)
{
    FaultPlan plan;
    plan.site = static_cast<FaultSite>(selector_.below(kFaultSiteCount));
    Rng &rng = streams_[static_cast<uint32_t>(plan.site)];

    // Land the trigger in the middle 80% of the horizon so the fault
    // hits a warmed-up system but leaves time to observe recovery.
    const uint64_t lo = horizonCycles / 10;
    const uint64_t span = horizonCycles - 2 * lo;
    plan.triggerCycle = lo + rng.next64() % (span == 0 ? 1 : span);

    switch (plan.site) {
      case FaultSite::TagClear:
      case FaultSite::DataFlip:
        plan.addr = memBase + (rng.below(memSize) & ~7u);
        plan.param = rng.below(64); // Bit index within the granule.
        break;
      case FaultSite::BusDrop:
        // Burst length never exceeds the bus retry budget, modelling
        // transient glitches; a permanently dead bus is out of scope.
        plan.triggerTransaction = rng.next64() % 4096;
        plan.param = 1 + rng.below(mem::Bus::kMaxRetries);
        break;
      case FaultSite::BusDelay:
        plan.triggerTransaction = rng.next64() % 4096;
        plan.param = 1 + rng.below(16); // Extra beats of latency.
        break;
      case FaultSite::RevokerStall:
        plan.param = 1024 + rng.below(64 * 1024); // Stall duration.
        break;
      case FaultSite::MallocStall:
        // Stall windows from "a hiccup the backoff absorbs" to "far
        // beyond the backoff budget" so both the recovered-retry and
        // the bounded-timeout → OutOfMemory paths get exercised.
        plan.param = 4096 + rng.below(512 * 1024);
        break;
      case FaultSite::NicDmaCorrupt:
      case FaultSite::NicRingCorrupt:
        // Fires on the Nth packet delivery; the short count keeps the
        // trigger inside a campaign run's modest packet budget. The
        // param picks the granule and bit at delivery time.
        plan.triggerTransaction = rng.below(16);
        plan.param = static_cast<uint32_t>(rng.next64());
        break;
      case FaultSite::NicLinkDrop:
        // Fires on the Nth frame arrival; a short burst, so a
        // retransmitting sender always gets through eventually.
        plan.triggerTransaction = rng.below(64);
        plan.param = 1 + rng.below(4);
        break;
      case FaultSite::SwitchPortStall:
        // Fires on the Nth fabric tick; addr selects the port
        // (reduced modulo the port count at delivery).
        plan.triggerTransaction = rng.below(256);
        plan.addr = rng.next();
        plan.param = 1 + rng.below(32); // Stall window in ticks.
        break;
      case FaultSite::FlowStateCorrupt:
      case FaultSite::BrokerQueueCorrupt:
      case FaultSite::CapTableCorrupt:
        // Fires on the Nth flow-table / broker-queue / cap-table
        // touch; the param is the scramble pattern applied to the
        // targeted entry.
        plan.triggerTransaction = rng.below(32);
        plan.param = static_cast<uint32_t>(rng.next64() | 1u);
        break;
      case FaultSite::RevokerStuckEpoch:
        break;
      case FaultSite::BitmapCorrupt:
        plan.addr = memBase + (rng.below(memSize) & ~7u);
        break;
      case FaultSite::SpuriousFault:
        plan.param = rng.below(kSpuriousCauseCount);
        break;
      case FaultSite::FaultStorm:
        // Burst length × cause: a storm of identical spurious traps.
        plan.param = (rng.below(kSpuriousCauseCount) << 8) |
                     (4 + rng.below(12));
        break;
      case FaultSite::kCount:
        break;
    }
    return plan;
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    plan_ = plan;
    armed_ = true;
    fired_ = false;
}

void
FaultInjector::fire(uint64_t nowCycle)
{
    fired_ = true;
    faultsInjected++;
    switch (plan_.site) {
      case FaultSite::TagClear:
        if (sram_ != nullptr) {
            sram_->injectTagClear(plan_.addr);
            tagsCleared++;
        }
        break;
      case FaultSite::DataFlip:
        if (sram_ != nullptr) {
            // Poison before the flip: the granule counts as disturbed
            // whether or not the fail-safe micro-tag clear applies.
            if (sram_->tagAt(plan_.addr)) {
                poisoned_.insert(plan_.addr & ~7u);
            }
            sram_->injectDataFlip(plan_.addr, plan_.param,
                                  /*failSafe=*/!allowForgery_);
            bitsFlipped++;
        }
        break;
      case FaultSite::RevokerStall:
        stalled_ = true;
        stallDeadline_ = nowCycle + plan_.param;
        revokerStalls++;
        break;
      case FaultSite::RevokerStuckEpoch:
        epochStuck_ = true;
        epochsStuck++;
        break;
      case FaultSite::BitmapCorrupt:
        if (bitmap_ != nullptr && bitmap_->covers(plan_.addr)) {
            // Fail-safe direction only: painting a bit over-revokes
            // (availability fault); clearing one would need ECC and
            // is out of the modelled threat.
            bitmap_->setRange(plan_.addr, 1);
            bitmapBitsPainted++;
        }
        break;
      case FaultSite::SpuriousFault:
        pendingSpurious_ = 1;
        spuriousCause_ = static_cast<uint32_t>(
            kSpuriousCauses[plan_.param % kSpuriousCauseCount]);
        break;
      case FaultSite::FaultStorm:
        pendingSpurious_ = plan_.param & 0xff;
        spuriousCause_ = static_cast<uint32_t>(
            kSpuriousCauses[(plan_.param >> 8) % kSpuriousCauseCount]);
        break;
      case FaultSite::BusDrop:
      case FaultSite::BusDelay:
      case FaultSite::MallocStall:
      case FaultSite::NicDmaCorrupt:
      case FaultSite::NicRingCorrupt:
      case FaultSite::NicLinkDrop:
      case FaultSite::SwitchPortStall:
      case FaultSite::FlowStateCorrupt:
      case FaultSite::BrokerQueueCorrupt:
      case FaultSite::CapTableCorrupt:
      case FaultSite::kCount:
        break; // Event-triggered: delivered by their own hooks.
    }
}

void
FaultInjector::tick(uint64_t nowCycle)
{
    // Backstop: a stall window expires by itself even if nothing
    // kicks the engine, so an idle system cannot wedge forever.
    if (stalled_ && nowCycle >= stallDeadline_) {
        stalled_ = false;
    }
    // Event-triggered sites are delivered by their own hooks.
    if (armed_ && !fired_ && cycleTriggered(plan_.site) &&
        nowCycle >= plan_.triggerCycle) {
        fire(nowCycle);
    }
}

uint64_t
FaultInjector::nextEventCycle() const
{
    uint64_t next = UINT64_MAX;
    if (stalled_) {
        next = stallDeadline_;
    }
    if (armed_ && !fired_ && cycleTriggered(plan_.site)) {
        next = std::min(next, plan_.triggerCycle);
    }
    return next;
}

bool
FaultInjector::takeSpuriousFault(uint32_t *cause)
{
    if (pendingSpurious_ == 0) {
        return false;
    }
    --pendingSpurious_;
    spuriousFaults++;
    *cause = spuriousCause_;
    return true;
}

uint32_t
FaultInjector::busTransactionFaults(uint32_t *extraBeats)
{
    const uint64_t ordinal = busTransactions_++;
    if (!armed_ || fired_) {
        return 0;
    }
    if (plan_.site == FaultSite::BusDrop &&
        ordinal >= plan_.triggerTransaction) {
        fired_ = true;
        faultsInjected++;
        busDrops += plan_.param;
        return plan_.param;
    }
    if (plan_.site == FaultSite::BusDelay &&
        ordinal >= plan_.triggerTransaction) {
        fired_ = true;
        faultsInjected++;
        busDelays++;
        *extraBeats += plan_.param;
    }
    return 0;
}

void
FaultInjector::mallocBackoffStarted(uint64_t nowCycle)
{
    if (!armed_ || fired_ || plan_.site != FaultSite::MallocStall) {
        return;
    }
    fired_ = true;
    faultsInjected++;
    mallocStalls++;
    revokerStalls++;
    stalled_ = true;
    stallDeadline_ = nowCycle + plan_.param;
}

void
FaultInjector::nicDeliveryStarting(uint32_t descAddr)
{
    const uint64_t ordinal = nicDeliveries_++;
    if (!armed_ || fired_ || sram_ == nullptr ||
        plan_.site != FaultSite::NicRingCorrupt ||
        ordinal < plan_.triggerTransaction) {
        return;
    }
    fired_ = true;
    faultsInjected++;
    nicDescriptorFlips++;
    // The descriptor is exactly one granule; flip a bit of it right
    // before the device fetches it.
    if (sram_->tagAt(descAddr)) {
        poisoned_.insert(descAddr & ~7u);
    }
    sram_->injectDataFlip(descAddr, plan_.param % 64,
                          /*failSafe=*/!allowForgery_);
}

void
FaultInjector::nicDmaLanded(uint32_t addr, uint32_t bytes)
{
    if (!armed_ || fired_ || sram_ == nullptr || bytes == 0 ||
        plan_.site != FaultSite::NicDmaCorrupt ||
        nicDeliveries_ <= plan_.triggerTransaction) {
        return;
    }
    fired_ = true;
    faultsInjected++;
    nicPayloadFlips++;
    const uint32_t granules = (bytes + 7) / 8;
    const uint32_t target = (addr & ~7u) + 8 * (plan_.param % granules);
    if (sram_->tagAt(target)) {
        poisoned_.insert(target & ~7u);
    }
    sram_->injectDataFlip(target, (plan_.param >> 8) % 64,
                          /*failSafe=*/!allowForgery_);
}

bool
FaultInjector::nicLinkFrameArriving()
{
    const uint64_t ordinal = nicArrivals_++;
    if (linkDropBurstLeft_ > 0) {
        linkDropBurstLeft_--;
        nicLinkDrops++;
        return true;
    }
    if (!armed_ || fired_ || plan_.site != FaultSite::NicLinkDrop ||
        ordinal < plan_.triggerTransaction) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    nicLinkDrops++;
    linkDropBurstLeft_ = plan_.param > 0 ? plan_.param - 1 : 0;
    return true;
}

bool
FaultInjector::switchTick(uint32_t *portSel, uint32_t *stallTicks)
{
    const uint64_t ordinal = switchTicks_++;
    if (!armed_ || fired_ || plan_.site != FaultSite::SwitchPortStall ||
        ordinal < plan_.triggerTransaction) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    switchPortStalls++;
    *portSel = plan_.addr;
    *stallTicks = plan_.param;
    return true;
}

bool
FaultInjector::flowStateTouched(uint32_t *param)
{
    const uint64_t ordinal = flowTouches_++;
    if (!armed_ || fired_ || plan_.site != FaultSite::FlowStateCorrupt ||
        ordinal < plan_.triggerTransaction) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    flowStateFlips++;
    *param = plan_.param;
    return true;
}

bool
FaultInjector::brokerQueueTouched(uint32_t *param)
{
    const uint64_t ordinal = brokerTouches_++;
    if (!armed_ || fired_ ||
        plan_.site != FaultSite::BrokerQueueCorrupt ||
        ordinal < plan_.triggerTransaction) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    brokerQueueFlips++;
    *param = plan_.param;
    return true;
}

bool
FaultInjector::capTableTouched(uint32_t *param)
{
    const uint64_t ordinal = capTouches_++;
    if (!armed_ || fired_ ||
        plan_.site != FaultSite::CapTableCorrupt ||
        ordinal < plan_.triggerTransaction) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    capTableFlips++;
    *param = plan_.param;
    return true;
}

void
FaultInjector::revokerKicked()
{
    if (stalled_ || epochStuck_) {
        kicksObserved++;
    }
    stalled_ = false;
    epochStuck_ = false;
}

bool
FaultInjector::isPoisoned(uint32_t addr) const
{
    return poisoned_.count(addr & ~7u) != 0;
}

void
FaultInjector::notePoisonRepaired(uint32_t addr)
{
    poisoned_.erase(addr & ~7u);
}

void
FaultInjector::noteSafetyViolation(uint32_t addr)
{
    safetyViolations++;
    warn("fault: tagged capability dereferenced from poisoned granule "
         "0x%08x (memory-safety violation)",
         addr & ~7u);
}

} // namespace cheriot::fault
