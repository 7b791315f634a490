/**
 * @file
 * Deterministic fault-injection engine.
 *
 * A FaultInjector owns one plan at a time — a single hardware or
 * software fault scheduled at a cycle (or bus-transaction) trigger —
 * and the hook points threaded through the machine deliver it:
 *
 *  - tagged SRAM: capability-tag clears and data bit flips;
 *  - the data bus: dropped and late transactions, recovered by the
 *    bus model's bounded retry + backoff;
 *  - the background revoker: stalled sweeps and stuck epochs,
 *    recovered by the RTOS kick/timeout path;
 *  - the revocation bitmap: spuriously painted granules
 *    (over-revocation: an availability fault, never a safety one);
 *  - the core: spurious traps and trap storms, absorbed by the
 *    switcher's error-handler / forced-unwind machinery.
 *
 * All randomness comes from per-site streams split off a single
 * 64-bit seed (Rng::forStream), so a campaign of N injections is
 * reproducible bit-for-bit from (seed, index).
 *
 * Fail-safe corruption model: memory disturbances follow the
 * CHERIoT-Ibex micro-tag design — any flip landing in a tagged
 * granule also clears the covering micro-tag, exactly as a narrow
 * data write does (paper §4), so injected corruption can *revoke*
 * a capability's validity but never forge one. The injector still
 * tracks every disturbed granule as *poisoned* and the machine
 * reports a safety violation if a tagged capability is ever loaded
 * from a poisoned granule — the invariant the campaign asserts. A
 * test-only forgery mode leaves the micro-tags intact to prove the
 * oracle actually fires.
 */

#ifndef CHERIOT_FAULT_FAULT_INJECTOR_H
#define CHERIOT_FAULT_FAULT_INJECTOR_H

#include "util/rng.h"
#include "util/stats.h"

#include <cstdint>
#include <unordered_set>

namespace cheriot::mem
{
class TaggedMemory;
}
namespace cheriot::revoker
{
class RevocationBitmap;
}

namespace cheriot::fault
{

/** Where a fault is injected. */
enum class FaultSite : uint8_t
{
    TagClear = 0,         ///< Clear a granule's capability tag.
    DataFlip,             ///< Flip one data bit (clears micro-tag).
    BusDrop,              ///< Drop bus transactions (bounded burst).
    BusDelay,             ///< Delay a bus transaction by extra beats.
    RevokerStall,         ///< Background sweep stops making progress.
    RevokerStuckEpoch,    ///< Sweep completes but the epoch stays odd.
    BitmapCorrupt,        ///< Paint a spurious revocation bit.
    SpuriousFault,        ///< One spurious trap / callee fault.
    FaultStorm,           ///< A burst of spurious faults.
    MallocStall,          ///< Revoker stalls as a blocking malloc
                          ///< enters its backoff loop (exercises the
                          ///< bounded-backoff / OutOfMemory path).
    NicDmaCorrupt,        ///< NIC DMA writes a corrupted beat into a
                          ///< landing packet payload.
    NicRingCorrupt,       ///< A bit flips in the RX descriptor the
                          ///< NIC is about to fetch.
    NicLinkDrop,          ///< The link eats a burst of arriving
                          ///< frames before the NIC sees them.
    SwitchPortStall,      ///< A switch port's egress freezes for a
                          ///< window; its bounded queue backs up.
    FlowStateCorrupt,     ///< A bit pattern scrambles a flow-table
                          ///< entry; the flow layer must detect it
                          ///< and die with a typed reset.
    BrokerQueueCorrupt,   ///< A queued broker record's metadata is
                          ///< disturbed; the broker must drop the
                          ///< record, never trap a subscriber.
    CapTableCorrupt,      ///< An object-capability table entry (or
                          ///< its tree links) is scrambled; the table
                          ///< must refuse it typed on use and kill
                          ///< the subtree, never grant authority.
    kCount,
};

constexpr uint32_t kFaultSiteCount =
    static_cast<uint32_t>(FaultSite::kCount);

/**
 * Is @p site delivered by FaultInjector::tick once the cycle counter
 * reaches the plan's triggerCycle? Every other site is event-triggered
 * and delivered by its own hook (bus transaction, malloc backoff, NIC
 * delivery, switch tick, flow/broker/cap-table touch). The machine's
 * batched time advance relies on this being the single list: a
 * cycle-triggered site missing here would never fire.
 */
constexpr bool
cycleTriggered(FaultSite site)
{
    switch (site) {
      case FaultSite::TagClear:
      case FaultSite::DataFlip:
      case FaultSite::RevokerStall:
      case FaultSite::RevokerStuckEpoch:
      case FaultSite::BitmapCorrupt:
      case FaultSite::SpuriousFault:
      case FaultSite::FaultStorm:
        return true;
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
        return false;
    }
    return false;
}

const char *faultSiteName(FaultSite site);

/** One scheduled injection. */
struct FaultPlan
{
    FaultSite site = FaultSite::TagClear;
    /** Cycle at which cycle-triggered sites fire. */
    uint64_t triggerCycle = 0;
    /** Bus-transaction ordinal at which bus sites fire. */
    uint64_t triggerTransaction = 0;
    /** Target address for memory/bitmap sites. */
    uint32_t addr = 0;
    /** Site-specific payload (bit index, burst length, delay…). */
    uint32_t param = 0;
};

class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed);

    /** @name Planning @{ */
    /**
     * Draw the next plan from the per-site streams. @p horizonCycles
     * bounds the trigger; [@p memBase, @p memBase + @p memSize) is
     * the target window for memory faults.
     */
    FaultPlan planNext(uint64_t horizonCycles, uint32_t memBase,
                       uint32_t memSize);
    void arm(const FaultPlan &plan);
    const FaultPlan &armedPlan() const { return plan_; }
    bool armed() const { return armed_; }
    /** Has the armed plan delivered its fault? */
    bool fired() const { return fired_; }
    /** @} */

    /** @name Wiring (done by the machine constructor) @{ */
    void attachMemory(mem::TaggedMemory *sram) { sram_ = sram; }
    void attachBitmap(revoker::RevocationBitmap *bitmap)
    {
        bitmap_ = bitmap;
    }
    /** @} */

    /** @name Machine hooks @{ */
    /** Cycle hook: delivers cycle-triggered faults. */
    void tick(uint64_t nowCycle);
    /**
     * The earliest cycle at which tick() can change state: the stall
     * deadline while stalled, the trigger cycle while a
     * cycle-triggered plan is armed and unfired, UINT64_MAX when
     * neither. tick() with any earlier cycle is a no-op, so a caller
     * may skip straight to this horizon. A value at or below the
     * current cycle means the very next tick() acts.
     */
    uint64_t nextEventCycle() const;
    /**
     * Consume a pending spurious fault. Polled both by the guest-ISA
     * step loop (trap) and by the switcher on callee return (callee
     * fault), whichever observes it first.
     */
    bool takeSpuriousFault(uint32_t *cause);
    /** @} */

    /** @name Bus hooks @{ */
    /**
     * Called once per charged bus transaction. Returns the number of
     * consecutive drops injected into this transaction (0 normally)
     * and adds any injected latency to @p extraBeats.
     */
    uint32_t busTransactionFaults(uint32_t *extraBeats);
    /** @} */

    /** @name Revoker hooks @{ */
    bool revokerStalled() const { return stalled_; }
    bool suppressEpochIncrement() const { return epochStuck_; }
    /** MMIO kick observed: clears stall and stuck-epoch states. */
    void revokerKicked();
    /**
     * Allocator hook: a malloc exhausted the free lists and is about
     * to enter its bounded backoff loop. An armed MallocStall plan
     * fires here — opening a stall window at the worst possible
     * moment, while the blocked malloc waits on sweep progress.
     */
    void mallocBackoffStarted(uint64_t nowCycle);
    /** @} */

    /** @name NIC hooks (called by NicDevice mid-delivery)
     * Both NIC sites are event-triggered on the Nth packet delivery
     * (plan.triggerTransaction counts deliveries), so the corruption
     * always lands while the device owns the target granule — exactly
     * the transient a glitching DMA engine or descriptor fetch
     * produces. Flips go through TaggedMemory's fail-safe back door:
     * they can revoke a capability's validity but never forge one. @{ */
    /** Descriptor at @p descAddr is about to be fetched; an armed
     * NicRingCorrupt plan flips a bit in that granule. */
    void nicDeliveryStarting(uint32_t descAddr);
    /** Payload landed at [@p addr, @p addr + @p bytes); an armed
     * NicDmaCorrupt plan flips a bit in one landed granule. */
    void nicDmaLanded(uint32_t addr, uint32_t bytes);
    /**
     * A frame is arriving on the wire, before the NIC sees it. An
     * armed NicLinkDrop plan returns true for a burst of plan.param
     * frames starting at the plan's arrival ordinal: the link ate
     * them. Counts its own ordinal stream (arrivals, not deliveries)
     * so arming it never shifts the NIC corruption sites' triggers.
     */
    bool nicLinkFrameArriving();
    /** @} */

    /** @name Switch hook (called by VirtualSwitch::tick) @{ */
    /**
     * An armed SwitchPortStall plan fires on the Nth fabric tick:
     * returns true once with the port selector (reduce modulo the
     * port count) and the stall window length in ticks.
     */
    bool switchTick(uint32_t *portSel, uint32_t *stallTicks);
    /** @} */

    /** @name Application-tier hooks (flow manager / broker) @{ */
    /**
     * The flow layer is about to act on a flow-table entry. An armed
     * FlowStateCorrupt plan fires on the Nth touch: returns true once
     * with a scramble pattern in @p param. Counts its own ordinal
     * stream so arming it never shifts the NIC or switch triggers.
     */
    bool flowStateTouched(uint32_t *param);
    /**
     * The broker enqueued (or is about to deliver) a record. An armed
     * BrokerQueueCorrupt plan fires on the Nth touch: returns true
     * once with a scramble pattern in @p param.
     */
    bool brokerQueueTouched(uint32_t *param);
    /**
     * The object-capability table is about to validate an entry. An
     * armed CapTableCorrupt plan fires on the Nth touch: returns true
     * once with a scramble pattern in @p param, applied to the entry
     * *before* its canary is checked. Counts its own ordinal stream
     * so arming it never shifts any other site's triggers.
     */
    bool capTableTouched(uint32_t *param);
    /** @} */

    /** @name Safety oracle @{ */
    /** Is the granule containing @p addr corrupted-but-unrepaired? */
    bool isPoisoned(uint32_t addr) const;
    /** A legitimate capability store rewrote the granule. */
    void notePoisonRepaired(uint32_t addr);
    /** A tagged capability was dereferenced out of a poisoned
     * granule: the one outcome the system must never produce. */
    void noteSafetyViolation(uint32_t addr);
    /**
     * Testing only: deliver flips *without* the fail-safe micro-tag
     * clear, modelling hardware without the micro-tag protection.
     * Proves the oracle is falsifiable.
     */
    void setAllowForgery(bool allow) { allowForgery_ = allow; }
    bool allowForgery() const { return allowForgery_; }
    /** @} */

    uint64_t seed() const { return seed_; }
    StatGroup &stats() { return stats_; }

    Counter faultsInjected;     ///< Total faults delivered.
    Counter tagsCleared;        ///< Injected tag clears.
    Counter bitsFlipped;        ///< Injected data bit flips.
    Counter busDrops;           ///< Dropped bus transactions.
    Counter busDelays;          ///< Delayed bus transactions.
    Counter revokerStalls;      ///< Stall windows opened.
    Counter mallocStalls;       ///< Stalls landed on blocked mallocs.
    Counter epochsStuck;        ///< Stuck-epoch faults armed.
    Counter bitmapBitsPainted;  ///< Spurious revocation bits set.
    Counter spuriousFaults;     ///< Spurious traps delivered.
    Counter kicksObserved;      ///< Recovery kicks that cleared us.
    Counter nicPayloadFlips;    ///< Corrupted NIC payload beats.
    Counter nicDescriptorFlips; ///< Corrupted NIC RX descriptors.
    Counter nicLinkDrops;       ///< Frames eaten by the link.
    Counter switchPortStalls;   ///< Switch-port stall windows opened.
    Counter flowStateFlips;     ///< Scrambled flow-table entries.
    Counter brokerQueueFlips;   ///< Scrambled broker queue records.
    Counter capTableFlips;      ///< Scrambled object-cap entries.
    Counter safetyViolations;   ///< MUST stay zero outside forgery mode.

  private:
    void fire(uint64_t nowCycle);

    uint64_t seed_;
    Rng streams_[kFaultSiteCount];
    Rng selector_;

    FaultPlan plan_;
    bool armed_ = false;
    bool fired_ = false;
    bool allowForgery_ = false;

    mem::TaggedMemory *sram_ = nullptr;
    revoker::RevocationBitmap *bitmap_ = nullptr;

    /** Delivery state. */
    uint64_t busTransactions_ = 0;
    uint64_t nicDeliveries_ = 0;
    uint64_t nicArrivals_ = 0;
    uint64_t switchTicks_ = 0;
    uint64_t flowTouches_ = 0;
    uint64_t brokerTouches_ = 0;
    uint64_t capTouches_ = 0;
    uint32_t linkDropBurstLeft_ = 0;
    uint32_t pendingSpurious_ = 0;
    uint32_t spuriousCause_ = 0;
    bool stalled_ = false;
    uint64_t stallDeadline_ = 0;
    bool epochStuck_ = false;

    /** Granules disturbed by injection and not yet rewritten. */
    std::unordered_set<uint32_t> poisoned_;

    StatGroup stats_{"fault_injector"};
};

} // namespace cheriot::fault

#endif // CHERIOT_FAULT_FAULT_INJECTOR_H
