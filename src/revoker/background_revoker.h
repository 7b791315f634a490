/**
 * @file
 * Background pipelined hardware revoker (paper §3.3.3).
 *
 * A simple two-stage state machine that engages the load-store unit
 * whenever the main pipeline is not performing memory operations. It
 * walks the configured window loading each capability word; the load
 * filter's check decides whether the word's tag must be stripped. Two
 * words can be in flight, hiding the one-cycle filter delay and
 * achieving one word per free memory cycle on a wide bus.
 *
 * Exposed as an MMIO device with four registers:
 *   0x0 start  (RW)  first byte of the sweep window
 *   0x4 end    (RW)  one past the last byte
 *   0x8 epoch  (RO)  odd while sweeping
 *   0xC kick   (WO)  any write starts a sweep if none is underway
 *
 * Writeback optimizations (§7.2.2): the engine only writes back when
 * the tag was stripped, and then issues a single tag-clearing write
 * (possible because the architectural tag is the AND of the two
 * micro-tags). Optionally it can skip the second half-load when the
 * first half's micro-tag is already clear (the paper implements the
 * first optimization but not the second; both are modelled, the
 * second off by default).
 *
 * Stores from the main pipeline are snooped against the in-flight
 * words: a hit forces the word to be reloaded, closing the race in
 * which the revoker would otherwise overwrite fresh application data
 * with a stale invalidated image.
 */

#ifndef CHERIOT_REVOKER_BACKGROUND_REVOKER_H
#define CHERIOT_REVOKER_BACKGROUND_REVOKER_H

#include "mem/bus.h"
#include "mem/mmio.h"
#include "mem/tagged_memory.h"
#include "revoker/revocation_bitmap.h"
#include "util/stats.h"

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::revoker
{

class BackgroundRevoker : public mem::MmioDevice
{
  public:
    BackgroundRevoker(mem::TaggedMemory &sram, RevocationBitmap &bitmap,
                      mem::BusWidth busWidth);

    /** @name Configuration @{ */
    void setSkipSecondHalfLoad(bool enabled) { skipSecondHalf_ = enabled; }
    bool skipSecondHalfLoad() const { return skipSecondHalf_; }
    /** Raise an interrupt on completion (the production core does;
     * the Flute prototype does not and must be polled, §7.2.2). */
    void setCompletionInterrupt(bool enabled)
    {
        completionInterrupt_ = enabled;
    }
    bool completionInterrupt() const { return completionInterrupt_; }
    /**
     * Attach a fault injector: the engine consults it for stall and
     * stuck-epoch faults and reports kicks to it (a kick is the
     * software recovery action that clears both).
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }
    /** @} */

    /** @name Architectural state @{ */
    uint32_t epoch() const { return epoch_; }
    bool sweeping() const { return (epoch_ & 1) != 0; }
    /** Completion-interrupt pending flag; cleared by the reader. */
    bool takeCompletionIrq();
    /** @} */

    /**
     * Advance one cycle. @p memPortFree says whether the main
     * pipeline left the load-store unit idle this cycle. Returns true
     * if the revoker used the port.
     */
    bool tick(bool memPortFree);

    /**
     * Advance @p freeCycles cycles in which the load-store port is
     * free; exactly equivalent to that many tick(true) calls provided
     * the attached injector's stall and stuck-epoch state does not
     * change in between (the machine cuts its time advance at the
     * injector's next event to guarantee this). Returns at once when
     * idle, charges a stalled window to stallCycles in one step, and
     * stops early once the sweep has finished or drained under a
     * stuck epoch.
     */
    void run(uint64_t freeCycles);

    /**
     * Snoop a store from the main pipeline: if it hits a word
     * currently in flight, that word must be reloaded.
     */
    void snoopStore(uint32_t addr, uint32_t bytes);

    /** Snapshot state (window, epoch, cursor, in-flight slots) and
     * counters. */
    template <class V>
    void fields(V &v)
    {
        v(skipSecondHalf_, completionInterrupt_, irqPending_, startReg_,
          endReg_, epoch_, cursor_, slots_);
        v.counter("wordsExamined", wordsExamined);
        v.counter("tagsInvalidated", tagsInvalidated);
        v.counter("snoopReloads", snoopReloads);
        v.counter("portCycles", portCycles);
        v.counter("stallCycles", stallCycles);
        v.counter("kicksReceived", kicksReceived);
        // The architectural sweep progress is the epoch.
        v.stat("sweepsCompleted", sweepsCompleted);
    }

    /** @name MmioDevice @{ */
    std::string name() const override { return "background-revoker"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;
    /** @} */

    Counter wordsExamined;   ///< Capability words fully processed.
    Counter tagsInvalidated; ///< Stale capabilities invalidated.
    Counter snoopReloads;    ///< Words reloaded due to store snoops.
    Counter portCycles;      ///< Memory-port cycles consumed.
    Counter stallCycles;     ///< Cycles lost to injected stalls.
    Counter kicksReceived;   ///< MMIO kicks observed.
    Counter sweepsCompleted; ///< Full sweep passes finished.

    StatGroup &stats() { return stats_; }

  private:
    /** One in-flight capability word. */
    struct Slot
    {
        bool valid = false;
        uint32_t addr = 0;
        uint32_t beatsLeft = 0; ///< Load beats still needed.
        bool loaded = false;    ///< Data fully loaded, awaiting check.
        bool needsWriteback = false;

        template <class V>
        void fields(V &v)
        {
            v(valid, addr, beatsLeft, loaded, needsWriteback);
        }
    };

    void startSweep();
    void finishSweep();
    bool issueNextLoad();
    /** One free, unstalled cycle of an in-progress sweep: the
     * writeback > beat > issue pipeline. Returns true if the port was
     * used; false means the sweep has drained (finished, or held
     * odd by a stuck epoch) and further steps change nothing. */
    bool step();
    bool stalled() const;
    void examine(Slot &slot);

    mem::TaggedMemory &sram_;
    RevocationBitmap &bitmap_;
    mem::BusWidth busWidth_;
    fault::FaultInjector *injector_ = nullptr;
    bool skipSecondHalf_ = false;
    bool completionInterrupt_ = true;
    bool irqPending_ = false;

    uint32_t startReg_ = 0;
    uint32_t endReg_ = 0;
    uint32_t epoch_ = 0;
    uint32_t cursor_ = 0;

    Slot slots_[2];
    StatGroup stats_;
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_BACKGROUND_REVOKER_H
