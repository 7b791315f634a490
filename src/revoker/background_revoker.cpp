#include "revoker/background_revoker.h"

#include "cap/capability.h"
#include "fault/fault_injector.h"
#include "snapshot/serializer.h"
#include "util/log.h"

namespace cheriot::revoker
{

BackgroundRevoker::BackgroundRevoker(mem::TaggedMemory &sram,
                                     RevocationBitmap &bitmap,
                                     mem::BusWidth busWidth)
    : sram_(sram), bitmap_(bitmap), busWidth_(busWidth), stats_("hw_revoker")
{
    snapshot::registerStats(stats_, *this);
}

bool
BackgroundRevoker::takeCompletionIrq()
{
    const bool pending = irqPending_;
    irqPending_ = false;
    return pending;
}

void
BackgroundRevoker::startSweep()
{
    if (sweeping()) {
        return; // Kick during a sweep has no effect.
    }
    if (startReg_ >= endReg_) {
        return;
    }
    ++epoch_; // Odd: sweeping.
    cursor_ = startReg_ & ~7u;
    slots_[0] = Slot{};
    slots_[1] = Slot{};
}

void
BackgroundRevoker::finishSweep()
{
    if (injector_ != nullptr && injector_->suppressEpochIncrement()) {
        // Stuck-epoch fault: the sweep ran dry but the completion
        // never becomes visible. Persists until software kicks the
        // engine. Every free cycle retries this path; run() skips the
        // retries, which change nothing.
        return;
    }
    ++epoch_; // Even: idle.
    sweepsCompleted++;
    if (completionInterrupt_) {
        irqPending_ = true;
    }
}

bool
BackgroundRevoker::issueNextLoad()
{
    if (cursor_ >= endReg_) {
        return false;
    }
    for (Slot &slot : slots_) {
        if (slot.valid) {
            continue;
        }
        slot.valid = true;
        slot.addr = cursor_;
        slot.loaded = false;
        slot.needsWriteback = false;
        unsigned beats = mem::capBeats(busWidth_);
        if (skipSecondHalf_ && beats == 2) {
            // Peek at the first half's micro-tag: if it is already
            // clear the architectural tag must be zero and the second
            // half-load can be skipped.
            const auto raw = sram_.readCap(slot.addr);
            if (!raw.halfTag0) {
                beats = 1;
            }
        }
        slot.beatsLeft = beats;
        cursor_ += cap::kCapabilitySize;
        return true;
    }
    return false;
}

void
BackgroundRevoker::examine(Slot &slot)
{
    const auto raw = sram_.readCap(slot.addr);
    if (raw.tag) {
        const auto loaded = cap::Capability::fromBits(raw.bits, raw.tag);
        if (bitmap_.isRevoked(loaded.base())) {
            slot.needsWriteback = true;
            return;
        }
    }
    // Tag already clear, or capability not stale: nothing to write.
    slot.valid = false;
    wordsExamined++;
}

bool
BackgroundRevoker::stalled() const
{
    // Injected stall: the engine holds its state but makes no
    // progress until kicked (or the stall window expires).
    return injector_ != nullptr && injector_->revokerStalled();
}

bool
BackgroundRevoker::tick(bool memPortFree)
{
    if (!sweeping() || !memPortFree) {
        return false;
    }
    if (stalled()) {
        stallCycles++;
        return false;
    }
    return step();
}

void
BackgroundRevoker::run(uint64_t freeCycles)
{
    if (!sweeping()) {
        return;
    }
    if (stalled()) {
        stallCycles += freeCycles;
        return;
    }
    for (; freeCycles > 0; --freeCycles) {
        if (!step()) {
            return;
        }
    }
}

bool
BackgroundRevoker::step()
{
    // Priority 1: writebacks. A single tag-clearing write suffices
    // because the architectural tag is the AND of the micro-tags.
    for (Slot &slot : slots_) {
        if (slot.valid && slot.needsWriteback) {
            sram_.clearCapTag(slot.addr);
            tagsInvalidated++;
            wordsExamined++;
            slot.valid = false;
            portCycles++;
            return true;
        }
    }

    // Priority 2: advance a pending load by one beat.
    for (Slot &slot : slots_) {
        if (slot.valid && !slot.loaded && slot.beatsLeft > 0) {
            slot.beatsLeft--;
            portCycles++;
            if (slot.beatsLeft == 0) {
                slot.loaded = true;
                examine(slot);
            } else {
                // Pipelining: while this slot waits for its next
                // beat, try to issue the other slot's first beat is
                // not modelled — one port, one beat per cycle.
            }
            return true;
        }
    }

    // Priority 3: issue the next load.
    if (issueNextLoad()) {
        // The issued beat itself is consumed this cycle.
        for (Slot &slot : slots_) {
            if (slot.valid && !slot.loaded && slot.beatsLeft > 0) {
                slot.beatsLeft--;
                portCycles++;
                if (slot.beatsLeft == 0) {
                    slot.loaded = true;
                    examine(slot);
                }
                return true;
            }
        }
    }

    // Nothing left in flight and no more words: the sweep is done.
    if (cursor_ >= endReg_ && !slots_[0].valid && !slots_[1].valid) {
        finishSweep();
    }
    return false;
}

void
BackgroundRevoker::snoopStore(uint32_t addr, uint32_t bytes)
{
    if (!sweeping()) {
        return;
    }
    const uint32_t granule = addr & ~7u;
    const uint32_t lastGranule = (addr + bytes - 1) & ~7u;
    for (Slot &slot : slots_) {
        if (slot.valid && slot.addr >= granule && slot.addr <= lastGranule) {
            // Word changed under us: restart its load.
            slot.loaded = false;
            slot.needsWriteback = false;
            slot.beatsLeft = mem::capBeats(busWidth_);
            snoopReloads++;
        }
    }
}

uint32_t
BackgroundRevoker::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return startReg_;
      case 0x4: return endReg_;
      case 0x8: return epoch_;
      case 0xc: return 0; // kick is write-only.
      default:
        panic("background revoker: read of unknown register 0x%x", offset);
    }
}

void
BackgroundRevoker::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x0:
        startReg_ = value;
        break;
      case 0x4:
        endReg_ = value;
        break;
      case 0x8:
        break; // epoch is read-only.
      case 0xc:
        kicksReceived++;
        if (injector_ != nullptr) {
            // A kick resets the engine's control path, clearing any
            // injected stall or stuck-epoch condition.
            injector_->revokerKicked();
        }
        startSweep();
        break;
      default:
        panic("background revoker: write of unknown register 0x%x", offset);
    }
}

} // namespace cheriot::revoker
