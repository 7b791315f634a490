#include "net/nic_device.h"

#include "fault/fault_injector.h"

#include <vector>

namespace cheriot::net
{

uint32_t
NicDevice::read32(uint32_t offset)
{
    switch (offset) {
      case kRegCtrl: return ctrl_;
      case kRegIrqStatus: return irqStatus_;
      case kRegIrqEnable: return irqEnable_;
      case kRegRxRingBase: return rxRingBase_;
      case kRegRxRingCount: return rxRingCount_;
      case kRegRxHead: return rxHead_;
      case kRegRxTail: return rxTail_;
      case kRegDmaBase: return dmaBase_;
      case kRegDmaSize: return dmaSize_;
      case kRegTxRingBase: return txRingBase_;
      case kRegTxRingCount: return txRingCount_;
      case kRegTxHead: return txHead_;
      case kRegTxTail: return txTail_;
      case kRegRxPackets: return static_cast<uint32_t>(rxPackets_);
      case kRegRxBytesLo: return static_cast<uint32_t>(rxBytes_);
      case kRegRxBytesHi: return static_cast<uint32_t>(rxBytes_ >> 32);
      case kRegRxDrops: return static_cast<uint32_t>(rxDrops_);
      case kRegRxErrors: return static_cast<uint32_t>(rxErrors_);
      case kRegTxPackets: return static_cast<uint32_t>(txPackets_);
      case kRegTxBytesLo: return static_cast<uint32_t>(txBytes_);
      case kRegTxBytesHi: return static_cast<uint32_t>(txBytes_ >> 32);
      case kRegTxChecksum: return txChecksum_;
      default: return 0;
    }
}

void
NicDevice::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case kRegCtrl: ctrl_ = value; break;
      case kRegIrqStatus: irqStatus_ &= ~value; break; // W1C
      case kRegIrqEnable: irqEnable_ = value; break;
      case kRegRxRingBase: rxRingBase_ = value; break;
      case kRegRxRingCount: rxRingCount_ = value; break;
      case kRegRxTail: rxTail_ = value; break;
      case kRegDmaBase: dmaBase_ = value; break;
      case kRegDmaSize: dmaSize_ = value; break;
      case kRegTxRingBase: txRingBase_ = value; break;
      case kRegTxRingCount: txRingCount_ = value; break;
      case kRegTxHead: txHead_ = value; break;
      case kRegTxKick: processTx(); break;
      default: break; // RO registers: writes ignored.
    }
}

bool
NicDevice::dmaOk(uint32_t addr, uint32_t bytes) const
{
    if (dmaSize_ == 0 || addr < dmaBase_ ||
        addr - dmaBase_ + bytes > dmaSize_) {
        return false;
    }
    return sram_.contains(addr, bytes);
}

bool
NicDevice::deliver(const uint8_t *frame, uint32_t bytes)
{
    if (injector_ != nullptr && injector_->nicLinkFrameArriving()) {
        // The link ate the frame before the device saw it
        // (NicLinkDrop): indistinguishable from ring-full loss to the
        // stack above, and recovered the same way — retransmission.
        rxDrops_++;
        raise(kIrqRxOverflow);
        return false;
    }
    if ((ctrl_ & kCtrlRxEnable) == 0 || rxRingCount_ == 0 ||
        bytes == 0 || bytes > kDescLenMask) {
        rxDrops_++;
        raise(kIrqRxOverflow);
        return false;
    }
    if (rxHead_ == rxTail_) {
        // No posted descriptor: the driver is behind. Drop on the
        // floor and latch the overflow interrupt — backpressure.
        rxDrops_++;
        raise(kIrqRxOverflow);
        return false;
    }

    const uint32_t slot = rxHead_ % rxRingCount_;
    const uint32_t descAddr = rxRingBase_ + slot * kDescBytes;
    if (!dmaOk(descAddr, kDescBytes)) {
        // The ring itself is outside the window: refuse outright
        // (cannot even write an error flag back).
        rxErrors_++;
        raise(kIrqRxError);
        return false;
    }
    if (injector_ != nullptr) {
        // A glitching bus may corrupt the descriptor the device is
        // about to fetch (NicRingCorrupt fires here).
        injector_->nicDeliveryStarting(descAddr);
    }

    const uint32_t bufAddr = sram_.read32(descAddr);
    const uint32_t word1 = sram_.read32(descAddr + 4);
    const uint32_t capacity = word1 & kDescLenMask;
    if ((word1 & kDescDone) != 0 || capacity < bytes ||
        (bufAddr & 3) != 0 || !dmaOk(bufAddr, capacity)) {
        // Bad descriptor: consume the slot with an error writeback so
        // the driver can detect, repair and repost it.
        sram_.write32(descAddr + 4, word1 | kDescDone | kDescError);
        rxHead_++;
        rxErrors_++;
        raise(kIrqRxError);
        return false;
    }

    // DMA the payload through the *data* ports: every touched granule
    // half loses its capability micro-tag (§4 tagged-bus rule).
    uint32_t off = 0;
    for (; off + 4 <= bytes; off += 4) {
        const uint32_t word = static_cast<uint32_t>(frame[off]) |
                              static_cast<uint32_t>(frame[off + 1]) << 8 |
                              static_cast<uint32_t>(frame[off + 2]) << 16 |
                              static_cast<uint32_t>(frame[off + 3]) << 24;
        sram_.write32(bufAddr + off, word);
    }
    for (; off < bytes; ++off) {
        sram_.write8(bufAddr + off, frame[off]);
    }

    sram_.write32(descAddr + 4, bytes | kDescDone);
    lastRxAddr_ = bufAddr;
    lastRxBytes_ = bytes;
    rxHead_++;
    rxPackets_++;
    rxBytes_ += bytes;
    raise(kIrqRxPacket);
    if (injector_ != nullptr) {
        // A glitching DMA engine may have written a corrupted beat
        // into the landed payload (NicDmaCorrupt fires here).
        injector_->nicDmaLanded(bufAddr, bytes);
    }
    return true;
}

void
NicDevice::processTx()
{
    if ((ctrl_ & kCtrlTxEnable) == 0 || txRingCount_ == 0) {
        return;
    }
    while (txTail_ != txHead_) {
        const uint32_t slot = txTail_ % txRingCount_;
        const uint32_t descAddr = txRingBase_ + slot * kDescBytes;
        if (!dmaOk(descAddr, kDescBytes)) {
            rxErrors_++;
            raise(kIrqRxError);
            break;
        }
        const uint32_t bufAddr = sram_.read32(descAddr);
        const uint32_t word1 = sram_.read32(descAddr + 4);
        const uint32_t len = word1 & kDescLenMask;
        if ((word1 & kDescDone) != 0 || len == 0 || (bufAddr & 3) != 0 ||
            !dmaOk(bufAddr, len)) {
            sram_.write32(descAddr + 4, word1 | kDescDone | kDescError);
            txTail_++;
            rxErrors_++;
            raise(kIrqRxError);
            continue;
        }
        // "Transmit": fold the payload into the wire checksum, and
        // hand the bytes to the sink (the fleet fabric) if wired.
        for (uint32_t off = 0; off + 4 <= len; off += 4) {
            txChecksum_ ^= sram_.read32(bufAddr + off);
        }
        if (txSink_) {
            std::vector<uint8_t> wire(len);
            for (uint32_t off = 0; off < len; ++off) {
                wire[off] = sram_.read8(bufAddr + off);
            }
            txSink_(wire.data(), len);
        }
        sram_.write32(descAddr + 4, len | kDescDone);
        txTail_++;
        txPackets_++;
        txBytes_ += len;
        raise(kIrqTxDone);
    }
}

} // namespace cheriot::net
