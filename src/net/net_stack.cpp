#include "net/net_stack.h"

#include "mem/memory_map.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::net
{

using cap::Capability;
using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

namespace
{

/** Firewall parse budget on top of the per-word checksum loads. */
constexpr uint32_t kFirewallParseCyclesPerByte = 8;

/** Deterministic payload word for frame position @p i of frame
 * @p seq (the traffic generator and the ack builder share it). */
uint32_t
frameWord(uint32_t seq, uint32_t i)
{
    return (seq * 0x9e3779b9u) ^ (i * 0x85ebca6bu) ^ 0xc3a5c85cu;
}

} // namespace

std::vector<uint8_t>
buildFrame(uint32_t seq, uint32_t bytes)
{
    const uint32_t words = bytes < 8 ? 2 : (bytes + 3) / 4;
    std::vector<uint8_t> frame(words * 4);
    uint32_t checksum = 0;
    for (uint32_t i = 0; i < words; ++i) {
        // The final word balances the XOR of the whole frame to zero.
        const uint32_t word =
            i + 1 < words ? frameWord(seq, i) : checksum;
        checksum ^= word;
        frame[i * 4 + 0] = static_cast<uint8_t>(word);
        frame[i * 4 + 1] = static_cast<uint8_t>(word >> 8);
        frame[i * 4 + 2] = static_cast<uint8_t>(word >> 16);
        frame[i * 4 + 3] = static_cast<uint8_t>(word >> 24);
    }
    return frame;
}

NetCompartments
addNetCompartments(rtos::Kernel &kernel)
{
    NetCompartments parts;
    parts.nicWindow =
        kernel.loader().mmioCap(mem::kNicMmioBase, mem::kNicMmioSize);
    parts.driver = &kernel.createCompartment("net_driver");
    parts.driver->addMmioImport("nic", parts.nicWindow);
    parts.firewall = &kernel.createCompartment("firewall");
    return parts;
}

NetStack::NetStack(rtos::Kernel &kernel, NicDevice &nic,
                   const NetCompartments &compartments,
                   NetStackConfig config)
    : kernel_(kernel), nic_(nic), driver_(*compartments.driver),
      firewall_(*compartments.firewall),
      nicCap_(compartments.nicWindow), config_(config)
{
    if (config_.rxRingEntries == 0 || config_.txRingEntries == 0 ||
        config_.bufBytes < 16) {
        fatal("net: degenerate stack configuration");
    }
    if (config_.reliable &&
        (config_.arqWindow == 0 ||
         config_.arqWindow >= config_.arqDedupWindow)) {
        // The dedup span must exceed the in-flight span: a live
        // sender can then never push a fresh seq past the receiver's
        // window, so a far-ahead seq always means receiver restart.
        fatal("net: ARQ window must be positive and below the dedup "
              "window");
    }
}

uint32_t
NetStack::mmioRead(CompartmentContext &ctx, uint32_t reg)
{
    return ctx.mem.loadWord(nicCap_, nicCap_.base() + reg);
}

void
NetStack::mmioWrite(CompartmentContext &ctx, uint32_t reg,
                    uint32_t value)
{
    ctx.mem.storeWord(nicCap_, nicCap_.base() + reg, value);
}

void
NetStack::connect(const std::vector<NetConsumer> &consumers)
{
    consumers_ = consumers;
    const uint32_t pumpIndex = driver_.addExport(
        {"pump",
         [this](CompartmentContext &ctx, ArgVec &) {
             return pumpBody(ctx);
         },
         /*interruptsDisabled=*/false});
    const uint32_t txIndex = driver_.addExport(
        {"tx",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return txBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    const uint32_t processIndex = firewall_.addExport(
        {"process",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return processBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    const uint32_t sendIndex = firewall_.addExport(
        {"send",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return sendBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    const uint32_t serviceIndex = firewall_.addExport(
        {"service",
         [this](CompartmentContext &ctx, ArgVec &) {
             return serviceBody(ctx);
         },
         /*interruptsDisabled=*/false});
    pumpImport_ = kernel_.importOf(driver_, pumpIndex);
    txImport_ = kernel_.importOf(driver_, txIndex);
    processImport_ = kernel_.importOf(firewall_, processIndex);
    sendImport_ = kernel_.importOf(firewall_, sendIndex);
    serviceImport_ = kernel_.importOf(firewall_, serviceIndex);
    // Record the wiring in the audit manifest: the driver hands every
    // frame to the firewall, the firewall calls back into the driver
    // to transmit and fans admitted frames out to the consumers.
    driver_.addEntryImport(firewall_, "process");
    firewall_.addEntryImport(driver_, "tx");
    for (const auto &consumer : consumers_) {
        if (consumer.import.valid()) {
            firewall_.addEntryImport(*consumer.import.compartment,
                                     consumer.import.target().name);
        }
    }
}

void
NetStack::start(rtos::Thread &thread)
{
    rtos::GuestContext &g = kernel_.guest();
    rxSlots_.assign(config_.rxRingEntries, Capability());
    txSlots_.assign(config_.txRingEntries, Capability());

    rxRing_ = kernel_.malloc(thread,
                             config_.rxRingEntries * NicDevice::kDescBytes);
    txRing_ = kernel_.malloc(thread,
                             config_.txRingEntries * NicDevice::kDescBytes);
    if (!rxRing_.tag() || !txRing_.tag()) {
        fatal("net: descriptor ring allocation failed");
    }
    for (uint32_t i = 0; i < config_.txRingEntries; ++i) {
        g.storeWord(txRing_, txRing_.base() + i * NicDevice::kDescBytes,
                    0);
        g.storeWord(txRing_,
                    txRing_.base() + i * NicDevice::kDescBytes + 4, 0);
    }

    // Post one freshly allocated buffer per RX slot.
    for (uint32_t i = 0; i < config_.rxRingEntries; ++i) {
        const Capability buf = kernel_.malloc(thread, config_.bufBytes);
        if (!buf.tag()) {
            fatal("net: boot-time RX buffer allocation failed");
        }
        rxSlots_[i] = buf;
        const uint32_t descAddr =
            rxRing_.base() + i * NicDevice::kDescBytes;
        g.storeWord(rxRing_, descAddr, buf.base());
        g.storeWord(rxRing_, descAddr + 4,
                    config_.bufBytes & NicDevice::kDescLenMask);
    }
    rxPosted_ = config_.rxRingEntries;

    // Program the device: rings, the heap-bounded DMA window, enables.
    const uint32_t base = nicCap_.base();
    const uint32_t heapBase = kernel_.machine().heapBase();
    const uint32_t heapSize =
        kernel_.machine().machineConfig().heapSize;
    g.storeWord(nicCap_, base + NicDevice::kRegRxRingBase,
                rxRing_.base());
    g.storeWord(nicCap_, base + NicDevice::kRegRxRingCount,
                config_.rxRingEntries);
    g.storeWord(nicCap_, base + NicDevice::kRegTxRingBase,
                txRing_.base());
    g.storeWord(nicCap_, base + NicDevice::kRegTxRingCount,
                config_.txRingEntries);
    g.storeWord(nicCap_, base + NicDevice::kRegDmaBase, heapBase);
    g.storeWord(nicCap_, base + NicDevice::kRegDmaSize, heapSize);
    g.storeWord(nicCap_, base + NicDevice::kRegRxTail, rxPosted_);
    g.storeWord(nicCap_, base + NicDevice::kRegIrqEnable,
                NicDevice::kIrqRxPacket | NicDevice::kIrqRxOverflow |
                    NicDevice::kIrqTxDone | NicDevice::kIrqRxError);
    g.storeWord(nicCap_, base + NicDevice::kRegCtrl,
                NicDevice::kCtrlRxEnable | NicDevice::kCtrlTxEnable);
}

uint32_t
NetStack::pump(rtos::Thread &thread)
{
    const CallResult result = kernel_.call(thread, pumpImport_, {});
    if (config_.reliable) {
        kernel_.call(thread, serviceImport_, {});
    }
    return result.ok() ? result.value.address() : 0;
}

bool
NetStack::sendMessage(rtos::Thread &thread, uint32_t dst,
                      uint32_t payloadWords, uint32_t w0, uint32_t w1,
                      uint32_t w2, uint32_t w3)
{
    ArgVec args = ArgVec::of({Capability().withAddress(dst),
                              Capability().withAddress(payloadWords),
                              Capability().withAddress(w0),
                              Capability().withAddress(w1),
                              Capability().withAddress(w2),
                              Capability().withAddress(w3)});
    const CallResult result = kernel_.call(thread, sendImport_, args);
    return result.ok() && result.value.address() == 1;
}

bool
NetStack::sendUnreliable(rtos::Thread &thread, uint32_t dst,
                         uint32_t payloadWords, uint32_t w0,
                         uint32_t w1, uint32_t w2, uint32_t w3)
{
    ArgVec args = ArgVec::of(
        {Capability().withAddress(dst),
         Capability().withAddress(payloadWords | kSendUnreliableFlag),
         Capability().withAddress(w0), Capability().withAddress(w1),
         Capability().withAddress(w2), Capability().withAddress(w3)});
    const CallResult result = kernel_.call(thread, sendImport_, args);
    return result.ok() && result.value.address() == 1;
}

CallResult
NetStack::pumpBody(CompartmentContext &ctx)
{
    // Driver activation frame (ISR bookkeeping spilled to the stack).
    const Capability frame = ctx.stackAlloc(64);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    // Acknowledge the level-triggered interrupt before draining.
    const uint32_t status = mmioRead(ctx, NicDevice::kRegIrqStatus);
    if (status != 0) {
        mmioWrite(ctx, NicDevice::kRegIrqStatus, status);
    }

    uint32_t accepted = 0;
    const uint32_t head = mmioRead(ctx, NicDevice::kRegRxHead);
    while (rxConsumed_ != head) {
        const uint32_t slot = rxConsumed_ % config_.rxRingEntries;
        const uint32_t descAddr =
            rxRing_.base() + slot * NicDevice::kDescBytes;
        const uint32_t w0 = ctx.mem.loadWord(rxRing_, descAddr);
        const uint32_t w1 = ctx.mem.loadWord(rxRing_, descAddr + 4);
        if ((w1 & NicDevice::kDescDone) == 0) {
            break; // Device has not filled this slot yet.
        }
        const Capability buf = rxSlots_[slot];
        const uint32_t len = w1 & NicDevice::kDescLenMask;
        bool deliverable = true;
        if (!buf.tag()) {
            ringCorruptionsDetected_++;
            deliverable = false;
        } else if ((w1 & NicDevice::kDescError) != 0) {
            rxErrorsSeen_++;
            deliverable = false;
        } else if (w0 != buf.base() || len < 8 || (len & 3) != 0 ||
                   len > config_.bufBytes) {
            // Descriptor bytes are device-written data with no
            // authority: the slot table is the ground truth, and a
            // mismatch means the ring was corrupted. The packet is
            // lost; nothing is dereferenced through the bad bytes.
            ringCorruptionsDetected_++;
            deliverable = false;
        }
        if (deliverable) {
            // Zero-copy lend: bounded to the landed frame, Global
            // stripped so the firewall can hold it only in registers
            // and on the wiped stack.
            Capability lent =
                buf.withAddress(buf.base()).withBounds(len);
            if (!lent.tag()) {
                lent = buf;
            }
            lent = lent.withPermsAnd(
                static_cast<uint16_t>(~cap::PermGlobal));
            ArgVec fwArgs = ArgVec::of(
                {lent, Capability().withAddress(len)});
            const CallResult handled =
                ctx.kernel.call(ctx.thread, processImport_, fwArgs);
            if (handled.ok() && handled.value.address() == 1) {
                accepted++;
                packetsAccepted_++;
                bytesAccepted_ += len;
            } else if (!handled.ok()) {
                consumerRejects_++;
            }
        }
        if (buf.tag()) {
            // Release the driver's ownership. If the firewall (or a
            // consumer beyond it) still holds a claim, the memory
            // stays live; the last release quarantines it.
            ctx.kernel.free(ctx.thread, buf);
        }
        rxSlots_[slot] = Capability();
        rxConsumed_++;
        pendingRefills_++;
    }

    // Repost consumed slots. A refill timeout leaves the ring short —
    // the NIC drops until the heap recovers: physical backpressure.
    while (pendingRefills_ > 0) {
        if (refillOne(ctx) != RefillResult::Ok) {
            refillFailures_++;
            refillTimeouts_++;
            break;
        }
        pendingRefills_--;
    }
    mmioWrite(ctx, NicDevice::kRegRxTail, rxPosted_);

    reapTx(ctx);
    return CallResult::ofInt(accepted);
}

NetStack::RefillResult
NetStack::refillOne(CompartmentContext &ctx)
{
    // Bounded wait, the MessageQueueService discipline: retry the
    // exhausted heap with doubling backoff, then yield with a *typed*
    // timeout instead of blocking the pump forever. The ring stays
    // short and the NIC's drop counter carries the backpressure.
    uint64_t waited = 0;
    uint32_t backoff = kRefillBackoffStartCycles;
    for (;;) {
        const Capability buf =
            ctx.kernel.malloc(ctx.thread, config_.bufBytes);
        if (buf.tag()) {
            const uint32_t slot = rxPosted_ % config_.rxRingEntries;
            const uint32_t descAddr =
                rxRing_.base() + slot * NicDevice::kDescBytes;
            rxSlots_[slot] = buf;
            ctx.mem.storeWord(rxRing_, descAddr, buf.base());
            ctx.mem.storeWord(rxRing_, descAddr + 4,
                              config_.bufBytes &
                                  NicDevice::kDescLenMask);
            rxPosted_++;
            return RefillResult::Ok;
        }
        if (waited >= config_.refillTimeoutCycles) {
            return RefillResult::Timeout;
        }
        ctx.mem.chargeExecution(backoff);
        waited += backoff;
        backoff = std::min(backoff * 2, kRefillBackoffCapCycles);
    }
}

void
NetStack::reapTx(CompartmentContext &ctx)
{
    const uint32_t tail = mmioRead(ctx, NicDevice::kRegTxTail);
    while (txReaped_ != tail) {
        const uint32_t slot = txReaped_ % config_.txRingEntries;
        if (txSlots_[slot].tag()) {
            // Transmit done: release the claim taken at post time.
            ctx.kernel.free(ctx.thread, txSlots_[slot]);
            txCompleted_++;
        }
        txSlots_[slot] = Capability();
        txReaped_++;
    }
}

CallResult
NetStack::txBody(CompartmentContext &ctx, ArgVec &args)
{
    const Capability frame = ctx.stackAlloc(48);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    reapTx(ctx); // Recycle completed slots before checking capacity.
    const Capability buf = args[0];
    const uint32_t len = args[1].address();
    if (!buf.tag() || len < 8 || (len & 3) != 0 ||
        len > NicDevice::kDescLenMask ||
        txPosted_ - txReaped_ >= config_.txRingEntries) {
        return CallResult::ofInt(0); // Busy or refused.
    }
    // Claim keeps the caller's buffer alive until transmit completes,
    // however quickly the caller frees its own reference.
    if (ctx.kernel.claim(ctx.thread, buf) !=
        alloc::HeapAllocator::FreeResult::Ok) {
        return CallResult::ofInt(0);
    }
    const uint32_t slot = txPosted_ % config_.txRingEntries;
    const uint32_t descAddr =
        txRing_.base() + slot * NicDevice::kDescBytes;
    txSlots_[slot] = buf;
    ctx.mem.storeWord(txRing_, descAddr, buf.base());
    ctx.mem.storeWord(txRing_, descAddr + 4, len);
    txPosted_++;
    mmioWrite(ctx, NicDevice::kRegTxHead, txPosted_);
    mmioWrite(ctx, NicDevice::kRegTxKick, 1);
    return CallResult::ofInt(1);
}

CallResult
NetStack::fanOut(CompartmentContext &ctx, const Capability &payload,
                 uint32_t len)
{
    // Mutating consumers (TLS decrypts records in place) keep the
    // writable view; everyone else sees read-only, non-capability
    // memory.
    const Capability readOnly = payload.withPermsAnd(
        static_cast<uint16_t>(~(cap::PermStore | cap::PermStoreLocal |
                                cap::PermMemCap)));
    for (const auto &consumer : consumers_) {
        ArgVec consumerArgs = ArgVec::of(
            {consumer.mutates ? payload : readOnly,
             Capability().withAddress(len)});
        const CallResult result =
            ctx.kernel.call(ctx.thread, consumer.import, consumerArgs);
        if (!result.ok()) {
            return result;
        }
    }
    return CallResult::ofInt(1);
}

CallResult
NetStack::processBody(CompartmentContext &ctx, ArgVec &args)
{
    const Capability frame = ctx.stackAlloc(64);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    const Capability payload = args[0];
    const uint32_t len = args[1].address();
    if (!payload.tag() || len < 8 || (len & 3) != 0 ||
        payload.length() < len) {
        parseDrops_++;
        return CallResult::ofInt(0);
    }
    // heap_claim: from here the buffer outlives the driver's free.
    if (ctx.kernel.claim(ctx.thread, payload) !=
        alloc::HeapAllocator::FreeResult::Ok) {
        parseDrops_++;
        return CallResult::ofInt(0);
    }

    // Frame integrity: the XOR of every payload word must balance to
    // zero (the generator's trailing checksum word ensures it). This
    // is where a link-corrupted frame dies: still untrusted bytes,
    // before the ARQ layer or any consumer capability touches it.
    uint32_t checksum = 0;
    for (uint32_t off = 0; off < len; off += 4) {
        checksum ^= ctx.mem.loadWord(payload, payload.base() + off);
    }
    ctx.mem.chargeExecution(len * kFirewallParseCyclesPerByte);
    if (checksum != 0) {
        parseDrops_++;
        ctx.kernel.free(ctx.thread, payload);
        return CallResult::ofInt(0);
    }

    if (config_.reliable) {
        if (len < kFleetMinFrameBytes) {
            parseDrops_++;
            ctx.kernel.free(ctx.thread, payload);
            return CallResult::ofInt(0);
        }
        return handleReliable(ctx, payload, len);
    }

    const CallResult consumed = fanOut(ctx, payload, len);
    if (!consumed.ok()) {
        ctx.kernel.free(ctx.thread, payload);
        return consumed; // Propagate: the driver drops the packet.
    }

    // Ack every Nth accepted packet: the TX half of the claim
    // contract — the driver claims the ack buffer, we free our own
    // reference immediately, and the memory lives until transmit
    // completes.
    if (config_.ackEveryN != 0 && ++ackCountdown_ >= config_.ackEveryN) {
        ackCountdown_ = 0;
        const Capability ack =
            ctx.kernel.malloc(ctx.thread, config_.ackBytes);
        if (ack.tag()) {
            const uint32_t words = config_.ackBytes / 4;
            uint32_t ackSum = 0;
            for (uint32_t i = 0; i + 1 < words; ++i) {
                const uint32_t word = frameWord(0xacu, i);
                ackSum ^= word;
                ctx.mem.storeWord(ack, ack.base() + i * 4, word);
            }
            ctx.mem.storeWord(ack, ack.base() + (words - 1) * 4, ackSum);
            ArgVec txArgs = ArgVec::of(
                {ack, Capability().withAddress(config_.ackBytes)});
            const CallResult sent =
                ctx.kernel.call(ctx.thread, txImport_, txArgs);
            if (sent.ok() && sent.value.address() == 1) {
                acksSent_++;
            }
            ctx.kernel.free(ctx.thread, ack);
        }
    }

    // Release the claim: the driver's free is now the last reference.
    ctx.kernel.free(ctx.thread, payload);
    return CallResult::ofInt(1);
}

bool
NetStack::postFrame(CompartmentContext &ctx, const Capability &buf,
                    uint32_t len)
{
    ArgVec txArgs =
        ArgVec::of({buf, Capability().withAddress(len)});
    const CallResult sent =
        ctx.kernel.call(ctx.thread, txImport_, txArgs);
    return sent.ok() && sent.value.address() == 1;
}

void
NetStack::sendControl(CompartmentContext &ctx, uint32_t dst,
                      FleetFrameType type, uint32_t seq)
{
    const Capability buf =
        ctx.kernel.malloc(ctx.thread, kFleetMinFrameBytes);
    if (!buf.tag()) {
        return; // Lost control frame: the ARQ retransmit absorbs it.
    }
    const uint32_t words[kFleetHeaderWords] = {
        dst, config_.localMac, static_cast<uint32_t>(type), seq};
    uint32_t checksum = 0;
    for (uint32_t i = 0; i < kFleetHeaderWords; ++i) {
        checksum ^= words[i];
        ctx.mem.storeWord(buf, buf.base() + i * 4, words[i]);
    }
    ctx.mem.storeWord(buf, buf.base() + kFleetHeaderWords * 4,
                      checksum);
    // The tx claim carries the frame through transmit; our reference
    // goes away now either way.
    postFrame(ctx, buf, kFleetMinFrameBytes);
    ctx.kernel.free(ctx.thread, buf);
}

CallResult
NetStack::handleReliable(CompartmentContext &ctx,
                         const Capability &payload, uint32_t len)
{
    const uint32_t base = payload.base();
    const uint32_t dst = ctx.mem.loadWord(payload, base);
    const uint32_t src = ctx.mem.loadWord(payload, base + 4);
    const uint32_t type = ctx.mem.loadWord(payload, base + 8);
    const uint32_t seq = ctx.mem.loadWord(payload, base + 12);

    if (dst != config_.localMac || src == config_.localMac) {
        // Flooded (unlearned MAC) or reflected traffic: not ours.
        wrongDest_++;
        ctx.kernel.free(ctx.thread, payload);
        return CallResult::ofInt(0);
    }

    // Firewall admission: rule lookup, rate limiting and in-flight
    // accounting happen *before* any ARQ state is touched, so a
    // rejected frame costs the stack nothing but the strike
    // bookkeeping against its source.
    bool inflightCharged = false;
    if (config_.firewall.admission) {
        const uint32_t flowClass = frameFlowClass(ctx, payload, len);
        const AdmitResult admit = admitFrame(ctx, src, type, len,
                                             flowClass,
                                             &inflightCharged);
        if (admit != AdmitResult::Ok) {
            ctx.kernel.free(ctx.thread, payload);
            return CallResult::ofInt(0);
        }
    }

    const uint64_t now = ctx.kernel.machine().cycles();
    ArqPeer &peer = peers_[src];
    peer.lastHeard = now;
    if (peer.dead) {
        // Heard from a presumed-dead peer: rejoin. Pending frames
        // restart their retransmit schedule from scratch; the backlog
        // drains on the next service pass.
        peer.dead = false;
        arqRejoins_++;
        for (ArqMessage &msg : peer.pending) {
            msg.retries = 0;
            msg.rto = config_.arqRtoStartCycles;
            msg.nextRetry = now;
        }
    }

    switch (static_cast<FleetFrameType>(type)) {
      case FleetFrameType::Ack: {
        arqAcksReceived_++;
        for (auto it = peer.pending.begin(); it != peer.pending.end();
             ++it) {
            if (it->seq == seq) {
                // Delivered: drop the sender's retransmit reference.
                retxHistogram_[std::min(it->retries,
                                        kRetxHistogramBuckets - 1)]++;
                ctx.kernel.free(ctx.thread, it->buf);
                peer.pending.erase(it);
                break;
            }
        }
        ctx.kernel.free(ctx.thread, payload);
        return CallResult::ofInt(1);
      }
      case FleetFrameType::Probe: {
        // Alive echo: an ack no data seq will ever match, so it only
        // updates liveness (kFleetBroadcast is never a data seq).
        sendControl(ctx, src, FleetFrameType::Ack, kFleetBroadcast);
        arqAcksSent_++;
        ctx.kernel.free(ctx.thread, payload);
        return CallResult::ofInt(1);
      }
      case FleetFrameType::Data: {
        bool fresh;
        const uint32_t epoch = seq >> 24;
        bool staleEpoch = false;
        if (epoch != peer.rxEpoch) {
            // Epochs are incarnation counters, so only ever move the
            // window *forward* (serial arithmetic on the 8-bit
            // epoch). Frames from a superseded incarnation can still
            // be in flight — delayed or duplicated by the fabric —
            // after a restart; regressing the window for them would
            // wipe the new epoch's delivery history and turn its
            // undelivered messages into "stale duplicates".
            if (((epoch - peer.rxEpoch) & 0xffu) < 0x80u) {
                // New sender incarnation: restart the dedup window at
                // the new epoch's *origin*, not at this frame — the
                // first frame to arrive may be a reordered later one,
                // and its undelivered predecessors must still
                // classify as fresh below.
                peer.rxEpoch = epoch;
                peer.rxSeen.clear();
                peer.rxBase = epoch << 24;
            } else {
                staleEpoch = true; // Dead incarnation: ack, no deliver.
                if (config_.firewall.admission) {
                    // Replaying a superseded incarnation is a
                    // signature rogue move, not normal reordering at
                    // this volume: it strikes.
                    fwStaleEpochs_++;
                    if (strikeDevice(src)) {
                        // The quarantining strike. No ack — the
                        // device is dead to us — and the ARQ purge
                        // invalidates `peer`, so the frame dies here.
                        if (inflightCharged) {
                            creditInflight(src, len);
                        }
                        ctx.kernel.free(ctx.thread, payload);
                        purgePeer(ctx.thread, src);
                        return CallResult::ofInt(0);
                    }
                }
            }
        }
        if (staleEpoch) {
            fresh = false;
        } else if (const uint32_t ahead = seq - peer.rxBase;
                   ahead < config_.arqDedupWindow) {
            // Serial-number arithmetic within the epoch: `ahead` and
            // `behind` are modular distances from the delivery base.
            // A live sender stays within the dedup window ahead
            // (in-flight span < window), link duplicates land within
            // it behind, and anything outside both horizons restarts
            // the window.
            if (peer.rxSeen.count(seq) != 0) {
                fresh = false;
            } else {
                peer.rxSeen.insert(seq);
                while (peer.rxSeen.count(peer.rxBase) != 0) {
                    peer.rxSeen.erase(peer.rxBase);
                    peer.rxBase++;
                }
                fresh = true;
            }
        } else if (peer.rxBase - seq <= config_.arqDedupWindow) {
            // Recently delivered: a duplicate or a retransmission
            // that crossed its own ack.
            fresh = false;
        } else {
            peer.rxSeen.clear();
            peer.rxBase = seq + 1;
            fresh = true;
        }
        // Ack duplicates too: the first ack may have been eaten by
        // the link, and only a fresh ack stops the retransmissions.
        sendControl(ctx, src, FleetFrameType::Ack, seq);
        arqAcksSent_++;
        if (!fresh) {
            arqDuplicatesDropped_++;
            if (inflightCharged) {
                creditInflight(src, len);
            }
            ctx.kernel.free(ctx.thread, payload);
            return CallResult::ofInt(0);
        }
        const CallResult consumed = fanOut(ctx, payload, len);
        if (inflightCharged) {
            // The admission charge covered the frame's walk through
            // the stack; any residency beyond this point (broker
            // queues) is charged separately by the holder.
            creditInflight(src, len);
        }
        ctx.kernel.free(ctx.thread, payload);
        if (!consumed.ok()) {
            return consumed;
        }
        arqDelivered_++;
        return CallResult::ofInt(1);
      }
      case FleetFrameType::Unreliable: {
        // No sequencing, no ack, no dedup: every copy the fabric
        // produced fans out. Only idempotent traffic belongs here.
        const CallResult consumed = fanOut(ctx, payload, len);
        if (inflightCharged) {
            creditInflight(src, len);
        }
        ctx.kernel.free(ctx.thread, payload);
        if (!consumed.ok()) {
            return consumed;
        }
        unreliableDelivered_++;
        return CallResult::ofInt(1);
      }
      default:
        parseDrops_++;
        ctx.kernel.free(ctx.thread, payload);
        return CallResult::ofInt(0);
    }
}

CallResult
NetStack::sendBody(CompartmentContext &ctx, ArgVec &args)
{
    const Capability frame = ctx.stackAlloc(48);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    const uint32_t dst = args[0].address();
    const uint32_t rawWords = args[1].address();
    const bool unreliable = (rawWords & kSendUnreliableFlag) != 0;
    const uint32_t payloadWords =
        std::max(rawWords & ~kSendUnreliableFlag, 2u);
    const uint32_t w0 = args[2].address();
    const uint32_t w1 = args[3].address();
    const uint32_t w2 = args[4].address();
    const uint32_t w3 = args[5].address();
    const uint32_t len = (kFleetHeaderWords + payloadWords + 1) * 4;
    if (!config_.reliable || dst == config_.localMac ||
        dst == kFleetBroadcast || len > config_.bufBytes) {
        arqSendDrops_++;
        return CallResult::ofInt(0);
    }
    if (config_.firewall.admission && deviceQuarantined(dst)) {
        // Shun on TX too: a reliable frame toward a quarantined
        // device would rebuild the retransmit state the purge just
        // removed, and no ack will ever clear it.
        fwQuarantineDrops_++;
        return CallResult::ofInt(0);
    }

    const auto build = [&](const Capability &buf, FleetFrameType type,
                           uint32_t seq) {
        const uint32_t header[kFleetHeaderWords] = {
            dst, config_.localMac, static_cast<uint32_t>(type), seq};
        uint32_t checksum = 0;
        uint32_t index = 0;
        const auto put = [&](uint32_t word) {
            checksum ^= word;
            ctx.mem.storeWord(buf, buf.base() + index * 4, word);
            index++;
        };
        for (uint32_t i = 0; i < kFleetHeaderWords; ++i) {
            put(header[i]);
        }
        for (uint32_t i = 0; i < payloadWords; ++i) {
            put(i == 0   ? w0
                : i == 1 ? w1
                : i == 2 ? w2
                : i == 3 ? w3
                         : frameWord(w1, i));
        }
        ctx.mem.storeWord(buf, buf.base() + index * 4, checksum);
    };

    if (unreliable) {
        // Fire-and-forget: one posted copy, no sequence, no peer
        // state — losing it must be acceptable to the caller.
        const Capability buf = ctx.kernel.malloc(ctx.thread, len);
        if (!buf.tag()) {
            arqSendDrops_++;
            return CallResult::ofInt(0);
        }
        build(buf, FleetFrameType::Unreliable, 0);
        const bool posted = postFrame(ctx, buf, len);
        ctx.kernel.free(ctx.thread, buf);
        return CallResult::ofInt(posted ? 1 : 0);
    }

    ArqPeer &peer = peers_[dst];
    const bool windowOpen = !peer.dead && peer.backlog.empty() &&
                            peer.pending.size() < config_.arqWindow;
    if (!windowOpen && peer.backlog.size() >= config_.arqBacklogMax) {
        // Local-buffering mode is bounded; beyond it the send is
        // refused and the caller sees the drop.
        arqSendDrops_++;
        return CallResult::ofInt(0);
    }

    const Capability buf = ctx.kernel.malloc(ctx.thread, len);
    if (!buf.tag()) {
        arqSendDrops_++;
        return CallResult::ofInt(0);
    }
    ArqMessage msg;
    // The epoch (sender incarnation) rides in the sequence high byte:
    // a receiver distinguishes "restarted sender, fresh seq 0" from
    // "stale duplicate" by epoch, not by guessing from distance.
    msg.seq = ((config_.arqEpoch & 0xffu) << 24) |
              (peer.nextSeq++ & 0xffffffu);
    msg.buf = buf;
    msg.len = len;
    build(buf, FleetFrameType::Data, msg.seq);

    if (windowOpen) {
        const uint64_t now = ctx.kernel.machine().cycles();
        msg.sentAt = now;
        msg.rto = config_.arqRtoStartCycles;
        msg.nextRetry = now + msg.rto;
        postFrame(ctx, buf, len); // Busy tx: the retry timer covers it.
        arqSent_++;
        peer.pending.push_back(msg);
    } else {
        peer.backlog.push_back(msg);
    }
    return CallResult::ofInt(1);
}

CallResult
NetStack::serviceBody(CompartmentContext &ctx)
{
    const Capability frame = ctx.stackAlloc(48);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);
    if (!config_.reliable) {
        return CallResult::ofInt(0);
    }

    const uint64_t now = ctx.kernel.machine().cycles();
    for (auto &[mac, peer] : peers_) {
        // Flush the backlog into the window while there is room.
        while (!peer.dead && !peer.backlog.empty() &&
               peer.pending.size() < config_.arqWindow) {
            ArqMessage msg = peer.backlog.front();
            peer.backlog.pop_front();
            msg.sentAt = now;
            msg.rto = config_.arqRtoStartCycles;
            msg.nextRetry = now + msg.rto;
            postFrame(ctx, msg.buf, msg.len);
            arqSent_++;
            peer.pending.push_back(msg);
        }
        if (peer.dead) {
            if (now >= peer.nextProbe) {
                sendControl(ctx, mac, FleetFrameType::Probe,
                            peer.rxBase);
                arqProbesSent_++;
                peer.nextProbe = now + config_.arqProbeIntervalCycles;
            }
            continue;
        }
        // Retransmit expired in-flight frames with doubling backoff;
        // past the retry budget the peer is presumed dead and the
        // destination degrades to local buffering + probes.
        for (ArqMessage &msg : peer.pending) {
            if (now < msg.nextRetry) {
                continue;
            }
            if (msg.retries >= config_.arqMaxRetries) {
                peer.dead = true;
                arqPeerDeaths_++;
                peer.nextProbe = now + config_.arqProbeIntervalCycles;
                break;
            }
            postFrame(ctx, msg.buf, msg.len);
            arqRetransmits_++;
            msg.retries++;
            msg.rto = std::min(msg.rto * 2, config_.arqRtoCapCycles);
            msg.nextRetry = now + msg.rto;
        }
    }
    return CallResult::ofInt(0);
}

bool
NetStack::peerKnown(uint32_t mac) const
{
    return peers_.count(mac) != 0;
}

bool
NetStack::peerDead(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it != peers_.end() && it->second.dead;
}

uint32_t
NetStack::peerPending(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it == peers_.end()
               ? 0
               : static_cast<uint32_t>(it->second.pending.size());
}

uint32_t
NetStack::peerBacklog(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it == peers_.end()
               ? 0
               : static_cast<uint32_t>(it->second.backlog.size());
}

uint64_t
NetStack::peerRto(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it == peers_.end() || it->second.pending.empty()
               ? 0
               : it->second.pending.front().rto;
}

uint32_t
NetStack::peerRetries(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it == peers_.end() || it->second.pending.empty()
               ? 0
               : it->second.pending.front().retries;
}

uint32_t
NetStack::peerRxBase(uint32_t mac) const
{
    const auto it = peers_.find(mac);
    return it == peers_.end() ? 0 : it->second.rxBase;
}

std::vector<uint32_t>
NetStack::peerMacs() const
{
    std::vector<uint32_t> macs;
    macs.reserve(peers_.size());
    for (const auto &[mac, peer] : peers_) {
        macs.push_back(mac);
    }
    return macs;
}

std::vector<uint64_t>
NetStack::retxHistogram() const
{
    return std::vector<uint64_t>(retxHistogram_,
                                 retxHistogram_ +
                                     kRetxHistogramBuckets);
}

NetStack::FwDevice &
NetStack::fwDeviceFor(uint32_t src, uint32_t flowClass)
{
    const auto it = fwDevices_.find(src);
    if (it != fwDevices_.end()) {
        return it->second;
    }
    // First contact binds the device to the first matching rule; its
    // in-flight ledger entry is minted against that rule's ceiling.
    FwDevice dev;
    for (size_t i = 0; i < config_.firewall.rules.size(); ++i) {
        const FirewallRule &rule = config_.firewall.rules[i];
        if ((rule.srcMac == 0 || rule.srcMac == src) &&
            (rule.flowClass == 0xff || rule.flowClass == flowClass)) {
            dev.rule = static_cast<int32_t>(i);
            dev.tokens256 =
                static_cast<uint64_t>(rule.burstFrames) * 256;
            dev.quota = fwLedger_.create(rule.maxInflightBytes);
            break;
        }
    }
    return fwDevices_.emplace(src, dev).first->second;
}

bool
NetStack::strikeDevice(uint32_t src)
{
    const auto it = fwDevices_.find(src);
    if (it == fwDevices_.end()) {
        return false;
    }
    FwDevice &dev = it->second;
    fwStrikes_++;
    dev.strikes++;
    if (!dev.quarantined &&
        dev.strikes >= config_.firewall.strikeBudget) {
        dev.quarantined = true;
        fwQuarantines_++;
        return true;
    }
    return false;
}

void
NetStack::purgePeer(rtos::Thread &thread, uint32_t src)
{
    const auto it = peers_.find(src);
    if (it == peers_.end()) {
        return;
    }
    for (ArqMessage &msg : it->second.pending) {
        kernel_.free(thread, msg.buf);
    }
    for (ArqMessage &msg : it->second.backlog) {
        kernel_.free(thread, msg.buf);
    }
    peers_.erase(it);
}

void
NetStack::quarantineMac(rtos::Thread &thread, uint32_t mac)
{
    FwDevice &dev = fwDeviceFor(mac, 0);
    if (!dev.quarantined) {
        dev.quarantined = true;
        fwQuarantines_++;
    }
    purgePeer(thread, mac);
}

uint32_t
NetStack::frameFlowClass(CompartmentContext &ctx,
                         const Capability &payload, uint32_t len)
{
    if (len < (kFleetHeaderWords + 2) * 4) {
        return 0;
    }
    const uint32_t w0 =
        ctx.mem.loadWord(payload, payload.base() + kFleetHeaderBytes);
    return isFlowHeaderWord(w0) ? (w0 & 0xffu) : 0;
}

NetStack::AdmitResult
NetStack::admitFrame(CompartmentContext &ctx, uint32_t src,
                     uint32_t type, uint32_t len, uint32_t flowClass,
                     bool *inflightCharged)
{
    *inflightCharged = false;
    FwDevice &dev = fwDeviceFor(src, flowClass);
    if (dev.quarantined) {
        fwQuarantineDrops_++;
        return AdmitResult::Quarantined;
    }
    // A checksum-valid frame with a nonsense type is deliberate
    // garbage, not line noise (noise dies at the checksum).
    if (type < static_cast<uint32_t>(FleetFrameType::Data) ||
        type > static_cast<uint32_t>(FleetFrameType::Unreliable)) {
        fwMalformed_++;
        if (strikeDevice(src)) {
            purgePeer(ctx.thread, src);
        }
        return AdmitResult::Malformed;
    }
    if (dev.rule < 0) {
        if (config_.firewall.defaultDeny) {
            if (strikeDevice(src)) {
                purgePeer(ctx.thread, src);
            }
            return AdmitResult::NoRule;
        }
        fwAdmitted_++;
        return AdmitResult::Ok; // Open (unmetered) by default.
    }
    const FirewallRule &rule =
        config_.firewall.rules[static_cast<size_t>(dev.rule)];
    if (len > rule.maxFrameBytes) {
        fwOversized_++;
        if (strikeDevice(src)) {
            purgePeer(ctx.thread, src);
        }
        return AdmitResult::Oversized;
    }
    const bool carriesPayload =
        type == static_cast<uint32_t>(FleetFrameType::Data) ||
        type == static_cast<uint32_t>(FleetFrameType::Unreliable);
    if (carriesPayload) {
        // Token bucket: rate is per 1024 cycles in 1/256-frame units;
        // acks and probes are protocol echoes and stay unmetered.
        const uint64_t now = ctx.kernel.machine().cycles();
        if (now > dev.lastRefill) {
            const uint64_t cap =
                static_cast<uint64_t>(rule.burstFrames) * 256;
            dev.tokens256 += (now - dev.lastRefill) *
                             rule.ratePer1KCycles256 / 1024;
            dev.tokens256 = std::min(dev.tokens256, cap);
            dev.lastRefill = now;
        }
        if (dev.tokens256 < 256) {
            fwRateLimited_++;
            if (strikeDevice(src)) {
                purgePeer(ctx.thread, src);
            }
            return AdmitResult::RateLimited;
        }
        dev.tokens256 -= 256;
        if (!fwLedger_.charge(dev.quota, len)) {
            fwInflightDenied_++;
            if (strikeDevice(src)) {
                purgePeer(ctx.thread, src);
            }
            return AdmitResult::InflightExceeded;
        }
        *inflightCharged = true;
    }
    fwAdmitted_++;
    return AdmitResult::Ok;
}

bool
NetStack::chargeInflight(uint32_t srcMac, uint64_t bytes)
{
    const auto it = fwDevices_.find(srcMac);
    if (it == fwDevices_.end() ||
        it->second.quota == alloc::kUnmeteredQuota) {
        return true;
    }
    return fwLedger_.charge(it->second.quota, bytes);
}

void
NetStack::creditInflight(uint32_t srcMac, uint64_t bytes)
{
    const auto it = fwDevices_.find(srcMac);
    if (it == fwDevices_.end() ||
        it->second.quota == alloc::kUnmeteredQuota) {
        return;
    }
    fwLedger_.credit(it->second.quota, bytes);
}

uint32_t
NetStack::deviceStrikes(uint32_t mac) const
{
    const auto it = fwDevices_.find(mac);
    return it == fwDevices_.end() ? 0 : it->second.strikes;
}

bool
NetStack::deviceQuarantined(uint32_t mac) const
{
    const auto it = fwDevices_.find(mac);
    return it != fwDevices_.end() && it->second.quarantined;
}

std::vector<uint32_t>
NetStack::quarantinedMacs() const
{
    std::vector<uint32_t> macs;
    for (const auto &[mac, dev] : fwDevices_) {
        if (dev.quarantined) {
            macs.push_back(mac);
        }
    }
    return macs;
}

bool
NetStack::arqIdle() const
{
    for (const auto &[mac, peer] : peers_) {
        if (!peer.pending.empty() || !peer.backlog.empty()) {
            return false;
        }
    }
    return true;
}

} // namespace cheriot::net
