#include "net/broker.h"

#include "fault/fault_injector.h"
#include "net/fleet_frame.h"
#include "rtos/kernel.h"

#include <algorithm>

namespace cheriot::net
{

using cap::Capability;
using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

BrokerCompartment
addBrokerCompartment(rtos::Kernel &kernel)
{
    BrokerCompartment parts;
    parts.broker = &kernel.createCompartment("telemetry_broker");
    return parts;
}

TelemetryBroker::TelemetryBroker(rtos::Kernel &kernel,
                                 const BrokerCompartment &parts,
                                 BrokerConfig config)
    : kernel_(kernel), compartment_(*parts.broker), config_(config)
{
    if (config_.queueDepth == 0) {
        config_.queueDepth = 1;
    }
    // Canary + srcMac + class + two application words.
    if (config_.recordBytes < 20) {
        config_.recordBytes = 20;
    }
}

void
TelemetryBroker::connect()
{
    allocCap_ = kernel_.mintAllocatorCapability(compartment_,
                                                config_.heapQuotaBytes);
    const uint32_t ingestIndex = compartment_.addExport(
        {"ingest",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return ingestBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    ingestImport_ = {&compartment_, ingestIndex};
    const uint32_t pollIndex = compartment_.addExport(
        {"poll",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return pollBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    pollImport_ = {&compartment_, pollIndex};
}

uint32_t
TelemetryBroker::subscribe(uint8_t classMask)
{
    Subscriber sub;
    sub.classMask = classMask;
    subscribers_.push_back(std::move(sub));
    return static_cast<uint32_t>(subscribers_.size() - 1);
}

uint32_t
TelemetryBroker::mix(uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7feb352du;
    x ^= x >> 15;
    x *= 0x846ca68bu;
    x ^= x >> 16;
    return x;
}

uint32_t
TelemetryBroker::canaryOf(uint32_t srcMac, uint8_t cls, uint32_t w0,
                          uint32_t w1) const
{
    return mix(srcMac ^ (static_cast<uint32_t>(cls) << 24) ^
               mix(w0 ^ (w1 * 0x9e3779b9u)) ^ 0xB40CE2u);
}

void
TelemetryBroker::releaseEntry(CompartmentContext &ctx, const Entry &e)
{
    // One claim released per queue copy; the allocator quarantines
    // the record on the *last* release (the lending contract).
    ctx.kernel.free(ctx.thread, e.rec);
    if (credit_) {
        credit_(e.srcMac, config_.recordBytes);
    }
    heapBytesLive_ -= std::min<uint64_t>(heapBytesLive_,
                                         config_.recordBytes);
}

bool
TelemetryBroker::shedLowerClass(CompartmentContext &ctx,
                                Subscriber &sub, uint8_t cls)
{
    // Oldest record of the lowest class strictly below the incoming
    // one; control (the highest class) is never a shed victim.
    size_t victim = sub.queue.size();
    uint8_t victimCls = cls;
    for (size_t i = 0; i < sub.queue.size(); ++i) {
        if (sub.queue[i].cls < victimCls) {
            victim = i;
            victimCls = sub.queue[i].cls;
        }
    }
    if (victim >= sub.queue.size()) {
        return false;
    }
    releaseEntry(ctx, sub.queue[victim]);
    shedByClass_[victimCls < kClassCount ? victimCls : 0]++;
    sub.queue.erase(sub.queue.begin() + static_cast<long>(victim));
    return true;
}

CallResult
TelemetryBroker::ingestBody(CompartmentContext &ctx, ArgVec &args)
{
    // Broker activation frame.
    const Capability frame = ctx.stackAlloc(64);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    const Capability payload = args[0];
    const uint32_t len = args[1].address();
    // Fleet header + flow header + flow arg + two app words + checksum.
    const uint32_t minLen = (kFleetHeaderWords + 4 + 1) * 4;
    if (!payload.tag() || len < minLen || payload.length() < len) {
        return CallResult::ofInt(0);
    }
    const uint32_t base = payload.base();
    const uint32_t src = ctx.mem.loadWord(payload, base + 4);
    const uint32_t flowHdr =
        ctx.mem.loadWord(payload, base + kFleetHeaderBytes);
    if (!isFlowHeaderWord(flowHdr)) {
        return CallResult::ofInt(0);
    }
    // A lying class byte gets the *lowest* priority, not the highest.
    uint8_t cls = static_cast<uint8_t>(flowHdr);
    if (cls >= kClassCount) {
        cls = 0;
    }
    const uint32_t w0 =
        ctx.mem.loadWord(payload, base + kFleetHeaderBytes + 8);
    const uint32_t w1 =
        ctx.mem.loadWord(payload, base + kFleetHeaderBytes + 12);

    published_++;
    bool anyMatch = false;
    for (const Subscriber &sub : subscribers_) {
        if ((sub.classMask & (1u << cls)) != 0) {
            anyMatch = true;
        }
    }
    if (!anyMatch) {
        return CallResult::ofInt(1); // Published to nobody: a no-op.
    }

    // The record, metered against the broker's own quota.
    alloc::AllocResult res = alloc::AllocResult::Ok;
    Capability rec =
        ctx.kernel.mallocWith(ctx.thread, allocCap_,
                              config_.recordBytes, &res);
    if (!rec.tag()) {
        // Quota pressure: shed one lower-class record somewhere and
        // retry once, so control survives a heap full of telemetry.
        bool shedAny = false;
        for (Subscriber &sub : subscribers_) {
            if (shedLowerClass(ctx, sub, cls)) {
                shedAny = true;
                break;
            }
        }
        if (shedAny) {
            rec = ctx.kernel.mallocWith(ctx.thread, allocCap_,
                                        config_.recordBytes, &res);
        }
    }
    if (!rec.tag()) {
        heapDenials_++;
        if (cls == kClassCount - 1) {
            backpressureRefusals_++;
        } else {
            shedByClass_[cls]++;
        }
        return CallResult::ofInt(0);
    }
    const uint32_t canary = canaryOf(src, cls, w0, w1);
    ctx.mem.storeWord(rec, rec.base() + 0, canary);
    ctx.mem.storeWord(rec, rec.base() + 4, src);
    ctx.mem.storeWord(rec, rec.base() + 8, cls);
    ctx.mem.storeWord(rec, rec.base() + 12, w0);
    ctx.mem.storeWord(rec, rec.base() + 16, w1);

    uint32_t enqueued = 0;
    for (Subscriber &sub : subscribers_) {
        if ((sub.classMask & (1u << cls)) == 0) {
            continue;
        }
        if (sub.queue.size() >= config_.queueDepth &&
            !shedLowerClass(ctx, sub, cls)) {
            // Nothing below the incoming class to evict: the incoming
            // record is refused for this subscriber — typed for
            // control, a counted shed for data classes.
            if (cls == kClassCount - 1) {
                backpressureRefusals_++;
            } else {
                shedByClass_[cls]++;
            }
            continue;
        }
        if (charge_ && !charge_(src, config_.recordBytes)) {
            // The publisher is over its in-flight ceiling: its own
            // budget sheds it, not the broker's.
            chargeDenials_++;
            if (cls == kClassCount - 1) {
                backpressureRefusals_++;
            } else {
                shedByClass_[cls]++;
            }
            continue;
        }
        if (enqueued > 0) {
            // Additional queues claim; the first holds the
            // allocation itself.
            ctx.kernel.claim(ctx.thread, rec);
            claims_++;
        }
        Entry e;
        e.rec = rec;
        e.srcMac = src;
        e.cls = cls;
        e.w0 = w0;
        e.w1 = w1;
        e.canary = canary;
        if (injector_ != nullptr) {
            uint32_t param = 0;
            if (injector_->brokerQueueTouched(&param)) {
                // The fault model: a stray store scrambles the queue
                // entry; the record's stored canary is the witness.
                e.canary ^= param;
                e.w0 ^= param >> 8;
            }
        }
        sub.queue.push_back(e);
        heapBytesLive_ += config_.recordBytes;
        queueHighWater_ = std::max(
            queueHighWater_, static_cast<uint32_t>(sub.queue.size()));
        enqueued++;
    }
    if (enqueued == 0) {
        // Every matching queue refused it: release the allocation.
        ctx.kernel.free(ctx.thread, rec);
        return CallResult::ofInt(0);
    }
    return CallResult::ofInt(1);
}

CallResult
TelemetryBroker::pollBody(CompartmentContext &ctx, ArgVec &args)
{
    const Capability frame = ctx.stackAlloc(32);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    pollHit_ = false;
    const uint32_t index = args[0].address();
    if (index >= subscribers_.size()) {
        return CallResult::ofInt(0);
    }
    Subscriber &sub = subscribers_[index];
    if (sub.queue.empty()) {
        return CallResult::ofInt(0);
    }
    const Entry e = sub.queue.front();
    sub.queue.pop_front();
    const uint32_t stored = ctx.mem.loadWord(e.rec, e.rec.base());
    if (stored != e.canary ||
        e.canary != canaryOf(e.srcMac, e.cls, e.w0, e.w1)) {
        // A scrambled entry dies here — freed, credited, counted —
        // and the subscriber just sees one fewer record. Never a
        // trap.
        corruptDrops_++;
        releaseEntry(ctx, e);
        return CallResult::ofInt(0);
    }
    pollOut_.srcMac = e.srcMac;
    pollOut_.cls = e.cls;
    pollOut_.w0 = e.w0;
    pollOut_.w1 = e.w1;
    pollHit_ = true;
    releaseEntry(ctx, e);
    delivered_++;
    return CallResult::ofInt(1);
}

bool
TelemetryBroker::poll(rtos::Thread &thread, uint32_t subscriber,
                      Record *out)
{
    pollHit_ = false;
    ArgVec args =
        ArgVec::of({Capability::fromInt(subscriber)});
    const CallResult result = kernel_.call(thread, pollImport_, args);
    if (!result.ok() || result.value.address() != 1 || !pollHit_) {
        return false;
    }
    if (out != nullptr) {
        *out = pollOut_;
    }
    return true;
}

uint32_t
TelemetryBroker::queueDepth(uint32_t subscriber) const
{
    return subscriber < subscribers_.size()
               ? static_cast<uint32_t>(
                     subscribers_[subscriber].queue.size())
               : 0;
}

} // namespace cheriot::net
