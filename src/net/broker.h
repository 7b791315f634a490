/**
 * @file
 * MQTT-lite telemetry broker compartment: the application tier's
 * publish/subscribe hub, built to *degrade by policy* instead of by
 * accident.
 *
 * The broker subscribes to the flow layer: every delivered data
 * segment is a publication on the topic named by its flow class
 * (telemetry / event / control, doubling as QoS 0/1/2). Each
 * publication is copied into a heap *record* allocated through the
 * broker's own sealed allocator capability — so broker memory is
 * metered against the broker's quota, not the publisher's — and
 * fanned out to every matching subscriber queue under the strict
 * heap-claim discipline: the first queue holds the allocation itself,
 * every additional queue `claim()`s it, each dequeue (or shed)
 * releases one claim, and the *last* release quarantines the record.
 * A drained broker therefore returns its heap to the post-boot
 * baseline — the chaos campaign's heal gate.
 *
 * Degradation is priority-classed. When a subscriber queue is full or
 * the heap refuses a record, the broker sheds the *oldest,
 * lowest-class* queued record first (QoS 0 before QoS 1), and never
 * sheds control: a control publication that cannot be accepted is a
 * typed Backpressure refusal, visible in the metrics, not a silent
 * drop. Every shed credits the publisher's in-flight budget back to
 * the firewall (the `setInflightHooks` wiring), so a flooding device
 * fills its own ceiling, gets shed, and starves — honest publishers
 * keep flowing.
 *
 * Fault containment (FaultSite::BrokerQueueCorrupt): each queue entry
 * carries a canary stored *in the heap record*; a scrambled entry
 * fails the cross-check at poll time and is dropped (freed, credited,
 * counted) — the subscriber sees one missing record, never a trap.
 */

#ifndef CHERIOT_NET_BROKER_H
#define CHERIOT_NET_BROKER_H

#include "cap/capability.h"
#include "rtos/compartment.h"
#include "snapshot/serializer.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace cheriot::rtos
{
class Kernel;
class Thread;
} // namespace cheriot::rtos

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::net
{

/** The broker guest compartment (created before finalizeBoot). */
struct BrokerCompartment
{
    rtos::Compartment *broker = nullptr;
};

BrokerCompartment addBrokerCompartment(rtos::Kernel &kernel);

struct BrokerConfig
{
    uint32_t queueDepth = 16; ///< Per-subscriber queue bound.
    /** Broker heap quota (the sealed allocator capability's limit). */
    uint64_t heapQuotaBytes = 8192;
    /** Heap record size per publication. */
    uint32_t recordBytes = 32;
};

class TelemetryBroker
{
  public:
    static constexpr uint32_t kClassCount = 3;

    /** One delivered publication, as a subscriber sees it. */
    struct Record
    {
        uint32_t srcMac = 0;
        uint8_t cls = 0;
        uint32_t w0 = 0;
        uint32_t w1 = 0;
    };

    /** Firewall in-flight accounting: charge while a record sits in a
     * queue, credit on delivery or shed. */
    using ChargeFn = std::function<bool(uint32_t, uint64_t)>;
    using CreditFn = std::function<void(uint32_t, uint64_t)>;

    TelemetryBroker(rtos::Kernel &kernel,
                    const BrokerCompartment &parts,
                    BrokerConfig config = {});

    /** Mint the allocator capability, add the ingest/poll exports.
     * Call after finalizeBoot (the heap must be live). */
    void connect();
    /** The flow-consumer entry point: (payload, len). */
    const rtos::Import &ingestImport() const { return ingestImport_; }
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }
    void setInflightHooks(ChargeFn charge, CreditFn credit)
    {
        charge_ = std::move(charge);
        credit_ = std::move(credit);
    }

    /** Register a subscriber for every class whose bit is set in
     * @p classMask (bit c = FlowClass c). Returns the subscriber id. */
    uint32_t subscribe(uint8_t classMask);
    /** Dequeue one record for @p subscriber (a real call into the
     * broker compartment: validate, copy out, free, credit). */
    bool poll(rtos::Thread &thread, uint32_t subscriber, Record *out);
    uint32_t queueDepth(uint32_t subscriber) const;

    /** @name Degradation metrics @{ */
    uint64_t published() const { return published_; }
    uint64_t delivered() const { return delivered_; }
    uint64_t shedByClass(uint32_t cls) const
    {
        return cls < kClassCount ? shedByClass_[cls] : 0;
    }
    uint64_t backpressureRefusals() const
    {
        return backpressureRefusals_;
    }
    uint64_t heapDenials() const { return heapDenials_; }
    uint64_t corruptDrops() const { return corruptDrops_; }
    uint64_t chargeDenials() const { return chargeDenials_; }
    uint32_t queueHighWater() const { return queueHighWater_; }
    uint64_t claims() const { return claims_; }
    /** Bytes of broker heap currently held by queued records: 0 when
     * drained — the heal-gate baseline. */
    uint64_t heapBytesLive() const { return heapBytesLive_; }
    /** @} */

    template <class V>
    void fields(V &v)
    {
        v(subscribers_, published_, delivered_, shedByClass_,
          backpressureRefusals_, heapDenials_, corruptDrops_, chargeDenials_,
          claims_, heapBytesLive_, queueHighWater_);
    }

  private:
    struct Entry
    {
        cap::Capability rec;
        uint32_t srcMac = 0;
        uint8_t cls = 0;
        uint32_t w0 = 0;
        uint32_t w1 = 0;
        uint32_t canary = 0; ///< Mirror of the record's canary word.

        template <class V>
        void fields(V &v)
        {
            v(rec, srcMac, snapshot::as<uint32_t>(cls), w0, w1, canary);
        }
    };
    struct Subscriber
    {
        uint8_t classMask = 0;
        std::deque<Entry> queue;

        template <class V>
        void fields(V &v)
        {
            v(snapshot::as<uint32_t>(classMask), queue);
        }
    };

    static uint32_t mix(uint32_t x);
    uint32_t canaryOf(uint32_t srcMac, uint8_t cls, uint32_t w0,
                      uint32_t w1) const;

    rtos::CallResult ingestBody(rtos::CompartmentContext &ctx,
                                rtos::ArgVec &args);
    rtos::CallResult pollBody(rtos::CompartmentContext &ctx,
                              rtos::ArgVec &args);
    /** Release one queue reference to @p e's record (free + credit);
     * the last release quarantines the record. */
    void releaseEntry(rtos::CompartmentContext &ctx, const Entry &e);
    /** Shed the oldest queued record of the lowest class below
     * @p cls from @p sub; false when nothing shellable. */
    bool shedLowerClass(rtos::CompartmentContext &ctx, Subscriber &sub,
                        uint8_t cls);

    rtos::Kernel &kernel_;
    rtos::Compartment &compartment_;
    BrokerConfig config_;
    fault::FaultInjector *injector_ = nullptr;
    ChargeFn charge_;
    CreditFn credit_;

    cap::Capability allocCap_; ///< Sealed allocator token (minted in
                               ///< connect; rebuilt by the boot).
    rtos::Import ingestImport_;
    rtos::Import pollImport_;

    std::vector<Subscriber> subscribers_;
    Record pollOut_; ///< pollBody's out-parameter staging.
    bool pollHit_ = false;

    uint64_t published_ = 0;
    uint64_t delivered_ = 0;
    uint64_t shedByClass_[kClassCount] = {};
    uint64_t backpressureRefusals_ = 0;
    uint64_t heapDenials_ = 0;
    uint64_t corruptDrops_ = 0;
    uint64_t chargeDenials_ = 0;
    uint64_t claims_ = 0;
    uint64_t heapBytesLive_ = 0;
    uint32_t queueHighWater_ = 0;
};

} // namespace cheriot::net

#endif // CHERIOT_NET_BROKER_H
