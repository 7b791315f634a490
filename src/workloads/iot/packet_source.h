/**
 * @file
 * Synthetic network traffic for the end-to-end IoT application
 * (paper §7.2.3).
 *
 * The paper's device keeps an MQTT-over-TLS connection to a cloud hub
 * and periodically fetches JavaScript bytecode. We model the arrival
 * process deterministically (seeded PRNG) so runs are reproducible:
 * small keep-alive/telemetry records at a steady rate with occasional
 * larger payload fetches. Every received packet becomes a separate
 * heap allocation protected by temporal safety, exactly as in the
 * paper.
 */

#ifndef CHERIOT_WORKLOADS_IOT_PACKET_SOURCE_H
#define CHERIOT_WORKLOADS_IOT_PACKET_SOURCE_H

#include "util/rng.h"

#include <cstdint>

namespace cheriot::workloads
{

struct Packet
{
    uint64_t arrivalCycle;
    uint32_t bytes;
    bool isPayloadFetch; ///< Large bytecode-fetch response.
};

class PacketSource
{
  public:
    /**
     * @param clockHz        simulated core clock.
     * @param packetsPerSec  mean arrival rate of small records.
     * @param fetchEveryN    every Nth packet is a large fetch.
     */
    PacketSource(uint64_t clockHz, uint32_t packetsPerSec,
                 uint32_t fetchEveryN = 16, uint64_t seed = 0x10c5)
        : clockHz_(clockHz), packetsPerSec_(packetsPerSec),
          fetchEveryN_(fetchEveryN), rng_(seed)
    {
        scheduleNext(0);
    }

    /** The next packet at or before @p nowCycle, if any. */
    bool poll(uint64_t nowCycle, Packet *out)
    {
        if (next_.arrivalCycle > nowCycle) {
            return false;
        }
        *out = next_;
        scheduleNext(next_.arrivalCycle);
        return true;
    }

    uint64_t nextArrival() const { return next_.arrivalCycle; }

    /** @name Snapshot state (PRNG stream, pending arrival, sequence
     * counter — everything the arrival process depends on) @{ */
    template <class V>
    void fields(V &v)
    {
        v(rng_, next_.arrivalCycle, next_.bytes, next_.isPayloadFetch,
          sequence_);
    }
    /** @} */

  private:
    void scheduleNext(uint64_t after)
    {
        const uint64_t meanGap = clockHz_ / packetsPerSec_;
        // Jitter in [0.5, 1.5) of the mean gap.
        const uint64_t gap =
            meanGap / 2 + rng_.below(static_cast<uint32_t>(meanGap));
        ++sequence_;
        next_.arrivalCycle = after + gap;
        next_.isPayloadFetch = sequence_ % fetchEveryN_ == 0;
        next_.bytes = next_.isPayloadFetch ? 768 + rng_.below(448)
                                           : 64 + rng_.below(192);
    }

    uint64_t clockHz_;
    uint32_t packetsPerSec_;
    uint32_t fetchEveryN_;
    Rng rng_;
    Packet next_{};
    uint32_t sequence_ = 0;
};

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_IOT_PACKET_SOURCE_H
