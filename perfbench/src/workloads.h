/**
 * @file
 * The four benchmark workloads. Each one sets up, then runs identical
 * batches of checked units; the driver times set-up and batches and
 * turns the exact (simulated) figures of the first batch into the
 * deterministic metrics.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "metrics.h"

#include "fault/campaign.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Counter deltas over the measured window of one core's runs. */
struct CoreCounts
{
    uint64_t ops = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t idleCycles = 0;
    uint64_t mallocs = 0;
    /** sim::Machine::simStats() deltas ("group.counter"). */
    std::map<std::string, uint64_t> stats;

    void add(const CoreCounts &other);
};

/** Per core model ("ibex", "flute"); never summed across cores. */
using LayerCounts = std::map<std::string, CoreCounts>;

/** Injection outcomes of the first traced fault_inject batch. */
struct FaultTally
{
    uint64_t injections = 0;
    uint64_t fired = 0;
    std::array<uint64_t, cheriot::fault::kOutcomeCount> outcomes{};
};

/** One timed piece of a batch: its ops and the host time spent
 * executing them. */
struct Slice
{
    uint64_t ops = 0;
    double seconds = 0.0;
};

/** A batch as the sequence of its slices. Batches are identical, so
 * slice i of every batch is the same work. */
using Batch = std::vector<Slice>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One complete set-up: everything the first measured op needs,
     * built from scratch, plus a warm-up. */
    virtual void setup() = 0;
    /** Run one batch of checked units; identical on every call, and
     * cut into the same slices every time. With @p traced the first
     * traced batch also captures layer counts. */
    virtual Batch runBatch(Checker &checker, bool traced) = 0;

    /** Simulated cycles per op over the first batch (exact). */
    virtual double simCyclesPerOp() const = 0;
    /** Simulator error against the paper, in percentage points
     * (exact); may run the reference experiment. */
    virtual double modelErrPp(Checker &checker) = 0;

    /** Counts captured during the first traced batch. */
    const LayerCounts &layerCounts() const { return counts_; }
    /** Injection tally (zero outside fault_inject). */
    virtual FaultTally faultTally() const { return {}; }

    /** Print the first @p n generated inputs for this seed (after
     * setup()). */
    virtual void printInputs(uint64_t n) const = 0;

  protected:
    LayerCounts counts_;
    bool countsCaptured_ = false;
};

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

/**
 * One small traced sample of every span the workloads record (two
 * injections, a short packet burst on Ibex), so that each span-derived
 * per-layer metric has a value on every workload.
 */
void sampleLayers(uint64_t seed);

/**
 * Compare the benchmark's own CoreMark runner and fault classifier
 * against the library's runCoreMark and runFaultCampaign. Returns
 * true when they agree.
 */
bool crossCheck(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
