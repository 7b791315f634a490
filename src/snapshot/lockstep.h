/**
 * @file
 * Lockstep divergence checking: step two Machine instances through
 * the same program together and report the first architectural
 * divergence, in the spirit of the CHERIoT-Ibex observational-
 * correctness check (core vs golden model, step by step).
 *
 * After every paired step the *architectural* state is compared:
 * register file (value bits and tags), PCC, CSRs/SCRs and halt
 * status. Cycle counts are deliberately excluded so that two timing
 * models (Flute-config vs Ibex-config) can run in lockstep over a
 * cycle-independent program; memory contents and micro-tags are
 * compared at a configurable instruction interval and at the end.
 * A report names what differs: the register, the CSR, or the first
 * differing granule with both sides' data and micro-tags. Both
 * machines carry a RingTracer, so a divergence report includes the
 * recent instruction window on each side.
 */

#ifndef CHERIOT_SNAPSHOT_LOCKSTEP_H
#define CHERIOT_SNAPSHOT_LOCKSTEP_H

#include "sim/machine.h"
#include "sim/tracer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::snapshot
{

struct LockstepReport
{
    bool diverged = false;
    /** Both machines halted with no divergence. */
    bool completed = false;
    /** Paired steps executed when the divergence was detected
     * (1-based: N means the N-th instruction diverged). */
    uint64_t divergenceStep = 0;
    /** What differed (register, PCC, CSR, memory granule, halt). */
    std::string detail;
    /** Recent instruction windows at the point of divergence. */
    std::vector<std::string> traceA;
    std::vector<std::string> traceB;
};

class LockstepRunner
{
  public:
    LockstepRunner(sim::Machine &a, sim::Machine &b,
                   size_t traceDepth = 16);

    /**
     * Step both machines once and compare architectural state.
     * Returns false on divergence (the report is then final).
     */
    bool stepBoth();

    /**
     * Run until both machines halt, divergence, or @p maxInstructions
     * paired steps. @p memoryCheckInterval is the instruction period
     * of the full memory compare (0 disables periodic checks;
     * one is always performed at the end).
     */
    const LockstepReport &run(uint64_t maxInstructions,
                              uint64_t memoryCheckInterval = 4096);

    const LockstepReport &report() const { return report_; }
    uint64_t steps() const { return steps_; }

  private:
    bool compareArchitecturalState();
    bool compareMemory();
    void recordDivergence(const std::string &detail);

    sim::Machine &a_;
    sim::Machine &b_;
    sim::RingTracer tracerA_;
    sim::RingTracer tracerB_;
    LockstepReport report_;
    uint64_t steps_ = 0;
};

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_LOCKSTEP_H
