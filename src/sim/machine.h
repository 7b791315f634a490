/**
 * @file
 * The CHERIoT machine: one core (Flute- or Ibex-flavoured timing),
 * tagged SRAM, the revocation bitmap and load filter, the background
 * revoker, and the console/timer devices, advancing on a shared cycle
 * clock.
 *
 * The machine exposes *checked* memory operations (capability
 * authorised, cycle charged, load-filtered, snooped) that are used
 * both by the instruction executor and by the RTOS layer, so the
 * architectural protection and the temporal-safety machinery behave
 * identically whether code runs as guest instructions or as modelled
 * RTOS primitives.
 */

#ifndef CHERIOT_SIM_MACHINE_H
#define CHERIOT_SIM_MACHINE_H

#include "cap/capability.h"
#include "debug/stats.h"
#include "isa/encoding.h"
#include "mem/bus.h"
#include "mem/memory_map.h"
#include "revoker/background_revoker.h"
#include "revoker/load_filter.h"
#include "revoker/revocation_bitmap.h"
#include "sim/core_config.h"
#include "sim/csr.h"
#include "util/stats.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::debug
{
class RunControl;
}

namespace cheriot::snapshot
{
class SnapshotWriter;
class SnapshotReader;
struct SnapshotImage;
} // namespace cheriot::snapshot

namespace cheriot::sim
{

/** Console + power-control MMIO device for guest programs. */
class ConsoleDevice : public mem::MmioDevice
{
  public:
    std::string name() const override { return "console"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;

    const std::string &output() const { return output_; }
    bool exitRequested() const { return exitRequested_; }
    uint32_t exitCode() const { return exitCode_; }
    void reset();

    template <class V>
    void fields(V &v)
    {
        v(output_, exitRequested_, exitCode_);
    }

  private:
    std::string output_;
    bool exitRequested_ = false;
    uint32_t exitCode_ = 0;
};

/** Cycle-driven timer with a compare interrupt. */
class TimerDevice : public mem::MmioDevice
{
  public:
    std::string name() const override { return "timer"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;

    void tick(uint64_t now) { now_ = now; }
    bool interruptPending() const
    {
        return armed_ && now_ >= compare_;
    }
    void disarm() { armed_ = false; }

    template <class V>
    void fields(V &v)
    {
        v(now_, compare_, armed_);
    }

  private:
    uint64_t now_ = 0;
    uint64_t compare_ = ~uint64_t{0};
    bool armed_ = false;
};

struct MachineConfig
{
    CoreConfig core = CoreConfig::ibex();
    uint32_t sramSize = 1u << 20; ///< 1 MiB.
    /** Heap window (covered by revocation bits); offsets within SRAM. */
    uint32_t heapOffset = 512u << 10;
    uint32_t heapSize = 256u << 10;
    uint32_t revocationGranule = 8;
    /** Optional fault-injection engine; the machine attaches it to
     * the SRAM / bitmap / revoker and ticks it at each of its events
     * (see advance()). */
    fault::FaultInjector *injector = nullptr;
};

/** Why run()/step() stopped. */
enum class HaltReason : uint8_t
{
    Running,      ///< Not halted.
    ConsoleExit,  ///< Guest wrote the exit register.
    Breakpoint,   ///< EBREAK retired.
    DoubleTrap,   ///< Trap taken with an unusable trap vector.
    InstrLimit,   ///< run() hit its instruction budget.
};

struct RunResult
{
    HaltReason reason;
    uint64_t instructions;
    uint64_t cycles;
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** @name Architectural register file (c0 is hard-wired null) @{ */
    cap::Capability readReg(unsigned index) const
    {
        return index == 0 ? cap::Capability() : regs_[index];
    }
    void writeReg(unsigned index, const cap::Capability &value)
    {
        if (index != 0 && index < isa::kNumRegs) {
            regs_[index] = value;
        }
    }
    /** Integer results land untagged with null metadata. */
    void writeRegInt(unsigned index, uint32_t value)
    {
        writeReg(index, cap::Capability::fromInt(value));
    }
    uint32_t readRegInt(unsigned index) const
    {
        return readReg(index).address();
    }
    /** @} */

    /** @name PCC and interrupt posture @{ */
    const cap::Capability &pcc() const { return pcc_; }
    void setPcc(const cap::Capability &pcc) { pcc_ = pcc; }
    bool interruptsEnabled() const { return csrs_.mie; }
    void setInterruptsEnabled(bool enabled) { csrs_.mie = enabled; }
    /** @} */

    CsrFile &csrs() { return csrs_; }
    const CoreConfig &config() const { return config_.core; }
    CoreConfig &mutableConfig() { return config_.core; }
    const MachineConfig &machineConfig() const { return config_; }

    /** @name Components @{ */
    mem::PhysicalMemory &memory() { return memory_; }
    revoker::RevocationBitmap &revocationBitmap() { return bitmap_; }
    revoker::LoadFilter &loadFilter() { return filter_; }
    revoker::BackgroundRevoker &backgroundRevoker() { return bgRevoker_; }
    ConsoleDevice &console() { return console_; }
    TimerDevice &timer() { return timer_; }
    mem::Bus &bus() { return bus_; }
    /** Attached fault injector, or null. */
    fault::FaultInjector *faultInjector() { return injector_; }
    /** @} */

    /** Heap window in architectural addresses. */
    uint32_t heapBase() const;
    uint32_t heapEnd() const { return heapBase() + config_.heapSize; }

    /** @name Time @{ */
    uint64_t cycles() const { return cycles_; }
    uint64_t instructions() const { return instructions_; }
    /**
     * Advance the clock. The first @p memPortBusy cycles have the
     * load-store unit occupied by the main pipeline; remaining cycles
     * leave it free for the background revoker. Runs in chunks cut at
     * the fault injector's next event, exactly equivalent to
     * @p cycleCount single-cycle advances (DESIGN.md §6.1).
     */
    void advance(uint64_t cycleCount, uint64_t memPortBusy = 0);
    /** Idle cycles: the port is entirely free. */
    void idle(uint64_t cycleCount) { advance(cycleCount, 0); }
    /** @} */

    /** @name Checked memory operations
     * All return TrapCause::None on success. @p charge controls
     * whether simulated cycles are consumed. @{ */
    TrapCause loadData(const cap::Capability &auth, uint32_t addr,
                       unsigned bytes, bool signExtend, uint32_t *out,
                       bool charge = true);
    TrapCause storeData(const cap::Capability &auth, uint32_t addr,
                        unsigned bytes, uint32_t value, bool charge = true);
    TrapCause loadCap(const cap::Capability &auth, uint32_t addr,
                      cap::Capability *out, bool charge = true);
    TrapCause storeCap(const cap::Capability &auth, uint32_t addr,
                       const cap::Capability &value, bool charge = true);
    /** @} */

    /** Zero [addr, addr+bytes) via @p auth, at bus speed. */
    TrapCause zeroMemory(const cap::Capability &auth, uint32_t addr,
                         uint32_t bytes, bool charge = true);

    /** @name Execution @{ */
    /** Execute one instruction (taking pending interrupts first). */
    void step();
    /** Run until halt, trap-to-nowhere, or @p maxInstructions. */
    RunResult run(uint64_t maxInstructions);
    /**
     * Run under debugger control: like run(), but the installed
     * RunControl's breakpoints are checked against the next PC before
     * each instruction, watchpoint/capability-fault stops recorded by
     * the memory/trap hooks end the loop after the current
     * instruction, and @p singleStep retires exactly one instruction.
     * The loop never executes the instruction at the resume PC's
     * breakpoint (gdb resumes *from* a breakpoint; the first
     * iteration is exempt). Requires setRunControl().
     */
    RunResult runControl(uint64_t maxInstructions, bool singleStep);
    bool halted() const { return halt_ != HaltReason::Running; }
    HaltReason haltReason() const { return halt_; }
    void clearHalt() { halt_ = HaltReason::Running; }
    /** Cause of the most recent trap (diagnostics). */
    TrapCause lastTrap() const { return lastTrap_; }
    uint64_t trapCount() const { return traps_.value(); }
    /** Typed diagnosis of the most recent undecodable fetch (why the
     * word was reserved/malformed); ok() until one occurs. */
    const isa::DecodeError &lastDecodeError() const
    {
        return lastDecodeError_;
    }
    /** @} */

    /** @name Program loading @{ */
    /** Copy @p words into SRAM at @p addr and flush the decode cache. */
    void loadProgram(const std::vector<uint32_t> &words, uint32_t addr);
    /**
     * Reset architectural state for a fresh run: PCC is an
     * executable-root capability at @p entry, the memory root is in
     * a0 and the sealing root in a1 (§3.1.1: all three roots are
     * present in registers on reset).
     */
    void resetCpu(uint32_t entry);
    /** @} */

    /** Raise a trap (also used by the RTOS layer for fatal errors). */
    void raiseTrap(TrapCause cause, uint32_t tval);

    /** @name Snapshot / restore
     * save() captures every architecturally visible piece of machine
     * state — registers, PCC, CSRs, tagged SRAM with micro-tags, the
     * revocation bitmap, the background revoker's pipeline, devices
     * and counters — as sections of a snapshot image. restore() is its
     * exact inverse: it refuses images whose configuration section
     * does not match this machine, validates every section before
     * mutating anything, and leaves the machine bit-identical to the
     * one that saved. The fault injector is deliberately *not* part of
     * the image; replay reconstructs it from the recorded seed. @{ */
    void save(snapshot::SnapshotWriter &out) const;
    bool restore(const snapshot::SnapshotReader &in);
    /** Convenience wrappers over a whole image. */
    snapshot::SnapshotImage saveImage() const;
    bool restoreImage(const snapshot::SnapshotImage &image);
    /** CRC-32 of the canonical image: equal digests ⇔ equal state.
     * Equals the digest() of saveImage(), but streams the CRC without
     * building the image. */
    uint32_t stateDigest() const;
    /** @} */

    /** Per-retired-instruction hook (tracing); null disables. */
    using TraceHook = std::function<void(uint32_t pc,
                                         const isa::Inst &inst)>;
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    /** @name Debugger seam
     * The installed RunControl observes checked memory accesses
     * (watchpoints), capability-check failures and traps; it never
     * mutates machine state and is not serialized. Null detaches. @{ */
    void setRunControl(debug::RunControl *rc) { runControl_ = rc; }
    debug::RunControl *runControlHook() { return runControl_; }
    /**
     * Debugger memory read/write over SRAM, bypassing the bus, the
     * access counters and the charge model (a JTAG-style back door;
     * MMIO is refused — device reads have side effects). Writes obey
     * the tag-clearing rule and invalidate touched decode-cache
     * entries. False when the range is not SRAM.
     */
    bool debugReadMem(uint32_t addr, uint32_t len,
                      std::vector<uint8_t> *out) const;
    bool debugWriteMem(uint32_t addr, const std::vector<uint8_t> &data);
    /** @} */

    /** Unified counter registry over this machine's components (the
     * kernel attaches its groups when it boots on this machine). */
    debug::SimStats &simStats() { return simStats_; }
    const debug::SimStats &simStats() const { return simStats_; }

    Counter instructionsRetired;
    Counter loads;
    Counter stores;
    Counter capLoads;
    Counter capStores;
    Counter traps_;
    Counter decodeFills; ///< Decode-cache fills.

  private:
    friend class Executor;

    void execute(const isa::Inst &inst, uint32_t pc);
    bool takePendingInterrupt();
    const isa::Inst &decodeAt(uint32_t pc);

    /** The image's sections in order, each a name and the fields it
     * holds: save() writes them and restore() reads them back. */
    template <class S>
    void sections(S &&section);
    /** The "cpu" section; its named counters are this machine's
     * stats group. */
    template <class V>
    void cpuFields(V &v);

    /** Common access validation; returns None when allowed. */
    TrapCause checkAccess(const cap::Capability &auth, uint32_t addr,
                          unsigned bytes, uint16_t needPerm);

    MachineConfig config_;
    mem::PhysicalMemory memory_;
    revoker::RevocationBitmap bitmap_;
    revoker::LoadFilter filter_;
    revoker::BackgroundRevoker bgRevoker_;
    ConsoleDevice console_;
    TimerDevice timer_;
    mem::Bus bus_;
    fault::FaultInjector *injector_ = nullptr;

    cap::Capability regs_[isa::kNumRegs];
    cap::Capability pcc_;
    CsrFile csrs_;

    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    HaltReason halt_ = HaltReason::Running;
    TrapCause lastTrap_ = TrapCause::None;
    isa::DecodeError lastDecodeError_;

    /** Register written by the immediately preceding load (for the
     * load-to-use stall model); kNumRegs means none. */
    unsigned pendingLoadReg_ = isa::kNumRegs;

    /** A decode-cache entry whose constructor writes nothing, so
     * constructing the cache touches none of its storage. */
    union DecodeSlot
    {
        DecodeSlot() {}
        isa::Inst inst;
    };
    /** Lazily filled decode cache over SRAM, one slot per word; a slot
     * is read only while its decodeValid_ bit is set. */
    std::unique_ptr<DecodeSlot[]> decodeCache_;
    std::vector<bool> decodeValid_;

    TraceHook traceHook_;
    debug::RunControl *runControl_ = nullptr;

    StatGroup stats_;
    debug::SimStats simStats_;
};

} // namespace cheriot::sim

#endif // CHERIOT_SIM_MACHINE_H
