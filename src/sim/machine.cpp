#include "sim/machine.h"

#include "debug/run_control.h"
#include "fault/fault_injector.h"
#include "snapshot/snapshot.h"
#include "util/bits.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::sim
{

using cap::Capability;
using cap::PermSet;

// --- ConsoleDevice ---------------------------------------------------

uint32_t
ConsoleDevice::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return 0;
      case 0x4: return exitCode_;
      default: return 0;
    }
}

void
ConsoleDevice::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x0:
        output_.push_back(static_cast<char>(value & 0xff));
        break;
      case 0x4:
        exitRequested_ = true;
        exitCode_ = value;
        break;
      default:
        break;
    }
}

void
ConsoleDevice::reset()
{
    output_.clear();
    exitRequested_ = false;
    exitCode_ = 0;
}

// --- TimerDevice ------------------------------------------------------

uint32_t
TimerDevice::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return static_cast<uint32_t>(now_);
      case 0x4: return static_cast<uint32_t>(now_ >> 32);
      case 0x8: return static_cast<uint32_t>(compare_);
      case 0xc: return static_cast<uint32_t>(compare_ >> 32);
      default: return 0;
    }
}

void
TimerDevice::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x8:
        compare_ = (compare_ & 0xffffffff00000000ull) | value;
        armed_ = true;
        break;
      case 0xc:
        compare_ = (compare_ & 0xffffffffull) |
                   (static_cast<uint64_t>(value) << 32);
        armed_ = true;
        break;
      default:
        break;
    }
}

// --- Machine ----------------------------------------------------------

Machine::Machine(const MachineConfig &config)
    : config_(config), memory_(config.sramSize),
      bitmap_(mem::kSramBase + config.heapOffset, config.heapSize,
              config.revocationGranule),
      filter_(&bitmap_),
      bgRevoker_(memory_.sram(), bitmap_, config.core.bus),
      bus_(config.core.bus), injector_(config.injector),
      stats_("machine")
{
    if (config.heapOffset + config.heapSize > config.sramSize) {
        fatal("heap window [0x%x, +0x%x) exceeds SRAM of 0x%x bytes",
              config.heapOffset, config.heapSize, config.sramSize);
    }
    memory_.mmio().map(mem::kRevocationBitmapBase, bitmap_.mmioSize(),
                       &bitmap_);
    memory_.mmio().map(mem::kRevokerMmioBase, mem::kRevokerMmioSize,
                       &bgRevoker_);
    memory_.mmio().map(mem::kConsoleMmioBase, mem::kConsoleMmioSize,
                       &console_);
    memory_.mmio().map(mem::kTimerMmioBase, mem::kTimerMmioSize, &timer_);

    filter_.setEnabled(config.core.loadFilterEnabled);

    if (injector_ != nullptr) {
        injector_->attachMemory(&memory_.sram());
        injector_->attachBitmap(&bitmap_);
        bgRevoker_.setFaultInjector(injector_);
    }

    decodeCache_.resize(config.sramSize / 4);
    decodeValid_.resize(config.sramSize / 4, false);

    snapshot::registerStats(stats_, [this](auto &v) { cpuFields(v); });

    // The unified registry: every component's group in one directory,
    // queryable by bench harnesses and the GDB stub alike. The kernel
    // attaches the RTOS-side groups when it boots on this machine.
    simStats_.attach(stats_);
    simStats_.attach(memory_.sram().stats());
    simStats_.attach(bus_.stats());
    simStats_.attach(bitmap_.stats());
    simStats_.attach(filter_.stats());
    simStats_.attach(bgRevoker_.stats());
}

uint32_t
Machine::heapBase() const
{
    return mem::kSramBase + config_.heapOffset;
}

Capability
Machine::readReg(unsigned index) const
{
    if (index == 0) {
        return Capability();
    }
    return regs_[index];
}

void
Machine::writeReg(unsigned index, const Capability &value)
{
    if (index == 0 || index >= isa::kNumRegs) {
        return;
    }
    regs_[index] = value;
}

void
Machine::writeRegInt(unsigned index, uint32_t value)
{
    // Writing an integer result to a merged register file produces an
    // untagged value whose metadata is null.
    writeReg(index, Capability().withAddress(value));
}

void
Machine::advance(uint64_t cycleCount, uint64_t memPortBusy)
{
    // Batched form of "for each cycle: revoker tick (port free once
    // the busy prefix is over), bump the cycle counter, injector
    // tick". Injector ticks before its next event change nothing, so
    // the revoker sees constant injector state up to that horizon;
    // each chunk ends on it, runs the revoker over the chunk's free
    // cycles (busy-port ticks are no-ops), then ticks the injector
    // once for the chunk's last cycle.
    const uint64_t end = cycles_ + cycleCount;
    const uint64_t freeFrom = cycles_ + std::min(memPortBusy, cycleCount);
    while (cycles_ < end) {
        uint64_t chunkEnd = end;
        if (injector_ != nullptr) {
            chunkEnd = std::clamp(injector_->nextEventCycle(), cycles_ + 1,
                                  end);
        }
        if (chunkEnd > freeFrom) {
            bgRevoker_.run(chunkEnd - std::max(cycles_, freeFrom));
        }
        cycles_ = chunkEnd;
        if (injector_ != nullptr) {
            injector_->tick(cycles_);
        }
    }
    timer_.tick(cycles_);
}

TrapCause
Machine::checkAccess(const Capability &auth, uint32_t addr, unsigned bytes,
                     uint16_t needPerm)
{
    if (!config_.core.cheriEnabled) {
        // Baseline RV32E: no architectural checks beyond mapping.
        if (!memory_.isMapped(addr, bytes)) {
            return needPerm == cap::PermStore ? TrapCause::StoreAccessFault
                                              : TrapCause::LoadAccessFault;
        }
        if (addr % bytes != 0) {
            return TrapCause::MisalignedAccess;
        }
        return TrapCause::None;
    }
    if (!auth.tag()) {
        return TrapCause::CheriTagViolation;
    }
    if (auth.isSealed()) {
        return TrapCause::CheriSealViolation;
    }
    if (!auth.perms().has(needPerm)) {
        return TrapCause::CheriPermViolation;
    }
    if (!auth.inBounds(addr, bytes)) {
        return TrapCause::CheriBoundsViolation;
    }
    if (addr % bytes != 0) {
        return TrapCause::MisalignedAccess;
    }
    if (!memory_.isMapped(addr, bytes)) {
        return needPerm == cap::PermStore ? TrapCause::StoreAccessFault
                                          : TrapCause::LoadAccessFault;
    }
    return TrapCause::None;
}

TrapCause
Machine::loadData(const Capability &auth, uint32_t addr, unsigned bytes,
                  bool signExtend, uint32_t *out, bool charge)
{
    const TrapCause cause = checkAccess(auth, addr, bytes, cap::PermLoad);
    if (cause != TrapCause::None) {
        if (runControl_ != nullptr) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        }
        return cause;
    }
    if (runControl_ != nullptr) {
        runControl_->noteMemAccess(/*isWrite=*/false, addr, bytes);
    }
    const unsigned beats = mem::dataBeats(config_.core.bus, bytes);
    mem::BusResult bt;
    if (charge) {
        bt = bus_.transact(beats, injector_);
        if (!bt.ok) {
            // Retries exhausted: the cycles burnt replaying are real,
            // the data never arrives.
            advance(config_.core.dataLoadCycles(bytes) + bt.extraCycles,
                    beats + bt.extraCycles);
            return TrapCause::LoadAccessFault;
        }
    }
    uint32_t raw = 0;
    switch (bytes) {
      case 1: raw = memory_.read8(addr); break;
      case 2: raw = memory_.read16(addr); break;
      case 4: raw = memory_.read32(addr); break;
      default: panic("loadData: bad size %u", bytes);
    }
    if (signExtend && bytes < 4) {
        raw = static_cast<uint32_t>(signExtend32(raw, bytes * 8));
    }
    *out = raw;
    loads++;
    if (charge) {
        advance(config_.core.dataLoadCycles(bytes) + bt.extraCycles,
                beats + bt.extraCycles);
    }
    return TrapCause::None;
}

TrapCause
Machine::storeData(const Capability &auth, uint32_t addr, unsigned bytes,
                   uint32_t value, bool charge)
{
    const TrapCause cause = checkAccess(auth, addr, bytes, cap::PermStore);
    if (cause != TrapCause::None) {
        if (runControl_ != nullptr) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        }
        return cause;
    }
    if (runControl_ != nullptr) {
        runControl_->noteMemAccess(/*isWrite=*/true, addr, bytes);
    }
    const unsigned beats = mem::dataBeats(config_.core.bus, bytes);
    mem::BusResult bt;
    if (charge) {
        bt = bus_.transact(beats, injector_);
        if (!bt.ok) {
            // The write never reached the SRAM.
            advance(config_.core.dataStoreCycles(bytes) + bt.extraCycles,
                    beats + bt.extraCycles);
            return TrapCause::StoreAccessFault;
        }
    }
    switch (bytes) {
      case 1: memory_.write8(addr, static_cast<uint8_t>(value)); break;
      case 2: memory_.write16(addr, static_cast<uint16_t>(value)); break;
      case 4: memory_.write32(addr, value); break;
      default: panic("storeData: bad size %u", bytes);
    }
    stores++;
    bgRevoker_.snoopStore(addr, bytes);
    if (config_.core.hwmEnabled) {
        csrs_.noteStore(addr);
    }
    if (charge) {
        advance(config_.core.dataStoreCycles(bytes) + bt.extraCycles,
                beats + bt.extraCycles);
    }
    return TrapCause::None;
}

TrapCause
Machine::loadCap(const Capability &auth, uint32_t addr, Capability *out,
                 bool charge)
{
    const TrapCause cause = checkAccess(auth, addr, 8, cap::PermLoad);
    if (cause != TrapCause::None) {
        if (runControl_ != nullptr) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        }
        return cause;
    }
    if (runControl_ != nullptr) {
        runControl_->noteMemAccess(/*isWrite=*/false, addr, 8);
    }
    const unsigned beats = mem::capBeats(config_.core.bus);
    mem::BusResult bt;
    if (charge) {
        bt = bus_.transact(beats, injector_);
        if (!bt.ok) {
            advance(config_.core.capLoadCycles() + bt.extraCycles,
                    beats + bt.extraCycles);
            return TrapCause::LoadAccessFault;
        }
    }
    const auto raw = memory_.readCap(addr);
    Capability loaded = Capability::fromBits(raw.bits, raw.tag);
    if (!auth.perms().has(cap::PermMemCap)) {
        // Data-only authority: the value arrives untagged.
        loaded = loaded.withTagCleared();
    }
    loaded = loaded.attenuatedForLoad(auth.perms());
    loaded = filter_.filter(loaded);
    if (injector_ != nullptr && loaded.tag() &&
        injector_->isPoisoned(addr)) {
        // The safety oracle: a corrupted granule produced a
        // valid-looking capability that every architectural defence
        // (micro-tags, attenuation, load filter) failed to strip.
        injector_->noteSafetyViolation(addr);
    }
    *out = loaded;
    capLoads++;
    if (charge) {
        advance(config_.core.capLoadCycles() + bt.extraCycles,
                beats + bt.extraCycles);
    }
    return TrapCause::None;
}

TrapCause
Machine::storeCap(const Capability &auth, uint32_t addr,
                  const Capability &value, bool charge)
{
    TrapCause cause = checkAccess(auth, addr, 8, cap::PermStore);
    if (cause == TrapCause::None && value.tag()) {
        if (!auth.perms().has(cap::PermMemCap)) {
            cause = TrapCause::CheriPermViolation;
        } else if (value.isLocal() &&
                   !auth.perms().has(cap::PermStoreLocal)) {
            // The 1-bit information-flow scheme (§2.6): local
            // capabilities may only be stored through SL authority
            // (in practice: only onto stacks).
            cause = TrapCause::CheriStoreLocalViolation;
        }
    }
    if (cause != TrapCause::None) {
        if (runControl_ != nullptr) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        }
        return cause;
    }
    if (runControl_ != nullptr) {
        runControl_->noteMemAccess(/*isWrite=*/true, addr, 8);
    }
    const unsigned beats = mem::capBeats(config_.core.bus);
    mem::BusResult bt;
    if (charge) {
        bt = bus_.transact(beats, injector_);
        if (!bt.ok) {
            advance(config_.core.capStoreCycles() + bt.extraCycles,
                    beats + bt.extraCycles);
            return TrapCause::StoreAccessFault;
        }
    }
    memory_.writeCap(addr, value.toBits(), value.tag());
    if (injector_ != nullptr) {
        // A full-width rewrite replaces every corrupted bit.
        injector_->notePoisonRepaired(addr);
    }
    capStores++;
    bgRevoker_.snoopStore(addr, 8);
    if (config_.core.hwmEnabled) {
        csrs_.noteStore(addr);
    }
    if (charge) {
        advance(config_.core.capStoreCycles() + bt.extraCycles,
                beats + bt.extraCycles);
    }
    return TrapCause::None;
}

TrapCause
Machine::zeroMemory(const Capability &auth, uint32_t addr, uint32_t bytes,
                    bool charge)
{
    if (bytes == 0) {
        return TrapCause::None;
    }
    TrapCause cause = checkAccess(auth, addr, 1, cap::PermStore);
    if (cause == TrapCause::None && !auth.inBounds(addr, bytes)) {
        cause = TrapCause::CheriBoundsViolation;
    }
    if (cause != TrapCause::None) {
        if (runControl_ != nullptr) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        }
        return cause;
    }
    if (!memory_.isSram(addr, bytes)) {
        return TrapCause::StoreAccessFault;
    }
    if (runControl_ != nullptr) {
        runControl_->noteMemAccess(/*isWrite=*/true, addr, bytes);
    }
    memory_.sram().zeroRange(addr, bytes);
    bgRevoker_.snoopStore(addr, bytes);
    if (config_.core.hwmEnabled) {
        csrs_.noteStore(addr);
    }
    if (charge) {
        // Zeroing proceeds at bus rate: one beat per bus word, plus a
        // small loop overhead per beat (fused store+bump, modelled as
        // busy port each cycle).
        const unsigned beats = mem::zeroBeats(config_.core.bus, bytes);
        advance(beats, beats);
    }
    return TrapCause::None;
}

void
Machine::raiseTrap(TrapCause cause, uint32_t tval)
{
    traps_++;
    lastTrap_ = cause;
    if (runControl_ != nullptr) {
        // Idempotent with the checked-op hook: the first recorded
        // stop wins, so the executor raising the trap for a failure
        // the memory op already reported does not double-stop.
        runControl_->noteTrap(cause, tval, pcc_.address());
    }
    logf(LogLevel::Debug, "machine: trap %s (tval=0x%08x) at pc=0x%08x",
         trapCauseName(cause), tval, pcc_.address());
    csrs_.mcause = static_cast<uint32_t>(cause);
    csrs_.mtval = tval;
    csrs_.mepcc = pcc_;
    csrs_.mpie = csrs_.mie;
    csrs_.mie = false;
    if (!csrs_.mtcc.tag() || !csrs_.mtcc.perms().has(cap::PermExecute)) {
        halt_ = HaltReason::DoubleTrap;
        return;
    }
    pcc_ = csrs_.mtcc.unsealedCopy();
    // Trap entry costs a pipeline flush.
    advance(config_.core.takenBranchPenalty + 1, 0);
}

void
Machine::loadProgram(const std::vector<uint32_t> &words, uint32_t addr)
{
    for (size_t i = 0; i < words.size(); ++i) {
        memory_.sram().write32(addr + static_cast<uint32_t>(i) * 4,
                               words[i]);
    }
    std::fill(decodeValid_.begin(), decodeValid_.end(), false);
}

void
Machine::resetCpu(uint32_t entry)
{
    for (auto &reg : regs_) {
        reg = Capability();
    }
    pcc_ = Capability::executableRoot().withAddress(entry);
    // All three roots are present in registers on reset (§3.1.1).
    writeReg(isa::A0, Capability::memoryRoot());
    writeReg(isa::A1, Capability::sealingRoot());
    csrs_ = CsrFile{};
    halt_ = HaltReason::Running;
    lastTrap_ = TrapCause::None;
    pendingLoadReg_ = isa::kNumRegs;
    console_.reset();
}

bool
Machine::takePendingInterrupt()
{
    if (!csrs_.mie) {
        return false;
    }
    if (bgRevoker_.takeCompletionIrq()) {
        raiseTrap(TrapCause::RevokerInterrupt, 0);
        return true;
    }
    if (timer_.interruptPending()) {
        timer_.disarm();
        raiseTrap(TrapCause::TimerInterrupt, 0);
        return true;
    }
    return false;
}

const isa::Inst &
Machine::decodeAt(uint32_t pc)
{
    const uint32_t index = (pc - mem::kSramBase) / 4;
    if (!decodeValid_[index]) {
        // peek32, not read32: the cache fills lazily, so which fetches
        // miss depends on restore history — a counted read here would
        // make resumed runs diverge from straight ones in the
        // serialized access counters.
        isa::DecodeError error;
        decodeCache_[index] =
            isa::decode(memory_.sram().peek32(pc), &error);
        decodeValid_[index] = true;
        decodeFills++;
        if (!error.ok()) {
            // Keep the typed diagnosis so the illegal-instruction trap
            // can say precisely which field was reserved/malformed.
            lastDecodeError_ = error;
        }
    } else if (decodeCache_[index].op == isa::Op::Illegal) {
        isa::DecodeError error;
        isa::decode(memory_.sram().peek32(pc), &error);
        lastDecodeError_ = error;
    }
    return decodeCache_[index];
}

RunResult
Machine::runControl(uint64_t maxInstructions, bool singleStep)
{
    if (runControl_ == nullptr) {
        panic("runControl: no RunControl installed");
    }
    debug::RunControl &rc = *runControl_;
    rc.clearStop();
    const uint64_t startInstructions = instructions_;
    const uint64_t startCycles = cycles_;
    bool first = true;
    while (!halted() &&
           instructions_ - startInstructions < maxInstructions) {
        const uint32_t pc = pcc_.address();
        // gdb resumes *from* a stop: a breakpoint at the resume PC
        // must not re-fire before the first instruction executes.
        if (!first && rc.hitsBreakpoint(pc)) {
            rc.stopWith(rc.hitsHwBreakpoint(pc)
                            ? debug::StopReason::HwBreakpoint
                            : debug::StopReason::SwBreakpoint,
                        pc);
            break;
        }
        first = false;
        step();
        if (rc.stopPending()) {
            // A watchpoint or capability fault fired inside step();
            // the instruction (and any trap entry) has completed.
            break;
        }
        if (halted() && halt_ == HaltReason::Breakpoint) {
            // Guest EBREAK: hand control to the debugger instead of
            // staying halted — gdb treats it as a soft breakpoint.
            clearHalt();
            rc.stopWith(debug::StopReason::SwBreakpoint,
                        pcc_.address());
            break;
        }
        if (singleStep) {
            rc.stopWith(debug::StopReason::Step, pcc_.address());
            break;
        }
        if (rc.takeInterrupt()) {
            rc.stopWith(debug::StopReason::Interrupt, pcc_.address());
            break;
        }
    }
    if (!rc.stopPending() && halted()) {
        rc.stopWith(debug::StopReason::Halted, pcc_.address());
    }
    RunResult result;
    result.reason = halted() ? halt_ : HaltReason::InstrLimit;
    result.instructions = instructions_ - startInstructions;
    result.cycles = cycles_ - startCycles;
    return result;
}

bool
Machine::debugReadMem(uint32_t addr, uint32_t len,
                      std::vector<uint8_t> *out) const
{
    if (len == 0 || !memory_.sram().contains(addr, len)) {
        return false;
    }
    out->clear();
    out->reserve(len);
    for (uint32_t i = 0; i < len; ++i) {
        out->push_back(memory_.sram().peek8(addr + i));
    }
    return true;
}

bool
Machine::debugWriteMem(uint32_t addr, const std::vector<uint8_t> &data)
{
    const uint32_t len = static_cast<uint32_t>(data.size());
    if (len == 0 || !memory_.sram().contains(addr, len)) {
        return false;
    }
    for (uint32_t i = 0; i < len; ++i) {
        memory_.sram().debugWrite8(addr + i, data[i]);
    }
    // The bytes may overlap cached decodes.
    const uint32_t firstWord = (addr - mem::kSramBase) / 4;
    const uint32_t lastWord = (addr + len - 1 - mem::kSramBase) / 4;
    for (uint32_t w = firstWord;
         w <= lastWord && w < decodeValid_.size(); ++w) {
        decodeValid_[w] = false;
    }
    return true;
}

RunResult
Machine::run(uint64_t maxInstructions)
{
    const uint64_t startInstructions = instructions_;
    const uint64_t startCycles = cycles_;
    while (!halted() &&
           instructions_ - startInstructions < maxInstructions) {
        step();
    }
    RunResult result;
    result.reason = halted() ? halt_ : HaltReason::InstrLimit;
    result.instructions = instructions_ - startInstructions;
    result.cycles = cycles_ - startCycles;
    return result;
}

void
Machine::step()
{
    if (halted()) {
        return;
    }
    if (injector_ != nullptr) {
        // Spurious traps / trap storms hit the core between
        // instructions, exactly like a glitched interrupt line.
        uint32_t cause = 0;
        if (injector_->takeSpuriousFault(&cause)) {
            raiseTrap(static_cast<TrapCause>(cause), pcc_.address());
            return;
        }
    }
    if (takePendingInterrupt()) {
        return;
    }

    const uint32_t pc = pcc_.address();

    // Instruction fetch checks: PCC must be a valid, unsealed (the
    // sentry unsealing happened at the jump), executable capability
    // covering the fetch.
    if (config_.core.cheriEnabled) {
        if (!pcc_.tag() || pcc_.isSealed() ||
            !pcc_.perms().has(cap::PermExecute) || !pcc_.inBounds(pc, 4)) {
            raiseTrap(TrapCause::InstrAccessFault, pc);
            return;
        }
    }
    if (!memory_.isSram(pc, 4) || pc % 4 != 0) {
        raiseTrap(TrapCause::InstrAccessFault, pc);
        return;
    }

    const isa::Inst &inst = decodeAt(pc);
    instructions_++;
    instructionsRetired++;
    if (traceHook_) {
        traceHook_(pc, inst);
    }
    execute(inst, pc);

    if (halt_ == HaltReason::Running && console_.exitRequested()) {
        halt_ = HaltReason::ConsoleExit;
    }
}

// --- Snapshot / restore ----------------------------------------------

template <class V>
void
Machine::cpuFields(V &v)
{
    for (unsigned i = 1; i < isa::kNumRegs; ++i) {
        v(regs_[i]);
    }
    v(pcc_, csrs_, cycles_, instructions_, snapshot::as<uint8_t>(halt_),
      snapshot::as<uint32_t>(lastTrap_), pendingLoadReg_);
    v.counter("instructions", instructionsRetired);
    v.counter("loads", loads);
    v.counter("stores", stores);
    v.counter("capLoads", capLoads);
    v.counter("capStores", capStores);
    v.counter("traps", traps_);
    // Fills happen at restore-history-dependent points (see decodeAt),
    // so a resumed run legitimately diverges here.
    v.stat("decodeFills", decodeFills);
}

template <class S>
void
Machine::sections(S &&section)
{
    section("config", [this](auto &v) {
        // The image must describe *this* machine: restoring into a
        // different core or memory geometry is meaningless.
        v.expect(static_cast<uint8_t>(config_.core.kind));
        v.expect(config_.core.name);
        v.expect(config_.core.cheriEnabled);
        v.expect(config_.core.loadFilterEnabled);
        v.expect(config_.core.hwmEnabled);
        v.expect(static_cast<uint8_t>(config_.core.bus));
        v.expect(config_.sramSize);
        v.expect(config_.heapOffset);
        v.expect(config_.heapSize);
        v.expect(config_.revocationGranule);
    });
    section("cpu", [this](auto &v) { cpuFields(v); });
    section("sram", memory_.sram());
    section("bitmap", bitmap_);
    section("revoker", bgRevoker_);
    section("filter", filter_);
    section("console", console_);
    section("timer", timer_);
    section("bus", bus_);
}

void
Machine::save(snapshot::SnapshotWriter &out) const
{
    const_cast<Machine *>(this)->sections(
        [&out](const char *name, const auto &fields) {
            out.saveSection(name, fields);
        });
    out.endSection();
}

bool
Machine::restore(const snapshot::SnapshotReader &in)
{
    // Every section must be present before any is restored.
    bool ok = in.valid();
    sections([&](const char *name, const auto &) {
        ok = ok && in.hasSection(name);
    });
    sections([&](const char *name, auto &&fields) {
        ok = ok && in.restoreSection(name, fields);
    });
    if (!ok) {
        return false;
    }
    // SRAM contents changed under the decode cache.
    std::fill(decodeValid_.begin(), decodeValid_.end(), false);
    return true;
}

snapshot::SnapshotImage
Machine::saveImage() const
{
    snapshot::SnapshotWriter out;
    save(out);
    return out.finish();
}

bool
Machine::restoreImage(const snapshot::SnapshotImage &image)
{
    snapshot::SnapshotReader reader(image);
    return restore(reader);
}

uint32_t
Machine::stateDigest() const
{
    return saveImage().digest();
}

} // namespace cheriot::sim
