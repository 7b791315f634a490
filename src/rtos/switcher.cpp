#include "rtos/switcher.h"

#include "cap/permissions.h"
#include "debug/stats.h"
#include "fault/fault_injector.h"
#include "rtos/kernel.h"
#include "rtos/watchdog.h"
#include "util/bits.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::rtos
{

using cap::Capability;

void
Switcher::attachSimStats(debug::SimStats &stats)
{
    simStats_ = &stats;
    stats.attach(stats_);
    for (auto &entry : compartmentCycles_) {
        stats.attachCounter("compartment." + entry.first + ".cycles",
                            entry.second);
    }
}

Counter &
Switcher::cyclesFor(const std::string &name)
{
    auto it = compartmentCycles_.find(name);
    if (it == compartmentCycles_.end()) {
        it = compartmentCycles_.emplace(name, Counter{}).first;
        if (simStats_ != nullptr) {
            simStats_->attachCounter("compartment." + name + ".cycles",
                                     it->second);
        }
    }
    return it->second;
}

uint64_t
Switcher::cyclesAttributedTo(const std::string &name) const
{
    const auto it = compartmentCycles_.find(name);
    return it == compartmentCycles_.end() ? 0 : it->second.value();
}

void
Switcher::switchTo(const std::string &name)
{
    const uint64_t now = guest_.machine().cycles();
    cyclesFor(currentCompartment_) += now - attributionMark_;
    attributionMark_ = now;
    currentCompartment_ = name;
    compartmentSwitches++;
}

uint32_t
Switcher::zeroStack(Thread &thread, uint32_t sp)
{
    sim::Machine &machine = guest_.machine();
    uint32_t lo = thread.stackBase();
    if (machine.config().hwmEnabled) {
        // Only the region the hardware saw stores to is dirty.
        const uint32_t hwm = machine.csrs().mshwm;
        lo = std::max(lo, std::min(hwm, sp));
        // Reading mshwm/mshwmb and computing the range.
        guest_.chargeExecution(4);
    }
    if (lo >= sp) {
        if (machine.config().hwmEnabled) {
            machine.csrs().mshwm = sp;
        }
        return 0;
    }
    guest_.zero(thread.stackRoot(), lo, sp - lo);
    if (machine.config().hwmEnabled) {
        machine.csrs().mshwm = sp;
    }
    bytesZeroed += sp - lo;
    thread.stackBytesZeroed += sp - lo;
    return sp - lo;
}

CallResult
Switcher::call(Kernel &kernel, Thread &thread, const Import &import,
               ArgVec &args, const Capability &trustedStackCap)
{
    if (!import.valid()) {
        return CallResult::faulted(sim::TrapCause::CheriSealViolation);
    }
    sim::Machine &machine = guest_.machine();

    // Fail-fast gates, before any trusted-stack work (§5.2): a
    // thread in forced unwind cannot start new calls (each frame
    // must pop, not grow), and a quarantined compartment is never
    // entered at all — that is what keeps a crash-looping
    // compartment from consuming the system's cycles.
    if (thread.unwinding()) {
        rejectedCalls++;
        return CallResult::faulted(thread.unwindCause());
    }
    if (kernel.watchdog().shouldReject(*import.compartment,
                                       machine.cycles())) {
        rejectedCalls++;
        guest_.chargeExecution(8); // The entry check before bailing.
        return CallResult::faulted(
            sim::TrapCause::CompartmentQuarantined);
    }

    const Export &target = import.target();

    calls++;
    thread.crossCompartmentCalls++;
    thread.enterCall();

    // --- Entry path -----------------------------------------------------
    // Hand-written switcher prologue: validate the sealed entry,
    // bump the trusted stack, clear non-argument registers.
    guest_.chargeExecution(kCallInstructions);

    // Spill the caller's callee-saved capability registers to the
    // trusted stack (kernel-private memory).
    const uint32_t frameBase =
        trustedStackCap.base() +
        (thread.callDepth() - 1) * kSavedCaps * cap::kCapabilitySize;
    for (uint32_t i = 0; i < kSavedCaps; ++i) {
        guest_.storeCap(trustedStackCap,
                        frameBase + i * cap::kCapabilitySize, Capability());
    }

    const uint32_t callerSp = thread.sp();

    // Zero the unused stack before handing it over, bounded by the
    // high-water mark when available (§5.2.1).
    zeroStack(thread, callerSp);

    // Chop the stack: the callee receives [stackBase, callerSp) with
    // Store-Local, as the only place local capabilities can live.
    Capability calleeStack =
        thread.stackRoot().withAddress(thread.stackBase());
    calleeStack = calleeStack.withBounds(callerSp - thread.stackBase());
    calleeStack = calleeStack.withAddress(callerSp);
    if (!calleeStack.tag()) {
        panic("switcher: failed to derive callee stack [0x%08x, 0x%08x)",
              thread.stackBase(), callerSp);
    }

    // Interrupt posture follows the import's sentry type (§3.1.2).
    const bool savedPosture = machine.interruptsEnabled();
    if (target.interruptsDisabled) {
        machine.setInterruptsEnabled(false);
    }

    // Everything up to here (the switcher prologue) is charged to the
    // caller; from the switch until the matching return, cycles are
    // attributed to the callee — including any error handler it runs.
    const std::string attributionCaller = currentCompartment_;
    switchTo(import.compartment->name());

    // --- Callee runs ----------------------------------------------------
    CompartmentContext context{kernel, thread, *import.compartment, guest_,
                               calleeStack, callerSp};
    CallResult result;
    result = target.fn(context, args);

    // Fault injection: a spurious trap delivered while this
    // activation was on the core surfaces as a callee fault.
    if (result.ok() && machine.faultInjector() != nullptr) {
        uint32_t cause = 0;
        if (machine.faultInjector()->takeSpuriousFault(&cause)) {
            result =
                CallResult::faulted(static_cast<sim::TrapCause>(cause));
        }
    }

    // --- Return path ----------------------------------------------------
    machine.setInterruptsEnabled(savedPosture);

    if (!result.ok()) {
        // A faulting callee is unwound by the switcher; the caller
        // receives the error return rather than a trap (§2.2's
        // blast-radius limiting).
        calleeFaults++;
        result =
            handleCalleeFault(kernel, thread, import, context, result);
    }

    // The callee (and its error handler, if one ran) is done; the
    // switcher epilogue's cycles belong to the caller again.
    switchTo(attributionCaller);

    // Zero exactly the stack the callee used.
    thread.setSp(callerSp);
    zeroStack(thread, callerSp);

    // Reload spilled registers and return to the caller.
    for (uint32_t i = 0; i < kSavedCaps; ++i) {
        (void)guest_.loadCap(trustedStackCap,
                             frameBase + i * cap::kCapabilitySize);
    }
    guest_.chargeExecution(kReturnInstructions);

    thread.leaveCall();

    if (thread.unwinding()) {
        // Forced unwind in progress: this frame pops with the fault,
        // overriding whatever the intermediate body returned, until
        // the original caller (depth 0) is reached (§5.2).
        forcedUnwindFrames++;
        result = CallResult::faulted(thread.unwindCause());
        if (thread.callDepth() == 0) {
            thread.endForcedUnwind();
            thread.forcedUnwinds++;
        }
    }

    // Returned capabilities must not smuggle stack references: the
    // switcher strips anything local (the return registers are the
    // only channel back).
    if (result.value.tag() && result.value.isLocal()) {
        result.value = result.value.withTagCleared();
    }
    if (result.second.tag() && result.second.isLocal()) {
        result.second = result.second.withTagCleared();
    }
    return result;
}

CallResult
Switcher::handleCalleeFault(Kernel &kernel, Thread &thread,
                            const Import &import,
                            CompartmentContext &context,
                            const CallResult &faultResult)
{
    Compartment &compartment = *import.compartment;
    const sim::TrapCause cause = faultResult.fault;
    sim::Machine &machine = guest_.machine();

    if (thread.unwinding()) {
        // Already unwinding through this frame: no handler, just
        // keep popping with the original cause.
        return CallResult::faulted(thread.unwindCause());
    }

    logf(LogLevel::Debug, "switcher: callee fault in '%s' at depth %u: %s",
         compartment.name().c_str(), thread.callDepth(),
         faultResult.faultName());

    const bool quarantinedNow = kernel.watchdog().recordFault(
        compartment, cause, machine.cycles());
    FaultRecoveryState &state = compartment.faultState();

    if (!quarantinedNow && compartment.hasErrorHandler() &&
        !state.handlerActive) {
        // The handler runs in the faulting compartment's own context
        // — its globals, the already chopped stack — with the
        // switcher re-entering the compartment (§5.2). A handler
        // that itself faults gets no second handler (double-fault
        // rule), which handlerActive latches.
        guest_.chargeExecution(kHandlerInstructions);
        handlerInvocations++;
        FaultInfo info;
        info.cause = cause;
        info.depth = thread.callDepth();
        info.faultCount = state.faultsTotal;
        info.budgetRemaining =
            kernel.watchdog().budgetRemaining(compartment);
        state.handlerActive = true;
        HandlerDecision decision =
            compartment.errorHandler()(context, info);
        state.handlerActive = false;
        if (decision.action == ErrorRecovery::Handled &&
            decision.result.ok()) {
            return decision.result;
        }
    }

    thread.beginForcedUnwind(cause);
    return CallResult::faulted(cause);
}

} // namespace cheriot::rtos
