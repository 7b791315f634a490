#include "rtos/watchdog.h"

#include "util/log.h"

namespace cheriot::rtos
{

bool
Watchdog::recordFault(Compartment &compartment, sim::TrapCause cause,
                      uint64_t nowCycle)
{
    FaultRecoveryState &state = compartment.faultState();
    state.faultsTotal++;
    state.faultsSinceRestart++;
    faultsObserved++;
    if (state.quarantined ||
        state.faultsSinceRestart < policy_.faultBudget) {
        return false;
    }
    state.quarantined = true;
    state.quarantines++;
    state.restartDueCycle = nowCycle + policy_.restartDelayCycles;
    quarantines++;
    warn("watchdog: compartment '%s' exhausted its fault budget "
         "(%u faults, last: %s) — quarantined for %llu cycles",
         compartment.name().c_str(), state.faultsSinceRestart,
         sim::trapCauseName(cause),
         static_cast<unsigned long long>(policy_.restartDelayCycles));
    return true;
}

bool
Watchdog::recordAllocFailure(Compartment &compartment,
                             alloc::AllocResult result,
                             uint64_t nowCycle)
{
    FaultRecoveryState &state = compartment.faultState();
    state.allocFailuresTotal++;
    state.allocFailuresSinceRestart++;
    allocFailuresObserved++;
    if (state.quarantined ||
        state.allocFailuresSinceRestart < policy_.allocFailureBudget) {
        return false;
    }
    state.quarantined = true;
    state.quarantines++;
    state.restartDueCycle = nowCycle + policy_.restartDelayCycles;
    quarantines++;
    overloadQuarantines++;
    warn("watchdog: compartment '%s' exhausted its allocation-failure "
         "budget (%u failures, last: %s) — quarantined for %llu cycles",
         compartment.name().c_str(), state.allocFailuresSinceRestart,
         alloc::allocResultName(result),
         static_cast<unsigned long long>(policy_.restartDelayCycles));
    return true;
}

bool
Watchdog::shouldReject(Compartment &compartment, uint64_t nowCycle)
{
    FaultRecoveryState &state = compartment.faultState();
    if (!state.quarantined) {
        return false;
    }
    if (nowCycle >= state.restartDueCycle) {
        restart(compartment);
        return false;
    }
    rejectedCalls++;
    return true;
}

uint32_t
Watchdog::budgetRemaining(const Compartment &compartment) const
{
    const FaultRecoveryState &state = compartment.faultState();
    if (state.quarantined ||
        state.faultsSinceRestart >= policy_.faultBudget) {
        return 0;
    }
    return policy_.faultBudget - state.faultsSinceRestart;
}

void
Watchdog::restart(Compartment &compartment)
{
    FaultRecoveryState &state = compartment.faultState();
    // A compartment's only persistent mutable state is its globals
    // (stacks are zeroed by the switcher on every call boundary), so
    // zeroing them re-creates the freshly loaded image.
    const cap::Capability &globals = compartment.globalsCap();
    guest_.chargeExecution(kRestartInstructions);
    guest_.zero(globals, globals.base(),
                static_cast<uint32_t>(globals.length()));
    state.quarantined = false;
    state.faultsSinceRestart = 0;
    state.allocFailuresSinceRestart = 0;
    state.handlerActive = false;
    state.restarts++;
    restarts++;
    logf(LogLevel::Info,
         "watchdog: compartment '%s' restarted (restart #%u)",
         compartment.name().c_str(), state.restarts);
}

CapResult
Watchdog::requestQuarantine(const cap::Capability &monitorCap,
                            Compartment &target, uint32_t targetIndex,
                            uint64_t nowCycle)
{
    const CapResult verdict =
        monitorAuthority_ == nullptr
            ? CapResult::InvalidCap
            : monitorAuthority_->checkMonitor(monitorCap, targetIndex);
    if (verdict != CapResult::Ok) {
        monitorActionsRefused++;
        return verdict;
    }
    FaultRecoveryState &state = target.faultState();
    state.quarantined = true;
    state.quarantines++;
    state.restartDueCycle = nowCycle + policy_.restartDelayCycles;
    quarantines++;
    monitorActionsGranted++;
    logf(LogLevel::Info,
         "watchdog: compartment '%s' quarantined by monitor capability",
         target.name().c_str());
    return CapResult::Ok;
}

CapResult
Watchdog::requestRestart(const cap::Capability &monitorCap,
                         Compartment &target, uint32_t targetIndex)
{
    const CapResult verdict =
        monitorAuthority_ == nullptr
            ? CapResult::InvalidCap
            : monitorAuthority_->checkMonitor(monitorCap, targetIndex);
    if (verdict != CapResult::Ok) {
        // A Monitor revoked mid-recovery degrades typed: the target
        // stays quarantined and heals through the ordinary lazy
        // restart path (shouldReject) when its delay elapses.
        monitorActionsRefused++;
        return verdict;
    }
    restart(target);
    monitorActionsGranted++;
    return CapResult::Ok;
}

} // namespace cheriot::rtos
