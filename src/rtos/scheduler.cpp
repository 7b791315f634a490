#include "rtos/scheduler.h"

#include "util/log.h"

#include <algorithm>

namespace cheriot::rtos
{

void
Scheduler::contextSwitch()
{
    contextSwitches++;
    sim::Machine &machine = guest_.machine();

    // Save and restore the capability register file through real
    // (charged, tag-preserving) memory traffic.
    const uint32_t base = saveArea_.base();
    for (uint32_t i = 0; i < kSavedCapRegs; ++i) {
        guest_.storeCap(saveArea_, base + i * cap::kCapabilitySize,
                        cap::Capability());
    }
    for (uint32_t i = 0; i < kSavedCapRegs; ++i) {
        (void)guest_.loadCap(saveArea_, base + i * cap::kCapabilitySize);
    }
    guest_.chargeExecution(kSwitchInstructions);

    if (machine.config().hwmEnabled) {
        // The stack base and high-water-mark CSRs must be saved and
        // restored on every thread context switch (§5.2.1): two CSR
        // reads/writes plus two stores and two loads in the context
        // block — memory traffic that also keeps the port away from
        // the background revoker (visible in Table 4's 128 KiB Ibex
        // column).
        machine.advance(2 * kHwmCsrOps, 2 * kHwmCsrOps);
    }
}

void
Scheduler::blockUntil(const std::function<bool()> &done,
                      uint64_t pollCycles)
{
    while (!done()) {
        // Yield to the idle thread, sleep, and wake to re-check.
        contextSwitch();
        runIdle(pollCycles);
        contextSwitch();
    }
}

void
Scheduler::runIdle(uint64_t cycles)
{
    guest_.machine().idle(cycles);
    idleCycleCount += cycles;
}

void
Scheduler::addPeriodic(std::string name, uint64_t periodCycles,
                       uint8_t priority, std::function<void()> fn)
{
    addPeriodicWithDelay(std::move(name), periodCycles, periodCycles,
                         priority, std::move(fn));
}

void
Scheduler::addPeriodicWithDelay(std::string name, uint64_t periodCycles,
                                uint64_t firstDelay, uint8_t priority,
                                std::function<void()> fn)
{
    Task task;
    task.name = std::move(name);
    task.periodCycles = periodCycles;
    task.nextDue = guest_.machine().cycles() + firstDelay;
    task.priority = priority;
    task.fn = std::move(fn);
    tasks_.push_back(std::move(task));
}

bool
Scheduler::bindTimeCap(const std::string &name,
                       const cap::Capability &token)
{
    for (Task &task : tasks_) {
        if (task.name == name) {
            task.timeCap = token;
            return true;
        }
    }
    return false;
}

double
Scheduler::runFor(uint64_t horizon)
{
    sim::Machine &machine = guest_.machine();
    const uint64_t start = machine.cycles();
    const uint64_t idleStart = idleCycleCount.value();
    const uint64_t end = start + horizon;

    while (machine.cycles() < end) {
        // Find the next due task (highest priority wins ties).
        Task *next = nullptr;
        for (auto &task : tasks_) {
            if (next == nullptr || task.nextDue < next->nextDue ||
                (task.nextDue == next->nextDue &&
                 task.priority > next->priority)) {
                next = &task;
            }
        }
        if (next == nullptr) {
            runIdle(end - machine.cycles());
            break;
        }
        if (next->nextDue > machine.cycles()) {
            const uint64_t sleep =
                std::min(next->nextDue, end) - machine.cycles();
            runIdle(sleep);
            if (machine.cycles() >= end) {
                break;
            }
        }
        if (admissionGate_ && admissionGate_(*next)) {
            // Deferred, not run: the activation slides one period.
            admissionDeferrals++;
            next->nextDue += next->periodCycles;
            if (next->nextDue <= machine.cycles()) {
                next->nextDue = machine.cycles() + next->periodCycles;
            }
            continue;
        }
        if (next->timeCap.tag() && timeAuthority_ != nullptr &&
            timeAuthority_->checkTime(next->timeCap,
                                      slotAt(machine.cycles())) !=
                CapResult::Ok) {
            // No live Time capability for this slot: the task is
            // preempted at the scheduling point, exactly like an
            // admission-gate deferral — typed, one period, no trap.
            timeCapDeferrals++;
            next->nextDue += next->periodCycles;
            if (next->nextDue <= machine.cycles()) {
                next->nextDue = machine.cycles() + next->periodCycles;
            }
            continue;
        }
        contextSwitch();
        const uint64_t busyStart = machine.cycles();
        next->fn();
        busyCycleCount += machine.cycles() - busyStart;
        contextSwitch();
        next->nextDue += next->periodCycles;
        if (next->nextDue <= machine.cycles()) {
            // The activation overran its period; schedule from now to
            // avoid an unbounded catch-up burst.
            next->nextDue = machine.cycles() + next->periodCycles;
        }
    }

    const uint64_t total = machine.cycles() - start;
    const uint64_t idled = idleCycleCount.value() - idleStart;
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(idled) /
                                  static_cast<double>(total);
}

} // namespace cheriot::rtos
