/**
 * @file
 * Compartments, exports, and the cross-compartment call ABI
 * (paper §2.2, §2.6).
 *
 * A compartment is a contiguous region of code plus intra-compartment
 * global data, defined by a pair of capabilities: an execute-only
 * code capability and a globals capability that deliberately lacks
 * Store-Local (so references to stack memory can never be captured in
 * globals, §5.2). Compartments declare *exports* — entry points other
 * compartments may import; imports are materialised as sentry-sealed
 * entry capabilities so the importer can call but not inspect them.
 *
 * Entry bodies are host functions operating on the simulated machine
 * through a CompartmentContext; the protection state they run under
 * (globals capability, chopped stack, interrupt posture) is exactly
 * what the switcher installed.
 */

#ifndef CHERIOT_RTOS_COMPARTMENT_H
#define CHERIOT_RTOS_COMPARTMENT_H

#include "cap/capability.h"
#include "rtos/guest_context.h"
#include "sim/csr.h"

#include <functional>
#include <string>
#include <vector>

namespace cheriot::rtos
{

class Kernel;
class Thread;
class Compartment;

/** Argument/return registers of a cross-compartment call (a0–a5). */
struct ArgVec
{
    static constexpr unsigned kMaxArgs = 6;
    cap::Capability values[kMaxArgs];

    cap::Capability &operator[](unsigned index) { return values[index]; }
    const cap::Capability &operator[](unsigned index) const
    {
        return values[index];
    }

    static ArgVec of(std::initializer_list<cap::Capability> args)
    {
        ArgVec v;
        unsigned i = 0;
        for (const auto &arg : args) {
            v.values[i++] = arg;
        }
        return v;
    }
};

/** Result of a cross-compartment call. */
struct CallResult
{
    cap::Capability value;                        ///< a0 on return.
    cap::Capability second;                       ///< a1 on return.
    sim::TrapCause fault = sim::TrapCause::None;  ///< Callee fault.

    bool ok() const { return fault == sim::TrapCause::None; }

    static CallResult ofInt(uint32_t v)
    {
        CallResult r;
        r.value = cap::Capability().withAddress(v);
        return r;
    }
    static CallResult ofCap(const cap::Capability &c)
    {
        CallResult r;
        r.value = c;
        return r;
    }
    static CallResult faulted(sim::TrapCause cause)
    {
        CallResult r;
        r.fault = cause;
        return r;
    }

    /** Human-readable fault cause for diagnostics and logs. */
    const char *faultName() const { return sim::trapCauseName(fault); }
};

/** Execution environment the switcher installs for a callee. */
struct CompartmentContext
{
    Kernel &kernel;
    Thread &thread;
    Compartment &compartment;
    GuestContext &mem;
    /** The chopped stack capability (SL, local) for this activation. */
    cap::Capability stackCap;
    /** Globals capability (no SL) of the running compartment. */
    cap::Capability globals() const;

    /**
     * Carve a block from this activation's stack. The returned
     * capability is local (no GL) with exact bounds; @p bytes is
     * rounded to capability alignment.
     */
    cap::Capability stackAlloc(uint32_t bytes);

    /** Current stack pointer within the activation. */
    uint32_t sp = 0;
};

/** Body of an exported entry point. */
using EntryFn = std::function<CallResult(CompartmentContext &, ArgVec &)>;

/**
 * What the switcher tells a compartment's error handler about a
 * fault in one of its (possibly nested) callees (paper §5.2).
 */
struct FaultInfo
{
    sim::TrapCause cause = sim::TrapCause::None;
    /** Trusted-stack depth at which the fault surfaced. */
    uint32_t depth = 0;
    /** Faults this compartment has accumulated (including this). */
    uint32_t faultCount = 0;
    /** Watchdog budget left before quarantine (0 = exhausted). */
    uint32_t budgetRemaining = 0;

    const char *causeName() const { return sim::trapCauseName(cause); }
};

/** An error handler's verdict. */
enum class ErrorRecovery : uint8_t
{
    /** Continue the forced unwind: the caller sees the fault. */
    ForceUnwind,
    /** The handler repaired enough state to synthesise a return
     * value; the caller observes a normal (degraded) return. */
    Handled,
};

struct HandlerDecision
{
    ErrorRecovery action = ErrorRecovery::ForceUnwind;
    CallResult result; ///< Returned to the caller when Handled.

    static HandlerDecision forceUnwind() { return {}; }
    static HandlerDecision handled(CallResult r)
    {
        HandlerDecision d;
        d.action = ErrorRecovery::Handled;
        d.result = std::move(r);
        return d;
    }
};

/**
 * Per-compartment error handler, invoked by the switcher in the
 * faulting compartment's own context (its globals, the already
 * chopped stack) when a call into it faults.
 */
using ErrorHandler =
    std::function<HandlerDecision(CompartmentContext &, const FaultInfo &)>;

/**
 * Per-compartment fault-recovery bookkeeping, owned by the kernel
 * watchdog. A compartment whose faults-since-restart figure exhausts
 * the watchdog's budget is *quarantined*: calls into it fail fast
 * with CompartmentQuarantined until the restart delay elapses, after
 * which the watchdog zeroes its globals and re-admits it.
 */
struct FaultRecoveryState
{
    uint32_t faultsTotal = 0;
    uint32_t faultsSinceRestart = 0;
    bool quarantined = false;
    uint64_t restartDueCycle = 0;
    uint32_t quarantines = 0;
    uint32_t restarts = 0;
    /** Re-entrancy latch: a handler that itself faults does not get
     * a second handler invocation (paper §5.2's double-fault rule). */
    bool handlerActive = false;
    /** @name Resource-abuse accounting
     * Quota-exceeded / heap-exhausted outcomes charged by the
     * watchdog: a compartment that keeps driving the heap into the
     * ground is quarantined and restarted like a faulting one. @{ */
    uint32_t allocFailuresTotal = 0;
    uint32_t allocFailuresSinceRestart = 0;
    /** @} */

    template <class V>
    void fields(V &v)
    {
        v(faultsTotal, faultsSinceRestart, quarantined, restartDueCycle,
          quarantines, restarts, handlerActive, allocFailuresTotal,
          allocFailuresSinceRestart);
    }
};

/** An exported cross-compartment entry point. */
struct Export
{
    std::string name;
    EntryFn fn;
    /** Entry runs with interrupts disabled (a disable-sentry import)
     * — auditable per §3.1.2. */
    bool interruptsDisabled = false;
};

/**
 * A named MMIO window a compartment holds a capability over. Dangerous
 * authority (the revocation bitmap, device registers) is auditable by
 * window name, so policies like "only the allocator imports the
 * revocation bitmap" are checkable against the manifest (§3.1.2).
 */
struct MmioImport
{
    std::string window;
    cap::Capability cap;
};

/**
 * A recorded cross-compartment entry import: this compartment holds a
 * sentry capability for @p entry of @p target. The record exists for
 * the audit manifest — authority-reachability rules walk these edges
 * to compute which compartments can transitively invoke a holder of
 * dangerous authority (§3.1.2).
 */
struct EntryImportRecord
{
    const Compartment *target = nullptr;
    std::string entry;
};

class Compartment
{
  public:
    Compartment(std::string name, cap::Capability codeCap,
                cap::Capability globalsCap)
        : name_(std::move(name)), codeCap_(codeCap), globalsCap_(globalsCap)
    {}

    const std::string &name() const { return name_; }
    const cap::Capability &codeCap() const { return codeCap_; }
    const cap::Capability &globalsCap() const { return globalsCap_; }

    /** Declare an export; returns its index (import handle). */
    uint32_t addExport(Export exp)
    {
        exports_.push_back(std::move(exp));
        return static_cast<uint32_t>(exports_.size() - 1);
    }

    const Export &exportAt(uint32_t index) const
    {
        return exports_.at(index);
    }

    size_t exportCount() const { return exports_.size(); }

    /** @name Error handling (paper §5.2) @{ */
    void setErrorHandler(ErrorHandler handler)
    {
        errorHandler_ = std::move(handler);
    }
    bool hasErrorHandler() const
    {
        return static_cast<bool>(errorHandler_);
    }
    const ErrorHandler &errorHandler() const { return errorHandler_; }

    FaultRecoveryState &faultState() { return faultState_; }
    const FaultRecoveryState &faultState() const { return faultState_; }
    /** @} */

    /** @name MMIO imports (audit §3.1.2) @{ */
    void addMmioImport(const std::string &window,
                       const cap::Capability &cap)
    {
        mmioImports_.push_back({window, cap});
    }
    const std::vector<MmioImport> &mmioImports() const
    {
        return mmioImports_;
    }

    /** Record that this compartment imports @p entry of @p target
     * (feeds the reachability closure in verify/reach.h). */
    void addEntryImport(const Compartment &target,
                        const std::string &entry)
    {
        entryImports_.push_back({&target, entry});
    }
    const std::vector<EntryImportRecord> &entryImports() const
    {
        return entryImports_;
    }
    /** @} */

  private:
    std::string name_;
    cap::Capability codeCap_;
    cap::Capability globalsCap_;
    std::vector<Export> exports_;
    std::vector<MmioImport> mmioImports_;
    std::vector<EntryImportRecord> entryImports_;
    ErrorHandler errorHandler_;
    FaultRecoveryState faultState_;
};

/**
 * An import: a reference to another compartment's export. Opaque to
 * the importer (conceptually a sentry-sealed entry capability).
 */
struct Import
{
    Compartment *compartment = nullptr;
    uint32_t exportIndex = 0;

    bool valid() const { return compartment != nullptr; }
    const Export &target() const
    {
        return compartment->exportAt(exportIndex);
    }
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_COMPARTMENT_H
