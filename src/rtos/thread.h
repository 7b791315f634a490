/**
 * @file
 * Threads: the unit of scheduling, orthogonal to compartments
 * (paper §2.2). Each thread owns a stack region; at any moment the
 * processor runs one thread inside one compartment, with access to
 * that compartment's code/globals and this thread's stack.
 */

#ifndef CHERIOT_RTOS_THREAD_H
#define CHERIOT_RTOS_THREAD_H

#include "cap/capability.h"
#include "sim/csr.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>
#include <string>

namespace cheriot::rtos
{

class Thread
{
  public:
    /**
     * @param stackBase lowest address of the stack region.
     * @param stackTop  one past the highest (initial stack pointer).
     * @param stackRoot capability covering exactly [base, top) with
     *                  SL and without GL (stacks are local, §2.6).
     */
    Thread(uint32_t id, std::string name, uint8_t priority,
           uint32_t stackBase, uint32_t stackTop,
           cap::Capability stackRoot)
        : id_(id), name_(std::move(name)), priority_(priority),
          stackBase_(stackBase), stackTop_(stackTop), sp_(stackTop),
          stackRoot_(stackRoot)
    {}

    uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }
    uint8_t priority() const { return priority_; }

    uint32_t stackBase() const { return stackBase_; }
    uint32_t stackTop() const { return stackTop_; }
    uint32_t stackSize() const { return stackTop_ - stackBase_; }

    /** Current stack pointer (stacks grow downwards). */
    uint32_t sp() const { return sp_; }
    void setSp(uint32_t sp) { sp_ = sp; }

    const cap::Capability &stackRoot() const { return stackRoot_; }

    /** Nesting depth of cross-compartment calls (trusted stack). */
    uint32_t callDepth() const { return callDepth_; }
    void enterCall() { ++callDepth_; }
    void leaveCall() { --callDepth_; }

    /** @name Forced unwind (paper §5.2)
     * While unwinding, every trusted-stack frame between the fault
     * and the original caller returns faulted(unwindCause) and the
     * thread refuses new cross-compartment calls. @{ */
    bool unwinding() const { return unwinding_; }
    sim::TrapCause unwindCause() const { return unwindCause_; }
    void beginForcedUnwind(sim::TrapCause cause)
    {
        if (!unwinding_) {
            unwinding_ = true;
            unwindCause_ = cause;
        }
    }
    void endForcedUnwind()
    {
        unwinding_ = false;
        unwindCause_ = sim::TrapCause::None;
    }
    /** @} */

    /** @name Snapshot state (dynamic fields only; identity, stack
     * geometry and the stack root are boot-time constants) @{ */
    template <class V>
    void fields(V &v)
    {
        v(sp_, callDepth_, unwinding_, snapshot::as<uint32_t>(unwindCause_),
          crossCompartmentCalls, stackBytesZeroed, forcedUnwinds);
    }
    /** @} */

    Counter crossCompartmentCalls;
    Counter stackBytesZeroed;
    Counter forcedUnwinds; ///< Completed forced unwinds to depth 0.

  private:
    uint32_t id_;
    std::string name_;
    uint8_t priority_;
    uint32_t stackBase_;
    uint32_t stackTop_;
    uint32_t sp_;
    cap::Capability stackRoot_;
    uint32_t callDepth_ = 0;
    bool unwinding_ = false;
    sim::TrapCause unwindCause_ = sim::TrapCause::None;
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_THREAD_H
