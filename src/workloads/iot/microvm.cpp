#include "workloads/iot/microvm.h"

#include "rtos/kernel.h"
#include "util/log.h"

namespace cheriot::workloads
{

using cap::Capability;

std::vector<uint8_t>
MicroVm::ledAnimationProgram()
{
    // Sixteen iterations; each allocates a frame object, computes an
    // animation mask through it, and drives the LEDs.
    std::vector<uint8_t> program;
    auto op = [&](VmOp o) {
        program.push_back(static_cast<uint8_t>(o));
    };
    auto opImm = [&](VmOp o, uint8_t imm) {
        program.push_back(static_cast<uint8_t>(o));
        program.push_back(imm);
    };

    opImm(VmOp::PushLoop, 16);
    const size_t loopStart = program.size();
    opImm(VmOp::NewObject, 24); // [h]
    op(VmOp::Dup);              // [h h]
    op(VmOp::PushFrame);        // [h h f]
    opImm(VmOp::PushImm, 5);
    op(VmOp::Mul);              // [h h 5f]
    opImm(VmOp::PushImm, 0);
    op(VmOp::SetField);         // [h]      h[0] = 5f
    op(VmOp::Dup);              // [h h]
    opImm(VmOp::PushImm, 0);
    op(VmOp::GetField);         // [h v]
    op(VmOp::PushFrame);        // [h v f]
    opImm(VmOp::Shr, 3);        // [h v f>>3]
    op(VmOp::Xor);              // [h v^(f>>3)]
    opImm(VmOp::PushImm, 255);
    op(VmOp::And);              // [h mask]
    op(VmOp::SetLed);           // [h]
    op(VmOp::Drop);             // []
    const size_t loopEnd = program.size();
    opImm(VmOp::Loop, static_cast<uint8_t>(loopEnd - loopStart));
    op(VmOp::Halt);
    return program;
}

bool
MicroVm::runProgram(rtos::CompartmentContext &ctx)
{
    // The value stack holds merged int/capability slots, like the
    // register file.
    std::vector<Capability> stack;
    auto pushInt = [&](uint32_t v) {
        stack.push_back(Capability::fromInt(v));
    };
    auto pop = [&]() {
        if (stack.empty()) {
            panic("microvm: value stack underflow");
        }
        const Capability top = stack.back();
        stack.pop_back();
        return top;
    };

    uint32_t loopCounter = 0;
    size_t pc = 0;
    auto fetchByte = [&]() { return program_.at(pc++); };

    for (;;) {
        const auto op = static_cast<VmOp>(fetchByte());
        ctx.mem.chargeExecution(kDispatchCycles);
        switch (op) {
          case VmOp::PushImm:
            pushInt(fetchByte());
            break;
          case VmOp::PushFrame:
            pushInt(static_cast<uint32_t>(ticks_));
            break;
          case VmOp::Add: {
            const uint32_t b = pop().address();
            pushInt(pop().address() + b);
            break;
          }
          case VmOp::Sub: {
            const uint32_t b = pop().address();
            pushInt(pop().address() - b);
            break;
          }
          case VmOp::Mul: {
            const uint32_t b = pop().address();
            pushInt(pop().address() * b);
            break;
          }
          case VmOp::And: {
            const uint32_t b = pop().address();
            pushInt(pop().address() & b);
            break;
          }
          case VmOp::Or: {
            const uint32_t b = pop().address();
            pushInt(pop().address() | b);
            break;
          }
          case VmOp::Xor: {
            const uint32_t b = pop().address();
            pushInt(pop().address() ^ b);
            break;
          }
          case VmOp::Shl:
            pushInt(pop().address() << (fetchByte() & 31));
            break;
          case VmOp::Shr:
            pushInt(pop().address() >> (fetchByte() & 31));
            break;
          case VmOp::Dup:
            stack.push_back(stack.back());
            break;
          case VmOp::Drop:
            pop();
            break;
          case VmOp::NewObject: {
            const uint8_t bytes = fetchByte();
            const Capability object =
                ctx.kernel.malloc(ctx.thread, bytes);
            if (!object.tag()) {
                // Allocation denied (heap exhausted, allocator
                // quarantined, or the malloc call itself faulted):
                // abandon the tick and let the caller fault.
                return false;
            }
            objectsAllocated_++;
            liveObjects_.push_back(object);
            stack.push_back(object);
            break;
          }
          case VmOp::SetField: {
            const uint32_t index = pop().address();
            const uint32_t value = pop().address();
            const Capability handle = pop();
            ctx.mem.storeWord(handle, handle.base() + index * 4, value);
            break;
          }
          case VmOp::GetField: {
            const uint32_t index = pop().address();
            const Capability handle = pop();
            pushInt(ctx.mem.loadWord(handle, handle.base() + index * 4));
            break;
          }
          case VmOp::SetLed:
            ledState_ = pop().address();
            ctx.mem.chargeExecution(4); // GPIO register write.
            break;
          case VmOp::PushLoop:
            loopCounter = fetchByte();
            break;
          case VmOp::Loop: {
            const uint8_t back = fetchByte();
            if (--loopCounter != 0) {
                pc -= back + 2; // Operand already consumed.
            }
            break;
          }
          case VmOp::Halt:
            return true;
        }
    }
}

bool
MicroVm::collectGarbage(rtos::CompartmentContext &ctx)
{
    gcPasses_++;
    bool allFreed = true;
    // Microvium does not reuse memory between GC passes: everything
    // allocated since the last pass goes back to the shared heap,
    // through quarantine and revocation.
    for (const Capability &object : liveObjects_) {
        const auto result = ctx.kernel.free(ctx.thread, object);
        if (result != alloc::HeapAllocator::FreeResult::Ok) {
            // A faulting free (e.g. the allocator compartment is
            // quarantined) leaks the object until the next pass
            // retries; the tick still fails so the fault is visible.
            allFreed = false;
        }
    }
    // Mark/sweep bookkeeping cost proportional to the object count.
    ctx.mem.chargeExecution(
        static_cast<uint32_t>(liveObjects_.size()) * 24 + 200);
    if (allFreed) {
        liveObjects_.clear();
    }
    return allFreed;
}

bool
MicroVm::tick(rtos::CompartmentContext &ctx)
{
    ticks_++;
    bool ok = runProgram(ctx);
    if (ticks_ % kGcEveryTicks == 0) {
        ok = collectGarbage(ctx) && ok;
    }
    if (!ok) {
        failedTicks_++;
    }
    return ok;
}

} // namespace cheriot::workloads
