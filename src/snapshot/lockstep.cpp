#include "snapshot/lockstep.h"

#include <cstdio>

namespace cheriot::snapshot
{

namespace
{

std::string
describeCap(const cap::Capability &c)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%016llx tag=%d",
                  static_cast<unsigned long long>(c.toBits()),
                  c.tag() ? 1 : 0);
    return buffer;
}

bool
sameCap(const cap::Capability &x, const cap::Capability &y)
{
    return x.toBits() == y.toBits() && x.tag() == y.tag();
}

} // namespace

LockstepRunner::LockstepRunner(sim::Machine &a, sim::Machine &b,
                               size_t traceDepth)
    : a_(a), b_(b), tracerA_(traceDepth), tracerB_(traceDepth)
{
    tracerA_.attach(a_);
    tracerB_.attach(b_);
}

void
LockstepRunner::recordDivergence(const std::string &detail)
{
    report_.diverged = true;
    report_.divergenceStep = steps_;
    report_.detail = detail;
    report_.traceA = tracerA_.format();
    report_.traceB = tracerB_.format();
}

bool
LockstepRunner::compareArchitecturalState()
{
    for (unsigned i = 1; i < isa::kNumRegs; ++i) {
        const cap::Capability ra = a_.readReg(i);
        const cap::Capability rb = b_.readReg(i);
        if (!sameCap(ra, rb)) {
            recordDivergence("c" + std::to_string(i) + ": A=" +
                             describeCap(ra) + " B=" + describeCap(rb));
            return false;
        }
    }
    if (!sameCap(a_.pcc(), b_.pcc())) {
        recordDivergence("pcc: A=" + describeCap(a_.pcc()) +
                         " B=" + describeCap(b_.pcc()));
        return false;
    }
    const sim::CsrFile &ca = a_.csrs();
    const sim::CsrFile &cb = b_.csrs();
    const struct
    {
        const char *name;
        uint32_t a, b;
    } scalars[] = {
        {"mie", ca.mie, cb.mie},          {"mpie", ca.mpie, cb.mpie},
        {"mcause", ca.mcause, cb.mcause}, {"mtval", ca.mtval, cb.mtval},
        {"mshwm", ca.mshwm, cb.mshwm},    {"mshwmb", ca.mshwmb, cb.mshwmb},
    };
    for (const auto &csr : scalars) {
        if (csr.a != csr.b) {
            char buffer[64];
            std::snprintf(buffer, sizeof(buffer), "%s: A=0x%x B=0x%x",
                          csr.name, csr.a, csr.b);
            recordDivergence(buffer);
            return false;
        }
    }
    const struct
    {
        const char *name;
        const cap::Capability &a, &b;
    } scrs[] = {
        {"mtcc", ca.mtcc, cb.mtcc},
        {"mtdc", ca.mtdc, cb.mtdc},
        {"mscratchc", ca.mscratchc, cb.mscratchc},
        {"mepcc", ca.mepcc, cb.mepcc},
    };
    for (const auto &scr : scrs) {
        if (!sameCap(scr.a, scr.b)) {
            recordDivergence(std::string(scr.name) + ": A=" +
                             describeCap(scr.a) + " B=" +
                             describeCap(scr.b));
            return false;
        }
    }
    if (a_.halted() != b_.halted()) {
        recordDivergence(std::string("halt state: A=") +
                         (a_.halted() ? "halted" : "running") +
                         " B=" + (b_.halted() ? "halted" : "running"));
        return false;
    }
    return true;
}

bool
LockstepRunner::compareMemory()
{
    const auto mismatch =
        a_.memory().sram().firstMismatch(b_.memory().sram());
    if (mismatch) {
        const auto side = [](const mem::RawCapBits &g) {
            char buffer[48];
            std::snprintf(buffer, sizeof(buffer), "%016llx micro-tags=%d%d",
                          static_cast<unsigned long long>(g.bits),
                          g.halfTag1 ? 1 : 0, g.halfTag0 ? 1 : 0);
            return std::string(buffer);
        };
        char address[40];
        std::snprintf(address, sizeof(address), "memory granule 0x%08x: ",
                      mismatch->addr);
        recordDivergence(address + ("A=" + side(mismatch->mine)) +
                         " B=" + side(mismatch->theirs));
        return false;
    }
    return true;
}

bool
LockstepRunner::stepBoth()
{
    if (report_.diverged) {
        return false;
    }
    a_.step();
    b_.step();
    ++steps_;
    return compareArchitecturalState();
}

const LockstepReport &
LockstepRunner::run(uint64_t maxInstructions, uint64_t memoryCheckInterval)
{
    while (!report_.diverged && steps_ < maxInstructions) {
        if (a_.halted() && b_.halted()) {
            break;
        }
        if (!stepBoth()) {
            return report_;
        }
        if (memoryCheckInterval != 0 &&
            steps_ % memoryCheckInterval == 0 && !compareMemory()) {
            return report_;
        }
    }
    if (!compareMemory()) {
        return report_;
    }
    report_.completed = a_.halted() && b_.halted();
    return report_;
}

} // namespace cheriot::snapshot
