#include "probes.h"

#include "trace.h"

#include "cap/bounds.h"
#include "cap/capability.h"
#include "fault/fault_injector.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "util/log.h"

#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace perfbench
{

using namespace cheriot;
using cap::Capability;

namespace
{

constexpr int kRounds = 7;

/** Keeps probe results observable so the calls are not elided. */
volatile uint64_t gSink = 0;

/**
 * Median over kRounds of (ns per round) / (work per round). @p round
 * performs one round and returns its work units (calls, cycles,
 * words).
 */
double
timeRounds(const std::function<uint64_t()> &round)
{
    std::vector<double> perUnit;
    for (int r = 0; r < kRounds; ++r) {
        const int64_t start = nowNs();
        const uint64_t units = round();
        const double ns = static_cast<double>(nowNs() - start);
        perUnit.push_back(units == 0 ? ns : ns / static_cast<double>(units));
    }
    return median(perUnit);
}

/** The net_rx machine layout, on Ibex. */
sim::MachineConfig
probeMachineConfig()
{
    sim::MachineConfig mc;
    mc.sramSize = 320u << 10;
    mc.heapOffset = 64u << 10;
    mc.heapSize = 256u << 10;
    return mc;
}

/** A booted kernel with one compartment exporting an empty entry. */
struct ProbeSystem
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rtos::Kernel> kernel;
    rtos::Thread *thread = nullptr;
    rtos::Import nop;
};

std::unique_ptr<ProbeSystem>
bootProbeSystem()
{
    auto sys = std::make_unique<ProbeSystem>();
    sys->machine = std::make_unique<sim::Machine>(probeMachineConfig());
    sys->kernel = std::make_unique<rtos::Kernel>(*sys->machine);
    rtos::Kernel &kernel = *sys->kernel;
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    rtos::Compartment &probe = kernel.createCompartment("probe");
    sys->thread = &kernel.createThread("probe", 2, 4096);
    std::string bootError;
    if (!kernel.finalizeBoot(&bootError)) {
        fatal("perfbench: probe boot failed: %s", bootError.c_str());
    }
    kernel.activate(*sys->thread);
    const uint32_t index = probe.addExport(
        {"nop",
         [](rtos::CompartmentContext &, rtos::ArgVec &) {
             return rtos::CallResult::ofInt(1);
         },
         false});
    sys->nop = kernel.importOf(probe, index);
    return sys;
}

/** Start a background-revoker sweep over the heap window. */
void
kickSweep(sim::Machine &machine)
{
    revoker::BackgroundRevoker &engine = machine.backgroundRevoker();
    engine.write32(0x0, machine.heapBase());
    engine.write32(0x4, machine.heapEnd());
    engine.write32(0xc, 1);
}

} // namespace

void
runProbes(MetricSet &out)
{
    constexpr uint32_t kCalls = 200'000;

    // Capability codec.
    const Capability root = Capability::memoryRoot();
    const uint32_t base = 0x20010000;
    const Capability bounded = root.withAddress(base).withBounds(4096);
    out.add("cap.with_address_ns", timeRounds([&] {
                uint64_t acc = 0;
                for (uint32_t i = 0; i < kCalls; ++i) {
                    acc += bounded.withAddress(base + (i & 4095)).address();
                }
                gSink = gSink + acc;
                return uint64_t{kCalls};
            }),
            "ns");
    out.add("cap.decode_bounds_ns", timeRounds([&] {
                uint64_t acc = 0;
                for (uint32_t i = 0; i < kCalls; ++i) {
                    acc += cap::decodeBounds(bounded.encodedBounds(),
                                             base + (i & 4095))
                               .base;
                }
                gSink = gSink + acc;
                return uint64_t{kCalls};
            }),
            "ns");

    // Memory and time probes run on a bare machine: no kernel whose
    // heap metadata the stores could clobber.
    sim::Machine machine(probeMachineConfig());
    const uint32_t heap = machine.heapBase();
    const Capability auth = root.withAddress(heap).withBounds(4096);

    // Machine::checkAccess is private: a misaligned in-bounds load runs
    // every check (tag, seal, permission, bounds, alignment) and is
    // refused before the bus.
    out.add("sim.check_access_ns", timeRounds([&] {
                uint32_t value = 0;
                uint64_t acc = 0;
                for (uint32_t i = 0; i < kCalls; ++i) {
                    acc += static_cast<uint64_t>(machine.loadData(
                        auth, heap + 1 + 4 * (i & 511), 4, false, &value));
                }
                gSink = gSink + acc;
                return uint64_t{kCalls};
            }),
            "ns");
    out.add("sim.store_cap_ns", timeRounds([&] {
                uint64_t acc = 0;
                for (uint32_t i = 0; i < kCalls; ++i) {
                    acc += static_cast<uint64_t>(
                        machine.storeCap(auth, heap + 8 * (i & 511), auth));
                }
                gSink = gSink + acc;
                return uint64_t{kCalls};
            }),
            "ns");
    out.add("sim.load_cap_ns", timeRounds([&] {
                Capability loaded;
                uint64_t acc = 0;
                for (uint32_t i = 0; i < kCalls; ++i) {
                    acc += static_cast<uint64_t>(machine.loadCap(
                        auth, heap + 8 * (i & 511), &loaded));
                    acc += loaded.address();
                }
                gSink = gSink + acc;
                return uint64_t{kCalls};
            }),
            "ns");

    // Time advance: idle (revoker at rest), then with a sweep in
    // flight.
    revoker::BackgroundRevoker &engine = machine.backgroundRevoker();
    while (engine.sweeping()) {
        machine.idle(1000);
    }
    out.add("sim.idle_ns_per_kcycle", timeRounds([&] {
                for (int i = 0; i < 200; ++i) {
                    machine.idle(1000);
                }
                return uint64_t{200};
            }),
            "ns");
    out.add("sim.busy_ns_per_kcycle", timeRounds([&] {
                for (int i = 0; i < 200; ++i) {
                    if (!engine.sweeping()) {
                        kickSweep(machine);
                    }
                    machine.advance(1000, 0);
                }
                return uint64_t{200};
            }),
            "ns");
    out.add("revoker.sweep_ns_per_word", timeRounds([&] {
                const uint64_t before = engine.wordsExamined.value();
                for (int i = 0; i < 200'000; ++i) {
                    if (!engine.sweeping()) {
                        kickSweep(machine);
                    }
                    engine.tick(true);
                }
                return engine.wordsExamined.value() - before;
            }),
            "ns");
    while (engine.sweeping()) {
        machine.idle(1000);
    }

    // RTOS and allocator.
    auto sys = bootProbeSystem();
    rtos::Kernel &kernel = *sys->kernel;
    out.add("rtos.switcher_call_ns", timeRounds([&] {
                uint64_t acc = 0;
                for (int i = 0; i < 20'000; ++i) {
                    acc += kernel.call(*sys->thread, sys->nop, {})
                               .value.address();
                }
                gSink = gSink + acc;
                return uint64_t{20'000};
            }),
            "ns");
    out.add("alloc.malloc_free_ns", timeRounds([&] {
                uint64_t acc = 0;
                for (int i = 0; i < 20'000; ++i) {
                    const Capability p =
                        kernel.allocator().malloc(16 + 8 * (i & 7));
                    acc += p.address();
                    kernel.allocator().free(p);
                }
                gSink = gSink + acc;
                return uint64_t{20'000};
            }),
            "ns");

    // The injector's per-cycle poll with a plan armed but not due.
    fault::FaultInjector injector(1);
    fault::FaultPlan plan;
    plan.site = fault::FaultSite::TagClear;
    plan.triggerCycle = std::numeric_limits<uint64_t>::max();
    injector.arm(plan);
    uint64_t cycle = 0;
    out.add("fault.injector_tick_ns", timeRounds([&] {
                for (uint32_t i = 0; i < kCalls; ++i) {
                    injector.tick(++cycle);
                }
                return uint64_t{kCalls};
            }),
            "ns");
}

} // namespace perfbench
