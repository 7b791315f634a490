/**
 * @file
 * Microbenchmarks of the key facilities (google-benchmark): the
 * capability codec, sealing, cross-compartment calls (± high-water
 * mark), malloc/free under each temporal mode, revocation sweep
 * throughput, and the per-machine fixed costs (construction, state
 * digest, image save). Times are host-side; the *simulated* cycle
 * costs are reported as counters so the relative costs the paper
 * discusses are visible regardless of host speed.
 */

#include "alloc/heap_allocator.h"
#include "cap/capability.h"
#include "isa/assembler.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"

#include <benchmark/benchmark.h>

using namespace cheriot;

namespace
{

void
BM_BoundsEncode(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state) {
        const uint32_t base = rng.next() & 0x0fffffff;
        const uint32_t length = rng.next() & 0xffffff;
        benchmark::DoNotOptimize(cap::encodeBounds(base, length));
    }
}
BENCHMARK(BM_BoundsEncode);

void
BM_BoundsDecode(benchmark::State &state)
{
    const auto encoded = cap::encodeBounds(0x20001000, 4096).encoded;
    uint32_t addr = 0x20001000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cap::decodeBounds(encoded, addr));
        addr += 8;
        if (addr >= 0x20002000) {
            addr = 0x20001000;
        }
    }
}
BENCHMARK(BM_BoundsDecode);

/** Address moves inside the decode window: the cached bounds hold. */
void
BM_WithAddressInWindow(benchmark::State &state)
{
    const cap::Capability c =
        cap::Capability::memoryRoot().withAddress(0x20001000).withBounds(
            4096);
    uint32_t addr = 0x20001000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.withAddress(addr));
        addr += 8;
        if (addr >= 0x20002000) {
            addr = 0x20001000;
        }
    }
}
BENCHMARK(BM_WithAddressInWindow);

/** Address moves out of the decode window: each one re-decodes. */
void
BM_WithAddressLeavesWindow(benchmark::State &state)
{
    const cap::Capability c =
        cap::Capability::memoryRoot().withAddress(0x20000100).withBounds(
            256);
    uint32_t addr = 0x30000000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.withAddress(addr));
        addr += 0x1000;
    }
}
BENCHMARK(BM_WithAddressLeavesWindow);

void
BM_InBounds(benchmark::State &state)
{
    const cap::Capability c =
        cap::Capability::memoryRoot().withAddress(0x20001000).withBounds(
            4096);
    uint32_t addr = 0x20000ff0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.inBounds(addr, 4));
        addr += 4;
        if (addr >= 0x20002010) {
            addr = 0x20000ff0;
        }
    }
}
BENCHMARK(BM_InBounds);

void
BM_FromInt(benchmark::State &state)
{
    uint32_t value = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cap::Capability::fromInt(value));
        value += 0x101;
    }
}
BENCHMARK(BM_FromInt);

void
BM_PermCompress(benchmark::State &state)
{
    uint16_t mask = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cap::compressPerms(cap::PermSet(mask++ & 0xfff)));
    }
}
BENCHMARK(BM_PermCompress);

void
BM_CapabilityPackUnpack(benchmark::State &state)
{
    const cap::Capability c =
        cap::Capability::memoryRoot().withAddress(0x20000100).withBounds(
            256);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cap::Capability::fromBits(c.toBits(), true));
    }
}
BENCHMARK(BM_CapabilityPackUnpack);

void
BM_SealUnseal(benchmark::State &state)
{
    const cap::Capability target =
        cap::Capability::memoryRoot().withAddress(0x20000000).withBounds(
            64);
    const cap::Capability sealer =
        cap::Capability::sealingRoot().withAddress(cap::kOtypeToken);
    for (auto _ : state) {
        const auto sealed = cap::seal(target, sealer);
        benchmark::DoNotOptimize(cap::unseal(*sealed, sealer));
    }
}
BENCHMARK(BM_SealUnseal);

sim::MachineConfig
benchMachineConfig(bool hwm)
{
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.core.hwmEnabled = hwm;
    config.sramSize = 272u << 10;
    config.heapOffset = 16u << 10;
    config.heapSize = 256u << 10;
    return config;
}

void
BM_CrossCompartmentCall(benchmark::State &state)
{
    const bool hwm = state.range(0) != 0;
    sim::Machine machine(benchMachineConfig(hwm));
    rtos::Kernel kernel(machine);
    rtos::Compartment &comp = kernel.createCompartment("callee");
    rtos::Thread &thread = kernel.createThread("bench", 1, 1024);
    kernel.activate(thread);
    const uint32_t index = comp.addExport(
        {"noop", [](rtos::CompartmentContext &ctx, rtos::ArgVec &) {
             const cap::Capability frame = ctx.stackAlloc(64);
             ctx.mem.storeWord(frame, frame.base(), 1);
             return rtos::CallResult::ofInt(0);
         },
         false});
    const auto import = kernel.importOf(comp, index);

    uint64_t calls = 0;
    const uint64_t startCycles = machine.cycles();
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernel.call(thread, import, {}));
        ++calls;
    }
    state.counters["sim_cycles_per_call"] = benchmark::Counter(
        static_cast<double>(machine.cycles() - startCycles) /
        static_cast<double>(calls));
}
BENCHMARK(BM_CrossCompartmentCall)->Arg(0)->Arg(1)
    ->ArgNames({"hwm"});

void
BM_MallocFree(benchmark::State &state)
{
    const auto mode = static_cast<alloc::TemporalMode>(state.range(0));
    const uint32_t size = static_cast<uint32_t>(state.range(1));
    sim::Machine machine(benchMachineConfig(true));
    rtos::Kernel kernel(machine);
    kernel.initHeap(mode);
    rtos::Thread &thread = kernel.createThread("bench", 1, 1024);
    kernel.activate(thread);

    uint64_t pairs = 0;
    const uint64_t startCycles = machine.cycles();
    for (auto _ : state) {
        const cap::Capability ptr = kernel.malloc(thread, size);
        benchmark::DoNotOptimize(kernel.free(thread, ptr));
        ++pairs;
    }
    state.counters["sim_cycles_per_pair"] = benchmark::Counter(
        static_cast<double>(machine.cycles() - startCycles) /
        static_cast<double>(pairs));
}
BENCHMARK(BM_MallocFree)
    ->ArgsProduct({{0, 1, 2, 3}, {64, 1024}})
    ->ArgNames({"mode", "size"});

void
BM_SoftwareSweep(benchmark::State &state)
{
    sim::Machine machine(benchMachineConfig(true));
    rtos::GuestContext guest(machine);
    rtos::SweepContext port(guest, cap::Capability::memoryRoot());
    revoker::SoftwareRevoker revoker(port, machine.heapBase(),
                                     256u << 10);
    uint64_t sweeps = 0;
    const uint64_t startCycles = machine.cycles();
    for (auto _ : state) {
        revoker.requestSweep();
        ++sweeps;
    }
    state.counters["sim_cycles_per_sweep"] = benchmark::Counter(
        static_cast<double>(machine.cycles() - startCycles) /
        static_cast<double>(sweeps));
}
BENCHMARK(BM_SoftwareSweep);

void
BM_MachineInterpreter(benchmark::State &state)
{
    // Raw interpreter throughput: a tight guest arithmetic loop.
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.sramSize = 64u << 10;
    config.heapOffset = 32u << 10;
    config.heapSize = 16u << 10;
    sim::Machine machine(config);
    isa::Assembler assembler(mem::kSramBase + 0x1000);
    assembler.li(isa::A0, 1 << 20);
    const auto loop = assembler.here();
    assembler.addi(isa::A0, isa::A0, -1);
    assembler.bnez(isa::A0, loop);
    assembler.ebreak();
    machine.loadProgram(assembler.finish(), mem::kSramBase + 0x1000);

    for (auto _ : state) {
        machine.resetCpu(mem::kSramBase + 0x1000);
        machine.run(1u << 22);
    }
    state.SetItemsProcessed(state.iterations() * (2u << 20));
}
BENCHMARK(BM_MachineInterpreter);

/** A CoreMark-sized machine: 256 KiB of SRAM. */
sim::MachineConfig
snapshotMachineConfig()
{
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.sramSize = 256u << 10;
    config.heapOffset = 192u << 10;
    config.heapSize = 32u << 10;
    return config;
}

void
BM_MachineConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Machine machine(snapshotMachineConfig());
        benchmark::DoNotOptimize(&machine);
    }
}
BENCHMARK(BM_MachineConstruct);

void
BM_StateDigest(benchmark::State &state)
{
    const sim::Machine machine(snapshotMachineConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.stateDigest());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        machine.machineConfig().sramSize);
}
BENCHMARK(BM_StateDigest);

void
BM_SaveImage(benchmark::State &state)
{
    const sim::Machine machine(snapshotMachineConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.saveImage());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        machine.machineConfig().sramSize);
}
BENCHMARK(BM_SaveImage);

} // namespace
